"""Spans and work counters recorded around the public functions of `vora`.

A `Tracer` patches module and class attributes of the package (where they
are looked up at call time, so callers in other modules see the wrapper)
and restores them on `uninstall`. Each wrapped call records one span:
layer name, start, end, parent span and the id of the operation (training
step or eval cycle) it ran in. Spans stay in memory until the run writes
them out with `write_trace`.

A layer's self time is its span's duration minus the time its child spans
cover; `self_times` computes it, `layer_table` sums it per layer over a set
of operations, and `unit_summary` adds the mean unit time and the part of it
no span covers.
"""

import json
import math
import os
import time
from array import array
from collections import defaultdict

# Layer name -> list of (owner path, attribute). The owner is a module or a
# class of `vora`; several attributes can feed one layer.
LAYERS = {
    "data.make_batch": [("data", "make_batch")],
    "trainer.compute_losses": [("trainer", "compute_losses")],
    "trainer.pack_embedded": [("trainer", "pack_embedded")],
    "trainer.adamw_step": [("trainer", "adamw_step")],
    "tensor.backward": [("tensor", "backward")],
    "tensor.matmul": [("tensor", "matmul")],
    "tensor.transpose": [("tensor", "transpose")],
    "vision.embed": [("vision.VisionEmbed", "forward")],
    "vision.teacher": [("vision.Teacher", "forward_batch")],
    "model.forward": [("model.Model", "forward")],
    # trainer imports decode_greedy by name, so patch it there as well
    "model.decode_greedy": [("model", "decode_greedy"), ("trainer", "decode_greedy")],
    "lora.delta": [("lora.AdapterSet", "delta")],
    "lora.merge_all": [("lora", "merge_all")],
    "distill.block_loss": [("distill", "block_distill_loss")],
    "distill.lm_loss": [("distill", "lm_loss")],
    "kernels.softmax": [("kernels", "softmax_fwd"), ("kernels", "softmax_bwd")],
    "kernels.rmsnorm": [("kernels", "rmsnorm_fwd"), ("kernels", "rmsnorm_bwd")],
    "kernels.ce": [("kernels", "ce_fwd"), ("kernels", "ce_bwd")],
    "kernels.act": [("kernels", "gelu_fwd"), ("kernels", "gelu_bwd"),
                    ("kernels", "silu_fwd"), ("kernels", "silu_bwd")],
    "kernels.adamw": [("kernels", "adamw_update")],
    "checkpoint.save": [("checkpoint", "save")],
    "checkpoint.load": [("checkpoint", "load")],
}

# Layers whose call count is reported as a per-layer metric.
COUNTED = ("tensor.matmul", "vision.embed", "vision.teacher", "model.forward", "lora.delta",
           "distill.block_loss")

# Work counters: fixed amounts of work that must repeat exactly for a seed.
WORK_COUNTERS = ("tensor.tape_nodes", "tensor.matmul.gflop", "model.forward.positions",
                 "kernels.adamw.elements", "checkpoint.bytes")


def _matmul_flops(args, out):
    return 2 * out.data.size * args[0].data.shape[-1]


def _positions(args, out):
    # Model.forward(self, embedded, ...): embedded is [S, d] or [B, S, d]
    return math.prod(args[1].data.shape[:-1])


# Layer -> (counter, function of the call's arguments and result). The tape
# length is read on entry instead, because backward clears the tape.
_WORK = {
    "tensor.matmul": ("tensor.matmul.gflop", _matmul_flops),
    "model.forward": ("model.forward.positions", _positions),
    "kernels.adamw": ("kernels.adamw.elements", lambda args, out: args[0].size),
    "checkpoint.save": ("checkpoint.bytes", lambda args, out: os.path.getsize(args[0])),
}


def _resolve(vora_pkg, path):
    mod, _, cls = path.partition(".")
    owner = getattr(vora_pkg, mod)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, vora_pkg):
        self._tensor = vora_pkg.tensor
        self._targets = []  # (owner, attr, original, wrapper)
        self.names = list(LAYERS)
        name_ids = {n: i for i, n in enumerate(self.names)}
        for layer, attrs in LAYERS.items():
            for path, attr in attrs:
                owner = _resolve(vora_pkg, path)
                original = owner.__dict__[attr]
                self._targets.append((owner, attr, original, self._wrap(original, layer, name_ids[layer])))
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = defaultdict(lambda: defaultdict(int))  # op -> layer -> calls
        self.work = defaultdict(lambda: defaultdict(int))  # op -> counter -> amount
        self.current_op = 0
        self.installed = False
        self._stack = []

    def _wrap(self, fn, layer, name_id):
        tracer = self
        work = _WORK.get(layer)
        tensor = self._tensor
        clock = time.perf_counter

        def traced(*args, **kwargs):
            op = tracer.current_op
            if layer == "tensor.backward":
                tracer.work[op]["tensor.tape_nodes"] += len(tensor.active_tape().nodes)
            idx = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.calls[op][layer] += 1
            if work is not None:
                tracer.work[op][work[0]] += work[1](args, out)
            return out

        return traced

    def install(self):
        if not self.installed:
            for owner, attr, _, wrapper in self._targets:
                setattr(owner, attr, wrapper)
            self.installed = True

    def uninstall(self):
        if self.installed:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)
            self.installed = False

    def counters(self, ops):
        """Calls per layer and work counters summed over `ops`."""
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = sum(self.calls[o][layer] for o in ops)
        for name in WORK_COUNTERS:
            out[name] = sum(self.work[o][name] for o in ops)
        return out

    def spans(self):
        return {"names": self.names, "name_id": list(self.name_id), "parent": list(self.parent),
                "op": list(self.op), "start": list(self.start), "end": list(self.end)}


def self_times(spans):
    """Self time of every span: its duration minus its children's durations."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_table(spans, ops):
    """Per-layer totals over the spans of `ops`: {layer: (self_s, inclusive_s, calls)},
    plus the time covered by top-level spans of each op: {op: seconds}."""
    ops = set(ops)
    own = self_times(spans)
    table = {name: [0.0, 0.0, 0] for name in spans["names"]}
    covered = {op: 0.0 for op in ops}
    for i, op in enumerate(spans["op"]):
        if op not in ops:
            continue
        row = table[spans["names"][spans["name_id"][i]]]
        dur = spans["end"][i] - spans["start"][i]
        row[0] += own[i]
        row[1] += dur
        row[2] += 1
        if spans["parent"][i] < 0:
            covered[op] += dur
    return {k: tuple(v) for k, v in table.items()}, covered


def unit_summary(spans, units):
    """Per-layer totals over the traced units {op id: seconds}, the mean unit
    time and the mean remainder no top-level span covers, in seconds.

    Self times plus the remainder add up to the unit time by definition; what
    can go wrong is a span outside its unit, which shows as a negative
    remainder and raises ValueError.
    """
    table, covered = layer_table(spans, units)
    gaps = [units[o] - covered[o] for o in units]
    if min(gaps) < 0:
        raise ValueError("layer spans do not nest inside their unit operations")
    n = len(units)
    return table, sum(units.values()) / n, sum(gaps) / n


def write_trace(path, doc):
    """doc: {"header": run description, "units": {op id: seconds}, "spans": Tracer.spans()}."""
    with open(path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))


def read_trace(path):
    with open(path) as f:
        doc = json.load(f)
    doc["units"] = {int(k): v for k, v in doc["units"].items()}
    return doc
