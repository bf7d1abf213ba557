"""Finite-difference verification of every autodiff op (tolerance 1e-3)."""

import ast
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np

import vora.tensor as T
from vora import data as D
from vora import trainer
from vora.gradcheck import TOL, _check_projected, nano_config, op_suite
from vora.model import attention_plan

ALL_OPS = {
    "add", "scale", "matmul", "linear", "adapted_linear", "transpose", "reshape", "concat",
    "gather_rows", "embedding", "gelu", "swiglu", "rms_norm", "attention", "cross_entropy", "cosine_loss", "tsum",
}


def test_op_suite_passes():
    results = op_suite(seed=0, trials=50)
    assert {name for name, _, _ in results} == ALL_OPS
    failures = [(name, err) for name, err, ok in results if not ok]
    assert not failures, f"finite-difference failures: {failures}"


def test_composite_chain():
    # a random composite of several ops, dims <= 8
    rng = np.random.default_rng(42)
    x = T.param(rng.standard_normal((4, 6)).astype(np.float32))
    w = T.param(rng.standard_normal((6, 6)).astype(np.float32))
    gain = T.param(np.ones(6, dtype=np.float32))
    mask = np.zeros((4, 4), dtype=np.float32)
    mask[:, 3] = T.NEG_MASK
    plan = attention_plan(np.arange(4)[None], mask)

    def fn():
        h = T.rms_norm(T.matmul(x, w), gain, eps=1e-5)
        p = T.attention(h, x, h, plan, 3)  # three heads of width 2
        return T.tsum(T.swiglu(h, T.gelu(p)))  # silu(h) * gelu(p)

    assert _check_projected(fn, [x, w, gain], np.ones((), dtype=np.float32)) <= 1e-3


def test_checker_catches_a_wrong_backward():
    # an op made for this test, forward 2·x but backward 3·g, must fail the
    # check; T.scale(x, 2.0), the right one, must pass it
    rng = np.random.default_rng(0)
    x = T.param(rng.standard_normal((3, 4)).astype(np.float32))
    r = rng.standard_normal((3, 4)).astype(np.float32)

    def wrong_double(a):
        def bwd(g):
            T._accum(a, 3.0 * g)

        return T._make(2.0 * a.data, (a,), bwd)

    assert _check_projected(lambda: wrong_double(x), [x], r) > TOL
    assert _check_projected(lambda: T.scale(x, 2.0), [x], r) <= TOL


def test_checker_compares_a_missing_gradient_as_zeros():
    # y never reaches the tape: unused, its zero gradient is right; read
    # by the forward but not recorded as an input, it is wrong
    rng = np.random.default_rng(1)
    x, y = (T.param(rng.standard_normal((2, 3)).astype(np.float32)) for _ in range(2))
    r = rng.standard_normal((2, 3)).astype(np.float32)
    assert _check_projected(lambda: T.scale(x, 2.0), [x, y], r) <= TOL
    assert y.grad is None

    def unrecorded_add():
        def bwd(g):
            T._accum(x, g)

        return T._make(x.data + y.data, (x,), bwd)

    assert _check_projected(unrecorded_add, [x, y], r) > TOL
    assert y.grad is None


def test_op_suite_covers_exactly_the_tape_ops():
    # a tape op is a public function of vora.tensor that records a node
    # through _make, or only through a private recorder (linear through
    # _linear_node); linear with an adapter pair is its own case, adapted_linear
    funcs = {name: fn for name, fn in vars(T).items() if inspect.isfunction(fn) and fn.__module__ == T.__name__}
    helpers = {name for name, fn in funcs.items() if name.startswith("_") and "_make" in fn.__code__.co_names}
    ops = {name for name, fn in funcs.items() if not name.startswith("_")
           and not {"_make", *helpers}.isdisjoint(fn.__code__.co_names)}
    # a private recorder is a form of the public ops that call it
    for helper in helpers:
        assert any(helper in getattr(T, op).__code__.co_names for op in ops), helper
    names = [name for name, _, _ in op_suite(seed=0, trials=1)]
    assert len(names) == len(set(names))
    assert set(names) == ops | {"adapted_linear"}


def test_every_tape_op_has_a_model_caller(monkeypatch):
    # the ops that record a node in a pretrain step (block_wise, on a
    # mixed-grid batch), a finetune step and a teacher warm-up step at the
    # nano config, keyed by the op whose closure the node holds
    recorded = set()
    make, linear = T._make, T.linear

    def spy_make(out_data, inputs, backward):
        out = make(out_data, inputs, backward)
        if out.requires_grad:
            op = backward.__qualname__.split(".")[0]
            if op == "_linear_node":  # a plain linear's node is keyed as the matmul that records it
                op = "adapted_linear" if len(inputs) == 4 else "matmul"
            recorded.add(op)
        return out

    def spy_linear(x, w, ab=None):
        out = linear(x, w, ab)
        if ab is None and out.requires_grad:  # a plain linear records a two-input _linear_node node
            recorded.add("linear")
        return out

    monkeypatch.setattr(T, "_make", spy_make)
    monkeypatch.setattr(T, "linear", spy_linear)
    cfg = nano_config()
    pipe = trainer.build_pipeline(cfg, seed=0)
    batch = D.pack_samples([D.gen_text_sample(0), D.gen_image_caption(0, (8, 12), patch=4),
                            D.gen_image_caption(1, (8, 8), patch=4)], cfg.patch, cfg.max_seq)
    trainer.train_loop(pipe, trainer.TrainConfig(total_steps=1, warmup_steps=0, distill_mode="block_wise"), [batch])
    trainer.merge(pipe)
    trainer.train_loop(pipe, trainer.TrainConfig(total_steps=1, warmup_steps=0, mode="finetune"), [batch])
    trainer.warm_teacher(pipe.teacher, cfg, steps=1, seed=0)
    # transpose has no model caller; it stays because perfbench's tracer patches it
    assert recorded | {"transpose"} == {name for name, _, _ in op_suite(seed=0, trials=1)}


def test_every_function_of_vora_has_a_caller():
    # every top-level function and method of src/vora (dunders aside) is
    # named outside its own body somewhere in src/vora, perfbench or tools:
    # as a name, an attribute or a string (perfbench's tracer names some
    # kernels by string). A function only the tests call belongs in them.
    root = Path(__file__).resolve().parent.parent
    defs, refs = [], defaultdict(list)
    for path in sorted(p for d in ("src/vora", "perfbench", "tools") for p in (root / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.parent.name == "vora":
            for node in tree.body:
                members = node.body if isinstance(node, ast.ClassDef) else [node]
                defs += [(path, fn) for fn in members if isinstance(fn, ast.FunctionDef)
                         and not (fn.name.startswith("__") and fn.name.endswith("__"))]
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None)
            if name is not None:
                refs[name].append((path, node.lineno))
    uncalled = [f"{path.stem}.{fn.name}" for path, fn in defs
                if all(where == path and fn.lineno <= line <= fn.end_lineno for where, line in refs[fn.name])]
    assert uncalled == []
