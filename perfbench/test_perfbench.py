"""Tests of the benchmark's own helpers: the percentile rule, self time with
nested spans, the tracer's patching, and seeded input generation."""

import numpy as np
import pytest

import benchenv
import stats
import tracing
import workloads

vora = benchenv.import_vora()


@pytest.mark.parametrize("n, expected", [
    (19, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 101))
    s = stats.summarize(values)
    assert s["n"] == 100 and s["p50"] == 50.5 and s["tail_pct"] == 90.0
    assert s["tail"] == pytest.approx(np.percentile(values, 90))
    assert stats.summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0, "tail_pct": None, "tail": None}


def _spans(rows):
    """rows: (name, start, end, parent, op)."""
    names = sorted({r[0] for r in rows})
    return {"names": names, "name_id": [names.index(r[0]) for r in rows],
            "start": [r[1] for r in rows], "end": [r[2] for r in rows],
            "parent": [r[3] for r in rows], "op": [r[4] for r in rows]}


def test_self_time_subtracts_only_direct_children():
    spans = _spans([
        ("outer", 0.0, 10.0, -1, 0),
        ("mid", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("mid", 5.0, 7.0, 0, 0),
        ("outer", 20.0, 21.0, -1, 1),
    ])
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    table, covered = tracing.layer_table(spans, [0])
    assert table["outer"] == (5.0, 10.0, 1)
    assert table["mid"] == (4.0, 5.0, 2)
    assert table["leaf"] == (1.0, 1.0, 1)
    assert covered == {0: 10.0}
    assert sum(row[0] for row in table.values()) == covered[0]
    _, unit_s, remainder_s = tracing.unit_summary(spans, {0: 12.0})
    assert (unit_s, remainder_s) == (12.0, 2.0)
    with pytest.raises(ValueError):
        tracing.unit_summary(spans, {0: 9.0})  # the outer span does not fit its unit


def test_tracer_records_nested_spans_and_restores_originals():
    T = vora.tensor
    original = T.__dict__["matmul"], vora.model.Model.__dict__["forward"]
    tracer = tracing.Tracer(vora)
    cfg = vora.model.ModelConfig(n_llm=2, n_vit=1, d_model=16, d_vit=8, n_heads=2, d_ff=32)
    model = vora.model.Model.init(cfg, seed=0)
    emb = T.constant(np.zeros((2, 5, 16), dtype=np.float32))
    tracer.current_op = 7
    tracer.install()
    try:
        model.forward(emb, np.zeros((5, 5), dtype=np.float32), collect_taps=False)
    finally:
        tracer.uninstall()
    assert (T.__dict__["matmul"], vora.model.Model.__dict__["forward"]) == original
    spans = tracer.spans()
    table, covered = tracing.layer_table(spans, [7])
    forward = table["model.forward"]
    assert forward[2] == 1 and covered[7] == pytest.approx(forward[1])
    assert sum(row[0] for row in table.values()) == pytest.approx(forward[1])
    counts = tracer.counters([7])
    # per block: q, k, v, o, gate, up, down, scores, context; plus the head
    assert counts["tensor.matmul.calls"] == 2 * 9 + 1
    assert counts["model.forward.positions"] == 10
    assert counts["tensor.matmul.gflop"] > 0


def test_seed_changes_inputs_and_repeats_them():
    def fingerprint(inp):
        return ([b.tokens.tobytes() for b in inp.heldout], inp.probe.tokens.tobytes(),
                {n: a.tobytes() for n, a in inp.ckpt.items()}, inp.tcfg.seed)

    a = workloads.make_inputs(vora, "eval-decode", 1)
    b = workloads.make_inputs(vora, "eval-decode", 2)
    again = workloads.make_inputs(vora, "eval-decode", 1)
    fa, fb = fingerprint(a), fingerprint(b)
    assert fa == fingerprint(again)
    for part_a, part_b in zip(fa, fb):
        assert part_a != part_b
    assert any(np.any(t) for n, t in a.ckpt.items() if n.startswith("lora.") and n.endswith(".b"))
