"""Tests of the benchmark's own code: generator, failure counting, tracing.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import machina as M  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gen import lift, minimal_machine  # noqa: E402
from machina.catalog import get_process, mbw3  # noqa: E402
from machina.errors import CompletenessViolationError  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def _draw(seed: int) -> tuple[str, str]:
    rng = np.random.default_rng(seed)
    base = minimal_machine(rng, 30, 3)
    return base.to_text(), lift(rng, base, 3).to_text()


def test_generator_is_deterministic_per_seed():
    assert _draw(5) == _draw(5)
    assert _draw(5) != _draw(6)
    for build in workloads.WORKLOADS.values():
        names = [op.name for op in build(4)]
        assert names == [op.name for op in build(4)]
        assert len(names) >= 100  # ten or more ops beyond op_p90_ms


@pytest.mark.parametrize(
    "n,k,spread,support,copies",
    [(12, 2, 0.8, None, 2), (25, 4, 0.8, None, 3), (20, 2, 0.04, None, 2), (30, 4, 0.8, 2, 2)],
)
def test_lift_merges_back_to_the_generated_machine(n, k, spread, support, copies):
    rng = np.random.default_rng(n)
    base = minimal_machine(rng, n, k, spread, support)
    if support is not None:
        assert len(base.trans) == n * support
    minimal = M.parse_model(base.to_text())
    assert M.is_epsilon_machine(minimal)
    lifted = M.parse_model(lift(rng, base, copies).to_text())
    assert len(lifted.states) == copies * n
    merged = M.merge(lifted)
    assert len(merged.states) == n
    assert M.compare(M.stationary(merged), M.stationary(lifted)) in workloads.GOOD


@pytest.mark.xfail(
    raises=CompletenessViolationError,
    strict=True,
    reason="known defect: the overlap fixed point is not accurate enough for "
    "near-uniform three-symbol machines, so the Kraus operators miss the "
    "completeness tolerance (residual 1.32e-9 here)",
)
def test_near_uniform_machine_builds():
    """qsynth family (b) uses a 10% spread because of this defect.

    At 4% about 1 machine in 200 of the family's schedule fails the same
    way.  When this test starts to pass, move family (b) to 4%.
    """
    spec = minimal_machine(np.random.default_rng(11), 25, 3, 0.04)
    M.build_qmachine(M.parse_model(spec.to_text()))


def test_generator_scales_past_the_random_models_name_pool():
    text = minimal_machine(np.random.default_rng(0), 300, 5).to_text()
    model = M.parse_model(text)
    assert len(model.states) == 300 and len(model.alphabet) == 5


def _split_op(n_claimed: int):
    rng = np.random.default_rng(1)
    text = lift(rng, minimal_machine(rng, 10, 2), 2).to_text()
    return workloads._split_merge_op(text, n_claimed)


def test_wrong_result_counts_as_failure_not_crash(capsys):
    plain = Tracer(enabled=False)
    _, ok = run.run_op(_split_op(10), plain, 0)
    assert ok
    _, ok = run.run_op(_split_op(11), plain, 0)
    assert not ok
    assert "want 11" in capsys.readouterr().err


def test_raising_op_counts_as_failure():
    def boom(tr):
        return tr.call(M.parse_model, "model: classical\nstates: A\n")

    op = workloads.Op("boom", boom, lambda result: None)
    tracer = Tracer(enabled=True)
    _, ok = run.run_op(op, tracer, 0)
    assert not ok
    assert [s.name for s in tracer.spans] == ["op", "hmm.parse_model"]
    assert all(s.error for s in tracer.spans)


def test_loop_counts_every_attempt_and_failure():
    ops = [_split_op(10), _split_op(9)]
    samples = run.run_loop(ops, 0.0, [Tracer(enabled=False)])
    assert [len(rows) for rows in samples] == [1, 1]
    assert [ok for rows in samples for _, _, ok in rows] == [True, False]


def test_loop_samples_the_reference_kernel_between_ops():
    class Counting:
        samples = []

        def sample(self):
            self.samples.append(0.0)

    reference = Counting()
    run.run_loop([_split_op(10)], 0.0, [Tracer(enabled=False)], reference)
    assert len(reference.samples) == 1


def test_reference_scale_is_nominal_over_median():
    reference = Reference()
    reference.samples[:] = [0.010, 0.030, 0.020]
    assert reference.scale() == pytest.approx(NOMINAL_S / 0.020)
    reference.sample()
    assert len(reference.samples) == 4 and reference.samples[-1] > 0


def test_latencies_take_each_ops_median_times_the_scale():
    rows = [[(None, t, True) for t in (0.3, 0.1, 0.2)]] * 50 + [[(None, 1.0, True)]] * 50
    metrics = run.latencies(rows, 0.5)
    assert metrics["batch_s"][0] == pytest.approx(0.5 * (50 * 0.2 + 50 * 1.0))
    assert metrics["op_p50_ms"][0] == pytest.approx(0.5 * 600.0)
    assert metrics["op_p90_ms"][0] == pytest.approx(500.0)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("op", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 6.5, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("a.inner.leaf", 2.5, 2.75, parent=3),
    ]
    # op: 10 - 3 - 1.5; a: 3 - 1; a.inner: 1 - 0.25
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.5, 0.75, 0.25])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_tracer_nests_calls_under_the_open_op():
    counters = {"hmm.stationary": lambda span, args, r: {"states": len(r)}}
    tracer = Tracer(enabled=True, counters=counters)
    op = tracer.begin("op", op=7)
    pi = tracer.call(M.stationary, mbw3())
    tracer.end(op)
    assert len(pi) == 3
    root, child = tracer.spans
    assert (child.name, child.parent, child.op) == ("hmm.stationary", 0, 7)
    assert child.counts == {"states": 3}
    assert root.start <= child.start <= child.end <= root.end


def test_gram_iterations_come_from_the_build_span_or_are_missing():
    log = run.GramLog()
    quantum_log = logging.getLogger("machina.quantum")
    quantum_log.addHandler(log)
    quantum_log.setLevel(logging.DEBUG)
    try:
        get_process("q3")  # builds and logs outside any traced call
        assert log.counts(Span("quantum.build_qmachine", 0.0, 1e-9)) == {"gram_missing": 1}
        get_process("q4")
        tracer = Tracer(enabled=True, counters=run.make_counters(log))
        tracer.call(M.build_qmachine, mbw3())
    finally:
        quantum_log.removeHandler(log)
        quantum_log.setLevel(logging.NOTSET)
    counts = tracer.spans[0].counts
    assert set(counts) == {"dim", "gram_iterations"}
    assert counts["dim"] >= 2 and counts["gram_iterations"] > 0


def test_traced_pass_emits_every_per_layer_metric():
    ops = workloads.paper_catalog(2)[3:8]
    plain, traced = Tracer(enabled=False), Tracer(enabled=True, counters=run.make_counters(run.GramLog()))
    samples = run.run_loop(ops, 0.0, [plain, traced])
    metrics = run.per_layer(samples, traced)
    assert list(metrics) == [name for name, _ in run.per_layer_names()]
    assert metrics["quantum.quantum_word_distribution.calls"][0] == 4
    assert metrics["catalog.get_process.calls"][0] == 6
    assert metrics["hmm.word_distribution.words"][0] > 0
    busy = sum(metrics[f"{layer}.busy_ms"][0] for layer in run.LAYERS)
    op_ms = sum(metrics[f"{layer}.busy_ms"][0] for layer in run.LAYERS) + metrics["bench.glue_ms"][0]
    assert sum(metrics[f"{layer}.share"][0] for layer in run.LAYERS) == pytest.approx(busy / op_ms)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in run.per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"batch_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}
