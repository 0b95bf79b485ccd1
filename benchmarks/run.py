"""machina benchmark: one seeded workload, measured in a closed loop.

Usage (from the repository root):

    python3 benchmarks/run.py --workload split_merge --seed 1 --seconds 40 --trace 0

One caller in this process cycles through the workload's op list for
``--seconds`` (the first pass always completes); the next op starts when
the previous one returns.  There are no queues, so there is no waiting
time to report.  Every op's result is checked outside the timed region;
an op that raises or fails its check counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``batch_s``: the op list's time to solution, the sum over its ops of each
  op's median latency over its executions;
- ``op_p50_ms`` / ``op_p90_ms``: quantiles of the ops' median latencies;
  every op list holds at least 100 ops, so ten or more lie beyond the 90th;
- ``setup_s``: median time from starting a fresh interpreter to
  ``import machina`` returning, over several child processes;
- ``peak_rss_mb``: how far the ops raise this process's peak resident
  memory: the peak at the end minus the peak just before the first op, so
  the interpreter, numpy and the generated inputs do not count.

The three latency metrics are scaled to a nominal host speed: between ops,
a few times a second, the loop times a fixed reference kernel
(``reference.py``), and every latency is multiplied by the kernel's
nominal time over its median time in the run.  The unscaled figures are
printed on a line of their own.

With ``--trace 1`` passes alternate untraced and traced; the traced passes
record one span per public call the benchmark makes and give the per-layer
metrics, normalised to one pass over the op list.  Spans are written to
``.bench_out/`` at the end.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import itertools
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 11
WARMUP_S = 1.0
REFERENCE_EVERY_S = 0.25

LAYERS = ("distributions", "hmm", "minimize", "quantum", "qubit_family", "catalog")
FUNCTIONS = (
    "hmm.parse_model",
    "hmm.serialize_model",
    "hmm.stationary",
    "hmm.word_distribution",
    "minimize.refine_partition",
    "minimize.merge",
    "minimize.strong_minimality_report",
    "distributions.compare",
    "distributions.renyi_entropy",
    "distributions.lorenz_curve",
    "distributions.transfer_chain",
    "distributions.replay_chain",
    "distributions.chain_to_doubly_stochastic",
    "distributions.pad_to",
    "quantum.build_qmachine",
    "quantum.strong_advantage_report",
    "quantum.quantum_word_distribution",
    "quantum.serialize_quantum_model",
    "quantum.parse_quantum_model",
    "quantum.classical_equivalent",
    "quantum.memory_spectrum",
    "qubit_family.counterexample_report",
    "catalog.get_process",
)
WORK_COUNTS = (
    "hmm.stationary.states",
    "hmm.word_distribution.words",
    "minimize.merge.states_in",
    "minimize.merge.states_out",
    "quantum.build_qmachine.dim",
    "quantum.build_qmachine.gram_iterations",
    "quantum.build_qmachine.gram_missing",
    "qubit_family.counterexample_report.thetas",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    names = []
    for fn in FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.busy_ms", "ms")]
    for layer in LAYERS:
        names += [(f"{layer}.busy_ms", "ms"), (f"{layer}.share", "1"), (f"{layer}.errors", "count")]
    names += [(name, "count") for name in WORK_COUNTS]
    names += [("bench.glue_ms", "ms"), ("bench.trace_overhead_ms", "ms")]
    return names


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")
        dep = info["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
    }


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median seconds from spawning an interpreter to ``import machina`` returning.

    The child prints CLOCK_MONOTONIC right after the import; on Linux that
    clock is shared between processes, so the difference is the start-up.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import machina, time; print(time.monotonic())"
    times = []
    for _ in range(samples):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        times.append(float(out.stdout.strip()) - t0)
    return statistics.median(times)


class GramLog(logging.Handler):
    """Collects the overlap iteration counts that ``machina.quantum`` logs."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records: list[tuple[float, int]] = []

    def emit(self, record):
        if str(record.msg).startswith("overlap recursion converged") and record.args:
            self.records.append((time.perf_counter(), int(record.args[0])))

    def counts(self, span) -> dict:
        """The count logged inside ``span``, or one missing record."""
        found = [n for t, n in self.records if span.start <= t <= span.end]
        self.records.clear()
        return {"gram_iterations": found[-1]} if found else {"gram_missing": 1}


def make_counters(gram_log: GramLog) -> dict:
    """Work counts read from each call's span, arguments and result."""
    return {
        "hmm.stationary": lambda span, args, r: {"states": len(r)},
        "hmm.word_distribution": lambda span, args, r: {"words": len(r)},
        "minimize.merge": lambda span, args, r: {"states_in": len(args[0].states),
                                                 "states_out": len(r.states)},
        "quantum.build_qmachine": lambda span, args, r: {"dim": r.dim, **gram_log.counts(span)},
        "qubit_family.counterexample_report":
            lambda span, args, r: {"thetas": len(r.sweep.thetas)},
    }


def run_op(op, tracer, index):
    """Time one op, then check its result; returns (seconds, ok).

    An op that raises, or whose result fails its check, is reported on
    stderr and counted as failed; the loop goes on.
    """
    span = tracer.begin("op", op=index) if tracer.enabled else None
    t0 = time.perf_counter()
    try:
        result, error = op.run(tracer), None
    except Exception as exc:
        result, error = None, exc
    elapsed = time.perf_counter() - t0
    if span is not None:
        tracer.end(span, error=error is not None)
    if error is None:
        try:
            op.check(result)
        except Exception as exc:
            error = exc
    if error is not None:
        print(f"op {op.name} failed: {type(error).__name__}: {error}", file=sys.stderr)
    return elapsed, error is None


def run_loop(ops, seconds: float, tracers, reference=None):
    """Cycle through ``ops`` until ``seconds`` have passed.

    Round r runs under ``tracers[r % len(tracers)]``, and the first
    ``len(tracers)`` rounds always complete, so every op has a sample under
    every tracer.  With a ``reference``, one kernel sample is taken before
    the first op and then between ops whenever ``REFERENCE_EVERY_S`` have
    passed since the last.  Returns, per op, a list of (tracer, seconds, ok).
    """
    samples = [[] for _ in ops]
    start = time.perf_counter()
    last_reference = -float("inf")
    for r in itertools.count():
        tracer = tracers[r % len(tracers)]
        for i, op in enumerate(ops):
            now = time.perf_counter()
            if r >= len(tracers) and now - start >= seconds:
                return samples
            if reference is not None and now - last_reference >= REFERENCE_EVERY_S:
                reference.sample()
                last_reference = time.perf_counter()
            samples[i].append((tracer, *run_op(op, tracer, i)))


def quantile(values, q: float) -> float:
    """The q-quantile by ``statistics.quantiles`` (exclusive method)."""
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def latencies(samples, scale: float) -> dict:
    """batch_s, op_p50_ms and op_p90_ms from each op's median latency."""
    typical = [statistics.median(t for _, t, _ in rows) * scale for rows in samples]
    return {
        "batch_s": (sum(typical), "s"),
        "op_p50_ms": (quantile(typical, 0.5) * 1e3, "ms"),
        "op_p90_ms": (quantile(typical, 0.9) * 1e3, "ms"),
    }


def end_to_end(samples, scale: float, setup_s: float, base_rss_kib: int) -> dict:
    rss_kib = peak_rss_kib() - base_rss_kib
    return {
        **latencies(samples, scale),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def per_layer(samples, traced) -> dict:
    """Per-layer metrics for one pass over the op list.

    Each op contributes the mean over its traced executions, so a partly
    finished last round weighs no op twice.
    """
    from tracing import self_times

    runs = [sum(1 for tracer, _, _ in rows if tracer is traced) for rows in samples]
    sums: dict[str, float] = {}

    def add(key, value, op):
        sums[key] = sums.get(key, 0.0) + value / runs[op]

    for span, own in zip(traced.spans, self_times(traced.spans)):
        if span.name == "op":
            add("op_s", span.duration, span.op)
            add("glue_s", own, span.op)
            continue
        if span.name not in FUNCTIONS:
            raise RuntimeError(f"span {span.name!r} has no per-layer metric")
        layer = span.name.split(".")[0]
        add(f"{span.name}.calls", 1, span.op)
        add(f"{span.name}.busy_s", own, span.op)
        add(f"{layer}.busy_s", own, span.op)
        add(f"{layer}.errors", span.error, span.op)
        for key, value in span.counts.items():
            add(f"{span.name}.{key}", value, span.op)
    overhead = sum(
        statistics.median(t for tracer, t, _ in rows if tracer is traced)
        - statistics.median(t for tracer, t, _ in rows if tracer is not traced)
        for rows in samples
    )
    out = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = sums.get(f"{fn}.calls", 0.0)
        out[f"{fn}.busy_ms"] = sums.get(f"{fn}.busy_s", 0.0) * 1e3
    for layer in LAYERS:
        out[f"{layer}.busy_ms"] = sums.get(f"{layer}.busy_s", 0.0) * 1e3
        out[f"{layer}.share"] = sums.get(f"{layer}.busy_s", 0.0) / sums["op_s"]
        out[f"{layer}.errors"] = sums.get(f"{layer}.errors", 0.0)
    for name in WORK_COUNTS:
        out[name] = sums.get(name, 0.0)
    out["bench.glue_ms"] = sums["glue_s"] * 1e3
    out["bench.trace_overhead_ms"] = overhead * 1e3
    units = dict(per_layer_names())
    return {name: (value, units[name]) for name, value in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "machina" / "__init__.py").is_file():
        print(f"error: no machina sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from reference import NOMINAL_S, Reference
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    setup_s = measure_setup() if args.trace == 0 else None
    ops = WORKLOADS[args.workload](args.seed)
    env = environment()

    reference = Reference()
    reference.sample()
    base_rss_kib = peak_rss_kib()
    plain = Tracer(enabled=False)
    warm_end = time.perf_counter() + WARMUP_S
    for i, op in enumerate(ops):
        run_op(op, plain, i)
        if time.perf_counter() > warm_end:
            break

    tracers = [plain]
    if args.trace:
        gram_log = GramLog()
        quantum_log = logging.getLogger("machina.quantum")
        quantum_log.addHandler(gram_log)
        quantum_log.setLevel(logging.DEBUG)
        tracers.append(Tracer(enabled=True, counters=make_counters(gram_log)))
    reference.samples.clear()
    samples = run_loop(ops, args.seconds, tracers, None if args.trace else reference)

    attempted = sum(len(rows) for rows in samples)
    failed = sum(not ok for rows in samples for _, _, ok in rows)
    if args.trace:
        metrics = per_layer(samples, tracers[1])
        OUT_DIR.mkdir(exist_ok=True)
        tracers[1].dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(samples, reference.scale(), setup_s, base_rss_kib)
        unscaled = latencies(samples, 1.0)

    print(f"env: {json.dumps(env)}")
    print(f"load: closed loop, 1 caller, no queues, so no waiting-time metric; "
          f"{len(ops)} distinct ops, {attempted} executed")
    print(f"fail_ratio: {failed / attempted:.6g} (1) = {failed}/{attempted}")
    if not args.trace:
        print(f"reference kernel: median {reference.median_s() * 1e3:.4g} ms over "
              f"{len(reference.samples)} samples, nominal {NOMINAL_S * 1e3:.4g} ms, "
              f"scale {reference.scale():.4g}; unscaled: "
              + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in unscaled.items()))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
