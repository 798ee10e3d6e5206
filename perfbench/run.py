"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout (``repro`` need not be installed)::

    python3 perfbench/run.py --workload ops-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice, untraced and then with every layer boundary wrapped, each
pass half the rounds (rounded up), checks that both passes produced the
same outputs, writes the spans under
``.perfbench/`` and prints every per-layer metric.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The lines above it are a readable table, with reference
figures that are not metrics (raw set-up and compile wall times).

``--seconds`` sets the amount of work, not a deadline: a run does
``max(1, round(seconds / nominal round seconds))`` whole rounds of its
workload, so two runs with the same flags do exactly the same work.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up samples per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "compile_ref": "x",
    "code_latency_us": "us",
    "peak_rss_mb": "MB",
}


def _setup_sample(workload):
    """One set-up sample: a fresh interpreter starts, imports the benchmark
    with ``repro`` behind it and exits, then the workload builds its inputs
    in this process.  Returns (their CPU seconds over those of the startup
    reference run just before, import wall seconds, input wall seconds,
    the inputs)."""
    from reference import children_cpu_seconds, startup_reference_cpu

    ref_cpu = startup_reference_cpu()
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    cpu0 = children_cpu_seconds()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    t1 = time.perf_counter()
    import_cpu = children_cpu_seconds() - cpu0
    c0 = time.process_time()
    state = workload.setup()
    inputs_cpu = time.process_time() - c0
    t2 = time.perf_counter()
    return (import_cpu + inputs_cpu) / ref_cpu, t1 - t0, t2 - t1, state


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _geomean(values) -> float:
    """Geometric mean; 0.0 when every operation failed (``correct`` is
    then false, so the figure is never read as a result)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _run_pass(workload, state, rounds: int, tracer):
    """``rounds`` rounds; the first on ``state``, later ones set up afresh."""
    from workloads import Outcome

    outcome = Outcome()
    for i in range(rounds):
        workload.run_round(state if i == 0 else workload.setup(), outcome, tracer, i)
    return outcome


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(outcome, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "compile_ref": _geomean(s[2] / s[3] for s in outcome.samples),
        "code_latency_us": _geomean(outcome.code_latency_s.values()) * 1e6,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _reference_lines(outcome, setup_walls) -> list[str]:
    refs = [s[1] for s in outcome.samples] or [0.0]
    lines = [
        "compile_ref by wall time (a reference figure): "
        f"{_geomean(s[0] / s[1] for s in outcome.samples):.5f}",
        f"reference loop around each sample: median {statistics.median(refs) * 1e3:.3f} "
        f"ms over {len(refs)} samples, min {min(refs) * 1e3:.3f}, "
        f"max {max(refs) * 1e3:.3f}",
        "raw set-up (not a metric: host noise): import "
        f"{statistics.median(setup_walls[0]):.3f} s, inputs "
        f"{statistics.median(setup_walls[1]) * 1e3:.3f} ms (wall medians)",
    ]
    if outcome.raw_s:
        lines.append(
            f"raw compile: geomean {_geomean(outcome.raw_s) * 1e3:.2f} ms over "
            f"{len(outcome.raw_s)} (compile_ms, not a metric: host noise)"
        )
    return lines


def _per_layer(tracer, outcome) -> dict[str, float]:
    from spans import PER_LAYER_METRICS

    measured = tracer.layer_metrics()
    measured.update(outcome.layer)
    hits = measured.get("perf.memo.hits", 0.0)
    misses = measured.get("perf.memo.misses", 0.0)
    measured["perf.memo.lookups"] = hits + misses
    measured["perf.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return {name: float(measured.get(name, 0.0)) for name in PER_LAYER_METRICS}


def _print_result(correct, attempted, failed, metrics, units) -> None:
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from reference import STARTUP_SECONDS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choices: "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    rounds = max(1, round(args.seconds / workload.round_s))

    if not args.trace:
        setups = [_setup_sample(workload) for _ in range(SETUP_REPEATS)]
        setup_s = STARTUP_SECONDS * statistics.median(s[0] for s in setups)
        setup_walls = ([s[1] for s in setups], [s[2] for s in setups])
        state = setups[-1][3]
        outcome = _run_pass(workload, state, rounds, None)
        metrics = _end_to_end(outcome, setup_s)
        print(
            f"{args.workload} seed {args.seed}: {rounds} round(s), "
            f"{outcome.attempted} operations, {outcome.failed} failed"
        )
        for line in _reference_lines(outcome, setup_walls):
            print(line)
        for name, value in metrics.items():
            print(f"  {name:<18} {value:12.4f} {END_TO_END[name]}")
        for problem in outcome.problems[:20]:
            print(f"FAILED: {problem}")
        _print_result(
            not outcome.problems, outcome.attempted, outcome.failed, metrics,
            END_TO_END,
        )
        return 0

    from spans import PER_LAYER_METRICS, LayerTracer

    # Two passes, untraced and traced, of half the rounds each keep the
    # traced run about as long as an untraced one.
    rounds = (rounds + 1) // 2
    plain = _run_pass(workload, workload.setup(), rounds, None)
    tracer = LayerTracer().install()
    try:
        traced = _run_pass(workload, workload.setup(), rounds, tracer)
        metrics = _per_layer(tracer, traced)
    finally:
        tracer.uninstall()
    problems = plain.problems + traced.problems
    plain_outputs, traced_outputs = plain.outputs, traced.outputs
    if plain_outputs != traced_outputs:
        diffs = sum(1 for a, b in zip(plain_outputs, traced_outputs) if a != b)
        problems.append(
            f"trace invariance: {diffs} of {len(plain_outputs)} outputs differ "
            "between the untraced and the traced pass"
        )
    out_dir = Path(".perfbench")
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    count = tracer.write(span_path)
    untraced = _geomean(s[2] / s[3] for s in plain.samples)
    traced_ref = _geomean(s[2] / s[3] for s in traced.samples)
    overhead = (traced_ref / untraced - 1.0) * 100 if untraced else 0.0
    print(
        f"{args.workload} seed {args.seed} traced: {count} spans -> {span_path}; "
        f"{len(plain_outputs)} outputs compared; tracing overhead "
        f"{overhead:+.1f}% on compile_ref ({untraced:.3f} -> {traced_ref:.3f})"
    )
    for name, value in metrics.items():
        print(f"  {name:<40} {value:14.3f} {PER_LAYER_METRICS[name]}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    _print_result(
        not problems,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        metrics,
        PER_LAYER_METRICS,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
