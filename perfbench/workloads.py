"""The benchmark workloads.

Each workload is a class with a ``setup`` that builds the inputs and a
``run_round`` that does one round of fixed work: the same operations in
the same order every round, so a run's mix never depends on how fast the
host was.  Rounds differ only in the compiler seed (:func:`round_seed`).
``repro`` only ever sees the inputs generated here from the seed.

A compile sample is timed between two runs of a reference loop
(:func:`reference.reference_times`); the ratio of its CPU time to the
loop's mean CPU time is what the ``compile_ref`` metric averages.  Before
every compile sample the process memo is reset and garbage is collected,
so no sample starts warmer than another.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from checks import check_operator, check_program
from reference import reference_times
from repro import CostModel, Gensor, GensorConfig, orin_nano, rtx4090
from repro.models.bert import bert_small
from repro.models.gpt2 import gpt2
from repro.obs.metrics import get_registry
from repro.perf.memo import reset_memo
from repro.workloads.table4 import TABLE4_CONFIGS

__all__ = ["WORKLOADS", "Outcome"]

DEVICES = {"rtx4090": rtx4090, "orin_nano": orin_nano}

#: whole-model programs: (factory, batch, sequence length).
PROGRAMS = ((bert_small, 1, 128), (bert_small, 8, 256), (gpt2, 1, 512))


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: (wall seconds, reference wall seconds, CPU seconds, reference CPU
    #: seconds) per compile sample.
    samples: list = field(default_factory=list)
    #: simulated run time of the generated code, per operator (device,
    #: shape) or program and compiler seed.
    code_latency_s: dict = field(default_factory=dict)
    #: raw wall seconds per operator or program (a reference figure).
    raw_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: deterministic outputs the trace-invariance check compares.
    outputs: list = field(default_factory=list)
    #: per-layer figures gathered from the program's own counters.
    layer: dict = field(default_factory=dict)

    def fail(self, problems) -> None:
        self.failed += 1
        self.problems.extend(problems)


def round_seed(seed: int, round_index: int) -> int:
    """The compiler seed of one round of a run.

    Each round walks with its own seed, so a run of several rounds
    averages over several walks of each item instead of repeating one: a
    seed's walks can do several percent more work than another's (on
    ``model-programs`` with one seed for every round, seeds 102 and 106
    read 8% and 6% higher on ``compile_ref`` than seeds 101, 103, 104 and
    105, which agreed within 0.3%).
    """
    return random.Random(f"{seed}/{round_index}").getrandbits(32)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


@contextmanager
def _paused(tracer):
    """Checks run with the wrappers removed, so they add no spans."""
    if tracer is None:
        yield
        return
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()


def _bracketed(compile_fn):
    """Run ``compile_fn`` between two reference-loop timings.

    Returns its result and one compile sample: (wall seconds, mean
    reference wall seconds, CPU seconds, mean reference CPU seconds).  A
    loop on each side covers a change of the host's speed during the
    sample.  Over eight ``model-programs`` processes on one seed, it cut
    the run-level ratio's interquartile spread from 7.9% to 4.2% with an
    earlier, smaller loop; with the present loop the spread was 1.4%
    either way.
    """
    gc.collect()
    before = reference_times()
    t0 = time.perf_counter()
    c0 = time.process_time()
    result = compile_fn()
    cpu = time.process_time() - c0
    wall = time.perf_counter() - t0
    after = reference_times()
    ref_wall = (before[0] + after[0]) / 2
    return result, (wall, ref_wall, cpu, (before[1] + after[1]) / 2)


def _memo_counts() -> tuple[float, float]:
    registry = get_registry()
    return (
        registry.total("perf_memo_hits_total"),
        registry.total("perf_memo_misses_total"),
    )


def _record_memo(outcome: Outcome, before: tuple[float, float]) -> None:
    hits, misses = _memo_counts()
    layer = outcome.layer
    layer["perf.memo.hits"] = layer.get("perf.memo.hits", 0) + hits - before[0]
    layer["perf.memo.misses"] = (
        layer.get("perf.memo.misses", 0) + misses - before[1]
    )


# -- ops-cold ----------------------------------------------------------------


class OpsCold:
    """Table IV's 32 operators on both devices, one cold compile each."""

    name = "ops-cold"
    #: nominal seconds of one round, used to turn --seconds into rounds.
    round_s = 25.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        items = [
            (device, cfg) for device in DEVICES for cfg in TABLE4_CONFIGS
        ]
        random.Random(self.seed).shuffle(items)
        return items

    def run_round(self, items, outcome: Outcome, tracer, round_index: int) -> None:
        seed = round_seed(self.seed, round_index)
        config = GensorConfig(seed=seed)
        before = _memo_counts()
        for device, cfg in items:
            # Fresh spec and operator objects: the walk core caches packed
            # arrays on both, and a reused one would start warm.
            hw = DEVICES[device]()
            compute = cfg.build()
            reset_memo()
            outcome.attempted += 1

            def compile_fn():
                with _span(tracer, "bench.compile"):
                    return Gensor(hw, config).compile(compute)

            try:
                result, sample = _bracketed(compile_fn)
            except Exception as exc:  # counted, reported, never fatal
                outcome.fail([f"{device}/{cfg.label}: {type(exc).__name__}: {exc}"])
                continue
            with _paused(tracer):
                model = CostModel(hw)  # memo-free
                seeds = [
                    model.evaluate(s).latency_s
                    for s in Gensor(hw).seed_states(compute)
                ]
                problems = check_operator(
                    compute,
                    hw,
                    result.best,
                    result.best_metrics.latency_s,
                    model.evaluate(result.best).latency_s,
                    seeds,
                )
            if problems:
                outcome.fail(problems)
                continue
            outcome.samples.append(sample)
            outcome.raw_s.append(sample[0])
            outcome.code_latency_s[device, cfg.label, seed] = (
                result.best_metrics.latency_s
            )
            best = result.best
            outcome.outputs.append(
                (
                    device,
                    cfg.label,
                    best.config.tiles,
                    best.config.vthreads,
                    best.cur_level,
                    result.best_metrics.latency_s,
                )
            )
        _record_memo(outcome, before)


# -- model-programs ----------------------------------------------------------


class _TimedGensor(Gensor):
    """Times each fusion group's compile between reference loops."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.samples: list[tuple] = []

    def compile(self, compute, *args, **kwargs):
        result, sample = _bracketed(
            lambda: super(_TimedGensor, self).compile(compute, *args, **kwargs)
        )
        self.samples.append(sample)
        return result


class ModelPrograms:
    """BERT-small (two shapes) and GPT-2 compiled as fused programs."""

    name = "model-programs"
    round_s = 7.5

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        return [factory(batch=batch, seq=seq) for factory, batch, seq in PROGRAMS]

    def run_round(self, graphs, outcome: Outcome, tracer, round_index: int) -> None:
        seed = round_seed(self.seed, round_index)
        config = GensorConfig(seed=seed)
        before = _memo_counts()
        for graph in graphs:
            hw = rtx4090()
            reset_memo()
            gensor = _TimedGensor(hw, config)
            outcome.attempted += 1
            try:
                with _span(tracer, "bench.program"):
                    program = gensor.compile_graph(graph, fusion=True)
            except Exception as exc:  # counted, reported, never fatal
                outcome.fail([f"{graph.name}: {type(exc).__name__}: {exc}"])
                continue
            with _paused(tracer):
                problems = check_program(graph, program, hw)
            if problems:
                outcome.fail(problems)
                continue
            outcome.samples.extend(gensor.samples)
            outcome.raw_s.append(sum(sample[0] for sample in gensor.samples))
            outcome.code_latency_s[graph.name, graph.batch, seed] = program.latency_s
            outcome.outputs.append(
                (
                    graph.name,
                    graph.batch,
                    program.latency_s,
                    tuple((g.best_config, g.fused) for g in program.groups),
                )
            )
        _record_memo(outcome, before)


WORKLOADS = {cls.name: cls for cls in (OpsCold, ModelPrograms)}
