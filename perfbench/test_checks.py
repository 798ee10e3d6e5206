"""The benchmark's correctness checks accept real outputs and reject
planted bad ones.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from checks import (  # noqa: E402
    check_operator,
    check_program,
    roofline_bound_s,
)
from repro import CostModel, Gensor, rtx4090  # noqa: E402
from repro.models.bert import bert_small  # noqa: E402
from repro.serve.bench import bench_config  # noqa: E402
from repro.workloads.table4 import by_label  # noqa: E402


@pytest.fixture(scope="module")
def hw():
    return rtx4090()


@pytest.fixture(scope="module")
def compiled(hw):
    compute = by_label("M2").build()
    result = Gensor(hw, bench_config(0)).compile(compute)
    return compute, result


@pytest.fixture(scope="module")
def program(hw):
    graph = bert_small(batch=1, seq=32)
    return graph, Gensor(hw, bench_config(0)).compile_graph(graph, fusion=True)


def _operator_args(hw, compute, result, latency=None):
    model = CostModel(hw)
    seeds = [model.evaluate(s).latency_s for s in Gensor(hw).seed_states(compute)]
    lat = result.best_metrics.latency_s if latency is None else latency
    return (
        compute,
        hw,
        result.best,
        lat,
        model.evaluate(result.best).latency_s,
        seeds,
    )


def test_bound_is_max_of_compute_and_memory_terms(hw):
    compute = by_label("V1").build()  # a GEMV: memory-bound
    tensors = {a.tensor.name: a.tensor for a in compute.inputs}
    elems = sum(math.prod(t.shape) for t in tensors.values())
    elems += math.prod(compute.output.shape)
    # float32 elements over the RTX 4090's 1008 GB/s
    assert roofline_bound_s(compute, hw) == pytest.approx(elems * 4 / 1.008e12)


def test_operator_check_accepts_real_compile(hw, compiled):
    compute, result = compiled
    assert check_operator(*_operator_args(hw, compute, result)) == []


def test_operator_check_rejects_latency_below_physical_bound(hw, compiled):
    compute, result = compiled
    too_fast = roofline_bound_s(compute, hw) * 0.5
    problems = check_operator(*_operator_args(hw, compute, result, too_fast))
    assert any("below the physical bound" in p for p in problems)


def test_operator_check_rejects_latency_the_model_disagrees_with(hw, compiled):
    compute, result = compiled
    off = result.best_metrics.latency_s * 1.001
    problems = check_operator(*_operator_args(hw, compute, result, off))
    assert any("fresh cost model" in p for p in problems)


def test_program_check_accepts_real_program(hw, program):
    graph, prog = program
    assert check_program(graph, prog, hw) == []


def test_program_check_rejects_dropped_op(hw, program):
    graph, prog = program
    dropped = replace(prog, groups=prog.groups[:-1])
    problems = check_program(graph, dropped, hw)
    assert any("groups cover" in p for p in problems)


def test_program_check_rejects_repeated_op(hw, program):
    graph, prog = program
    repeated = replace(prog, groups=prog.groups + prog.groups[-1:])
    problems = check_program(graph, repeated, hw)
    assert any("groups cover" in p for p in problems)


def test_program_check_rejects_latency_that_is_not_the_group_sum(hw, program):
    graph, prog = program
    planted = SimpleNamespace(
        groups=prog.groups,
        num_kernels=prog.num_kernels,
        num_fused_ops=prog.num_fused_ops,
        latency_s=prog.latency_s * 0.9,
    )
    problems = check_program(graph, planted, hw)
    assert any("groups sum" in p for p in problems)


def test_program_check_rejects_kernel_below_compute_bound(hw, program):
    graph, prog = program
    impossible = replace(prog.groups[0], kernel_latency_s=1e-12)
    problems = check_program(
        graph, replace(prog, groups=[impossible] + prog.groups[1:]), hw
    )
    assert any("below its compute bound" in p for p in problems)
