"""Correctness checks, computed apart from ``repro``.

Each check returns a list of problems (empty when the output is good), so
a caller can count a failed operation and still say why.  The checks use
only public attributes of ``repro``'s outputs and recompute every bound
from the hardware spec's raw fields; none compares against a stored copy
of an earlier output.
"""

from __future__ import annotations

import math

__all__ = [
    "peak_flops",
    "dram_bandwidth",
    "roofline_bound_s",
    "check_operator",
    "check_program",
]

#: bytes per element of the dtypes the operator library declares.
_DTYPE_BYTES = {"float32": 4, "float16": 2, "bfloat16": 2, "int8": 1, "int32": 4}


def peak_flops(hw) -> float:
    """Peak FLOP/s: every FP32 core of every SM retiring one FMA a cycle."""
    return hw.num_sms * hw.fp32_cores_per_sm * hw.clock_hz * 2.0


def dram_bandwidth(hw) -> float:
    """Bytes/s of the device's DRAM level."""
    for level in hw.levels:
        if level.name == "dram":
            return level.bandwidth_bytes_per_s
    raise ValueError(f"{hw.name} declares no dram level")


def _tensor_bytes(tensor) -> int:
    return math.prod(tensor.shape) * _DTYPE_BYTES[tensor.dtype]


def roofline_bound_s(compute, hw) -> float:
    """Lowest latency physics allows for one execution of ``compute``.

    The kernel must do every FLOP of the iteration space at peak rate, and
    must read each distinct input tensor and write the output at least
    once at DRAM bandwidth; it can overlap the two but beat neither.
    """
    points = math.prod(ax.extent for ax in compute.axes)
    flops = compute.flops_per_point * points
    tensors = {acc.tensor.name: acc.tensor for acc in compute.inputs}
    tensors[compute.output.name] = compute.output
    io_bytes = sum(_tensor_bytes(t) for t in tensors.values())
    return max(flops / peak_flops(hw), io_bytes / dram_bandwidth(hw))


def check_operator(compute, hw, best, latency_s, fresh_latency_s, seed_latencies):
    """One compiled operator (``ops-cold``).

    ``fresh_latency_s`` is the best state priced again by a memo-free
    cost model; ``seed_latencies`` prices the canonical seed states the
    same way.  The compiler starts from those seeds, so its answer may not
    be worse than the best of them.
    """
    problems = []
    bound = roofline_bound_s(compute, hw)
    if not latency_s >= bound:
        problems.append(
            f"{compute.name}: latency {latency_s:.4g}s below the physical "
            f"bound {bound:.4g}s"
        )
    if fresh_latency_s != latency_s:
        problems.append(
            f"{compute.name}: reported latency {latency_s!r} but a fresh "
            f"cost model prices the schedule at {fresh_latency_s!r}"
        )
    feasible = [lat for lat in seed_latencies if math.isfinite(lat)]
    if feasible and latency_s > min(feasible):
        problems.append(
            f"{compute.name}: latency {latency_s:.4g}s worse than the best "
            f"seed state {min(feasible):.4g}s"
        )
    if not best.memory_ok(hw):
        problems.append(f"{compute.name}: best schedule overflows on-chip memory")
    if best.compute.name != compute.name:
        problems.append(
            f"{compute.name}: best schedule belongs to {best.compute.name}"
        )
    return problems


def check_program(graph, program, hw):
    """One whole-model program (``model-programs``).

    The groups must cover the graph's ops once each and in order; kernels
    plus fused ops must account for every op execution; the program
    latency must be the count-weighted sum of its groups; and no fused
    kernel may beat its anchor's compute bound.
    """
    problems = []
    expected = [inst.compute.name for inst in graph.ops]
    covered = []
    for group in program.groups:
        covered.append(group.anchor_name)
        covered.extend(group.epilogue_names)
    if covered != expected:
        problems.append(
            f"{graph.name}: groups cover {covered} but the graph runs {expected}"
        )
    executions = sum(inst.count for inst in graph.ops)
    kernels = sum(
        g.count * (1 + len(g.epilogue_names) - g.fused) for g in program.groups
    )
    fused = sum(g.count * g.fused for g in program.groups)
    if kernels + fused != executions:
        problems.append(
            f"{graph.name}: {kernels} kernels + {fused} fused ops != "
            f"{executions} op executions"
        )
    if (kernels, fused) != (program.num_kernels, program.num_fused_ops):
        problems.append(
            f"{graph.name}: program reports {program.num_kernels} kernels and "
            f"{program.num_fused_ops} fused ops, recount gives {kernels}, {fused}"
        )
    total = sum(
        (g.kernel_latency_s + g.pending_cost_s) * g.count for g in program.groups
    )
    if not math.isclose(total, program.latency_s, rel_tol=1e-12):
        problems.append(
            f"{graph.name}: groups sum to {total!r}s, program reports "
            f"{program.latency_s!r}s"
        )
    anchors = {}
    for inst in graph.ops:
        anchors.setdefault(inst.compute.name, inst.compute)
    for g in program.groups:
        anchor = anchors.get(g.anchor_name)
        if anchor is None:
            continue
        points = math.prod(ax.extent for ax in anchor.axes)
        floor = anchor.flops_per_point * points / peak_flops(hw)
        if not g.kernel_latency_s >= floor:
            problems.append(
                f"{graph.name}: group {g.anchor_name} kernel "
                f"{g.kernel_latency_s:.4g}s below its compute bound {floor:.4g}s"
            )
    return problems
