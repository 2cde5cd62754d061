"""Slow reference implementations shared by the tests.

The mean process adds draws one Minkowski sum at a time; it is the
draw-by-draw oracle for the count-driven sample means of
``setmeans.simulate`` (``weighted_sum`` of the atoms at ``counts / N``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from setmeans.geometry import ConvexBody, DimensionMismatch, hausdorff, minkowski_sum, scale


@dataclass(frozen=True)
class MeanProcessState:
    """Running Minkowski sum of draws; the mean is the sum scaled by 1/count."""

    count: int = 0
    running_sum: Optional[ConvexBody] = None


def mean_process_extend(state: MeanProcessState, body: ConvexBody) -> MeanProcessState:
    """Add one draw to the running sum, hull-pruned."""
    if state.running_sum is None:
        return MeanProcessState(count=1, running_sum=body)
    if body.dim != state.running_sum.dim:
        raise DimensionMismatch("draw dimension does not match the running sum")
    return MeanProcessState(count=state.count + 1,
                            running_sum=minkowski_sum(state.running_sum, body))


def mean_process_mean(state: MeanProcessState) -> ConvexBody:
    if state.count < 1 or state.running_sum is None:
        raise ValueError("mean of an empty process is undefined")
    return scale(state.running_sum, 1.0 / state.count)


def same_body(a: ConvexBody, b: ConvexBody, tol: float = 1e-9) -> bool:
    """Equality of minimal representations up to a tolerance."""
    if a.dim != b.dim or a.vertex_count != b.vertex_count:
        return False
    return hausdorff(a, b) <= tol
