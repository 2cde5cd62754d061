"""Stand-alone layer timings: one public function at a time, on seeded inputs.

Each case reports the median per-call time of several batches, each
batch long enough to dwarf the clock resolution.
"""

from __future__ import annotations

import time

import numpy as np

BATCHES = 7
MIN_BATCH_S = 0.02


def _per_call_ms(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    once = time.perf_counter() - t0
    calls = max(1, int(MIN_BATCH_S / max(once, 1e-7)))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        samples.append((time.perf_counter() - t0) / calls)
    return float(np.median(samples)) * 1e3


def _sphere_points(rng, count: int, dim: int) -> np.ndarray:
    """Points on the unit sphere: every one of them is extreme."""
    p = rng.normal(size=(count, dim))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def layer_timings(seed: int) -> dict[str, float]:
    from setmeans.geometry import hausdorff, hull, minkowski_sum, nearest_point, support_face
    from setmeans.rng import uniforms
    from setmeans.stats import ks_test_normal, ks_two_sample

    rng = np.random.default_rng([seed & (2 ** 64 - 1), 5])
    cloud2, cloud3 = rng.normal(size=(200, 2)), rng.normal(size=(200, 3))
    octagon, hexagon = hull(_sphere_points(rng, 8, 2)), hull(_sphere_points(rng, 6, 2))
    poly13, poly14 = hull(_sphere_points(rng, 13, 3)), hull(_sphere_points(rng, 14, 3))
    sum2 = minkowski_sum(octagon, hexagon)                      # 14-gon
    other2 = minkowski_sum(hull(_sphere_points(rng, 8, 2)), hull(_sphere_points(rng, 6, 2)))
    body45 = hull(_sphere_points(rng, 45, 3))
    other45 = hull(0.9 * _sphere_points(rng, 45, 3))
    direction = rng.normal(size=3)
    normal2000 = rng.normal(size=2000)
    sample_a, sample_b = rng.normal(size=1000), rng.normal(size=1000)
    return {
        "geometry.hull.alone_2d_ms": _per_call_ms(hull, cloud2),
        "geometry.hull.alone_3d_ms": _per_call_ms(hull, cloud3),
        "geometry.minkowski_sum.alone_2d_ms": _per_call_ms(minkowski_sum, octagon, hexagon),
        "geometry.minkowski_sum.alone_3d_ms": _per_call_ms(minkowski_sum, poly13, poly14),
        "geometry.hausdorff.alone_2d_ms": _per_call_ms(hausdorff, sum2, other2),
        "geometry.hausdorff.alone_3d_ms": _per_call_ms(hausdorff, body45, other45),
        "geometry.support_face.alone_3d_ms": _per_call_ms(support_face, body45, direction),
        "geometry.nearest_point.alone_3d_ms": _per_call_ms(nearest_point, body45,
                                                           np.array([2.0, 0.0, 0.0])),
        "rng.uniforms.alone_1e6_ms": _per_call_ms(uniforms, seed, 0, 1_000_000),
        "stats.ks_test_normal.alone_2000_ms": _per_call_ms(ks_test_normal, normal2000, 0.0, 1.0),
        "stats.ks_two_sample.alone_1000x2_ms": _per_call_ms(ks_two_sample, sample_a, sample_b),
    }
