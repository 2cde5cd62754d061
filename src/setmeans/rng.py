"""Counter-based random numbers for reproducible simulation.

Draw ``i`` of replication ``r`` is a pure function of the key
``(master_seed, r, i)``, so replications can be evaluated in any order
(or in parallel) with bit-identical results.  Each replication owns a
splitmix64 stream: the draw is the splitmix64 finalizer applied to
``base_r + (i+1) * golden_gamma``, where ``base_r`` hashes the master
seed and the replication index.  Feeding gamma multiples (rather than
raw counters) through the finalizer is what gives splitmix64 its
statistical quality.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53


def _finalize(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _C1) & _MASK
    z = ((z ^ (z >> 27)) * _C2) & _MASK
    return z ^ (z >> 31)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """:func:`_finalize` on a uint64 array (numpy wraps modulo 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_C2)
    return z ^ (z >> np.uint64(31))


def uniforms(master_seed: int, replication, n: int) -> np.ndarray:
    """Uniform draws 0..n-1 in [0, 1) of one replication's stream: draw ``i``
    is ``(finalize(base_r + (i + 1) * gamma) >> 11) * 2**-53``.

    ``replication`` is one index or a 1-D array of indices in
    ``[0, 2**64)``; for an array the streams are concatenated
    replication-major, ``len(replication) * n`` draws in all, exactly as
    stacking one call per replication.
    """
    reps = np.asarray(replication, dtype=np.uint64).reshape(-1, 1)
    bases = _finalize_array(np.uint64(_finalize(master_seed)) ^ reps)  # base_r per replication
    steps = np.arange(1, n + 1, dtype=np.uint64)
    z = _finalize_array(bases + steps * np.uint64(_GAMMA))
    return ((z >> np.uint64(11)).astype(np.float64) * _INV53).reshape(-1)
