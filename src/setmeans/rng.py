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

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on a uint64 array (numpy wraps modulo
    2**64), in place: ``z`` is overwritten and returned, with one shift
    buffer as the only temporary.  Pass only arrays the caller allocated."""
    shifted = z >> 30
    z ^= shifted
    z *= _C1
    np.right_shift(z, 27, out=shifted)
    z ^= shifted
    z *= _C2
    np.right_shift(z, 31, out=shifted)
    z ^= shifted
    return z


def uniforms(master_seed: int, replication, n: int) -> np.ndarray:
    """Uniform draws 0..n-1 in [0, 1) of one replication's stream: draw ``i``
    is ``(finalize(base_r + (i + 1) * gamma) >> 11) * 2**-53``.

    ``master_seed`` lies in ``[0, 2**64)``, and so does ``replication``,
    one index or a 1-D array of indices; for an array the streams are
    concatenated replication-major, ``len(replication) * n`` draws in
    all, exactly as stacking one call per replication.
    """
    reps = np.asarray(replication, dtype=np.uint64).reshape(-1, 1)
    # every array changed in place below is built here, never the caller's
    seed = _finalize_array(np.array([master_seed], dtype=np.uint64))
    bases = _finalize_array(seed ^ reps)  # base_r per replication
    steps = np.arange(1, n + 1, dtype=np.uint64)
    steps *= _GAMMA
    z = _finalize_array(bases + steps)
    z >>= 11
    u = z.astype(np.float64)
    u *= _INV53
    return u.reshape(-1)
