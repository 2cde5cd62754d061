"""Counter-based random numbers for reproducible simulation.

Draw ``i`` of replication ``r`` is a pure function of the key
``(master_seed, r, i)``, so replications can be evaluated in any order
(or in parallel) with bit-identical results.  Each replication owns a
splitmix64 stream: its word ``i`` is the splitmix64 finalizer applied to
``base_r + (i+1) * golden_gamma``, where ``base_r`` hashes the master
seed and the replication index.  Feeding gamma multiples (rather than
raw counters) through the finalizer is what gives splitmix64 its
statistical quality.

:func:`words` gives the raw uint64 words, into buffers the caller may
reuse; :func:`uniforms` turns them into the floats ``(word >> 11) *
2**-53`` in [0, 1).  ``simulate._count_blocks`` counts draws on the
words themselves, and ``uniforms`` stays the oracle the tests and the
benchmark's gate recount them from.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53


def _finalize_array(z: np.ndarray, shifted: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer on a uint64 array (numpy wraps modulo
    2**64), in place: ``z`` is overwritten and returned.  Its one shift
    buffer is ``shifted`` (of ``z``'s shape) when given, else a fresh
    temporary.  Pass only arrays the caller allocated."""
    shifted = np.right_shift(z, 30, out=shifted)
    z ^= shifted
    z *= _C1
    np.right_shift(z, 27, out=shifted)
    z ^= shifted
    z *= _C2
    np.right_shift(z, 31, out=shifted)
    z ^= shifted
    return z


def replication_bases(master_seed: int, replication) -> np.ndarray:
    """``base_r`` of each replication, as a ``(len, 1)`` uint64 column.

    ``master_seed`` lies in ``[0, 2**64)``, and so does ``replication``,
    one index or a 1-D array of indices."""
    reps = np.asarray(replication, dtype=np.uint64).reshape(-1, 1)
    # every array changed in place below is built here, never the caller's
    seed = _finalize_array(np.array([master_seed], dtype=np.uint64))
    return _finalize_array(seed ^ reps)


def draw_steps(n: int) -> np.ndarray:
    """``(i + 1) * gamma`` for draws ``i = 0 .. n-1``, as uint64."""
    steps = np.arange(1, n + 1, dtype=np.uint64)
    steps *= _GAMMA
    return steps


def words(bases: np.ndarray, steps: np.ndarray, out: np.ndarray | None = None,
          scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 words ``finalize(base_r + step_i)``: a ``(len(bases),
    len(steps))`` uint64 array for bases from :func:`replication_bases`
    and steps from :func:`draw_steps`.

    ``out`` and ``scratch``, when given, are uint64 arrays of that shape:
    the words are written into ``out`` and the finalizer shifts into
    ``scratch``, so a caller drawing chunk after chunk allocates neither
    again."""
    return _finalize_array(np.add(bases, steps, out=out), scratch)


def uniforms(master_seed: int, replication, n: int) -> np.ndarray:
    """Uniform draws 0..n-1 in [0, 1) of one replication's stream: draw ``i``
    is ``(words[i] >> 11) * 2**-53``, exact in float64.

    ``master_seed`` lies in ``[0, 2**64)``, and so does ``replication``,
    one index or a 1-D array of indices; for an array the streams are
    concatenated replication-major, ``len(replication) * n`` draws in
    all, exactly as stacking one call per replication.
    """
    z = words(replication_bases(master_seed, replication), draw_steps(n))
    z >>= 11
    u = z.astype(np.float64)
    u *= _INV53
    return u.reshape(-1)
