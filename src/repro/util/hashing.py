"""Deterministic integer hashing used by the imprecise miss-count table.

The IMCT (Section 3.3) maps the large block-address space onto a
fixed-size table, so it needs a hash that (a) is stable across runs and
Python processes (unlike the builtin ``hash`` under PYTHONHASHSEED) and
(b) scrambles the low bits well, because block addresses are strongly
clustered (sequential I/O).  We use the SplitMix64 finalizer, a
well-studied 64-bit mixing function.

:func:`mix64_array` and :func:`bucket_array` are the vectorized forms,
bit-identical to mapping the scalar functions over a numpy array.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: SplitMix64 constants as uint64 scalars; array ops against them wrap
#: modulo 2**64 exactly like the masked Python arithmetic in
#: :func:`mix64`.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)


def mix64(value: int) -> int:
    """Mix a 64-bit integer with the SplitMix64 finalizer.

    Returns a value in ``[0, 2**64)``.  Negative inputs are first reduced
    modulo 2**64 so the function is total over Python ints.
    """
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stable_bucket(value: int, buckets: int, salt: int = 0) -> int:
    """Map ``value`` onto ``[0, buckets)`` deterministically.

    ``salt`` lets independent tables (e.g. the IMCT and the offline log
    partitioner) use decorrelated mappings of the same address space.
    """
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    return mix64(value ^ mix64(salt)) % buckets


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over a uint64 array.

    Bit-identical to mapping :func:`mix64` over the elements: uint64
    addition/multiplication wrap silently for arrays, which is exactly
    the ``& _MASK64`` reduction of the scalar code.
    """
    z = values.astype(np.uint64, copy=True)
    z += _GOLDEN
    z ^= z >> _SHIFT30
    z *= _MULT1
    z ^= z >> _SHIFT27
    z *= _MULT2
    z ^= z >> _SHIFT31
    return z


def bucket_array(values: np.ndarray, buckets: int, salted: int) -> np.ndarray:
    """Vectorized :func:`stable_bucket` with the salt pre-mixed
    (``salted = mix64(salt)``); returns int64 bucket indices."""
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    mixed = mix64_array(values.astype(np.uint64) ^ np.uint64(salted))
    return (mixed % np.uint64(buckets)).astype(np.int64)
