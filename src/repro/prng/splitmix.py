"""Counter-based pseudo-random number generation with O(1) random access.

The paper borrows Myriad's *skip-seed* PRNG idea: a generator that can
produce the ``i``-th number of a stream directly, without generating the
``i - 1`` numbers before it.  This is the mechanism that makes *in-place*
property generation possible — any worker, on any machine, can regenerate
the property value of instance ``i`` from ``i`` alone.

We implement the skip-seed contract with a counter-based construction in
the spirit of SplitMix64 / Philox: the ``i``-th output is a strong 64-bit
mix of ``seed + i * GOLDEN_GAMMA``.  SplitMix64 passes BigCrush and its
outputs for distinct counters are statistically independent, which is all
the generation pipeline requires.

All functions are vectorised: they accept either Python ints or numpy
``uint64`` arrays and return the same shape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GOLDEN_GAMMA",
    "splitmix64",
    "mix64",
    "hash_string",
    "hash_string_seeds",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Weyl-sequence increment used by SplitMix64 (2^64 / phi, odd).
GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)

_MIX_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)

_U64_MASK = (1 << 64) - 1


def mix64(z):
    """Apply the SplitMix64 finaliser to ``z``.

    This is a bijective avalanche mix on 64 bits: every input bit affects
    every output bit with probability ~1/2.  ``z`` may be a Python int or
    a numpy array of ``uint64``.
    """
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _SHIFT_30)) * _MIX_MUL_1
        z = (z ^ (z >> _SHIFT_27)) * _MIX_MUL_2
        z = z ^ (z >> _SHIFT_31)
    return z


def splitmix64(seed, index):
    """Return the ``index``-th output of the SplitMix64 stream ``seed``.

    Equivalent to seeding SplitMix64 with ``seed`` and drawing
    ``index + 1`` numbers, but in O(1): the state after ``index`` steps is
    ``seed + (index + 1) * GOLDEN_GAMMA`` by construction.

    Parameters
    ----------
    seed:
        Stream identifier (any 64-bit integer).
    index:
        Position in the stream; scalar or numpy integer array.

    Returns
    -------
    numpy.uint64 scalar or array of the same shape as ``index``.
    """
    idx = np.asarray(index, dtype=np.uint64)
    s = np.uint64(int(seed) & _U64_MASK)
    with np.errstate(over="ignore"):
        state = s + (idx + np.uint64(1)) * GOLDEN_GAMMA
    return mix64(state)


def hash_string(text, seed=0):
    """Hash ``text`` to a stable 64-bit integer (FNV-1a, then mixed).

    Used to derive independent sub-stream seeds from human-readable task
    names, e.g. ``hash_string("Person.country")``.  Stability across runs
    and Python processes is required (so the built-in ``hash`` is not
    usable — it is salted per process).
    """
    h = _FNV_OFFSET ^ (int(seed) & _U64_MASK)
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _U64_MASK
    return int(mix64(np.uint64(h)))


def hash_string_seeds(text, seeds):
    """:func:`hash_string` of ``text`` under every seed of ``seeds``.

    One vectorised pass: ``hash_string_seeds(t, s)[i] ==
    hash_string(t, s[i])`` for a ``uint64`` array ``s``.
    """
    h = np.asarray(seeds, dtype=np.uint64) ^ np.uint64(_FNV_OFFSET)
    with np.errstate(over="ignore"):
        for byte in text.encode("utf-8"):
            h ^= np.uint64(byte)
            h *= np.uint64(_FNV_PRIME)
    return mix64(h)
