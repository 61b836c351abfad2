"""Random-access random number streams.

A :class:`RandomStream` is the concrete realisation of the paper's
``r : (i: Long) -> Long`` function: a deterministic map from an instance
id to a 64-bit random number, independent per stream.  The generation
engine builds one stream per property table so that properties are
mutually independent (Section 4.1 of the paper).

Streams also provide convenience conversions (floats in [0, 1), bounded
integers, permutation sampling) that property and structure generators
need, all vectorised and all derived from the same O(1)-access core.

Two access patterns exist:

* **flat** — one draw per instance id (``uniform(ids)``): one SplitMix
  pass over the id array.
* **ragged** — a *variable* number of draws per instance id
  (``uniform_ragged(ids, lengths)``): instance ``i`` needs
  ``lengths[i]`` draws, e.g. the words of a sentence or the picks of a
  multi-valued property.  The ragged API computes every per-instance
  substream seed and every draw in a single vectorised pass, returning
  a flat array plus segment offsets — bit-identical to building
  ``indexed_substream(i)`` objects one at a time, without the N Python
  objects.
"""

from __future__ import annotations

import numpy as np

from ._ckernel import load_ckernel
from .splitmix import (
    GOLDEN_GAMMA,
    hash_string,
    hash_string_seeds,
    mix64,
    splitmix64,
)

__all__ = ["RandomStream", "derive_seed", "derive_seeds", "shuffle_segments"]

_DOUBLE_NORM = 1.0 / (1 << 53)
_NAME_SALT = 0xA5A5A5A5A5A5A5A5


def derive_seed(root_seed, *names):
    """Derive a child seed from ``root_seed`` and a path of names.

    Successive names are folded in with the stable string hash, so
    ``derive_seed(s, "Person", "country")`` differs from
    ``derive_seed(s, "Person", "name")`` and from
    ``derive_seed(s, "Personcountry")``.
    """
    seed = int(root_seed)
    for name in names:
        seed = hash_string(str(name), seed=seed ^ _NAME_SALT)
    return seed & ((1 << 64) - 1)


def derive_seeds(seeds, name):
    """``derive_seed(s, name)`` for every seed of the ``uint64`` array
    ``seeds`` -- the seeds of ``RandomStream(s).substream(name)`` --
    in one vectorised pass.

    >>> s = np.array([3, 2**63], dtype=np.uint64)
    >>> [int(v) for v in derive_seeds(s, "x")] == [
    ...     derive_seed(3, "x"), derive_seed(2**63, "x")]
    True
    """
    salted = np.asarray(seeds, dtype=np.uint64) ^ np.uint64(_NAME_SALT)
    return hash_string_seeds(str(name), salted)


def _raw_segments(seeds, offsets):
    """Raw draws over consecutive segments, one stream per segment.

    Segment ``s`` spans ``offsets[s]:offsets[s + 1]`` and holds
    ``RandomStream(seeds[s]).raw(j)`` for ``j = 0, 1, ...``.  Returns
    ``(bits, position)``, ``position`` being ``j`` as ``uint64``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    lengths = np.diff(offsets)
    position = np.arange(offsets[0], offsets[-1], dtype=np.uint64)
    if seeds.size == 1:
        seed = seeds[0]
        position -= np.uint64(offsets[0])
    else:
        # Position within each segment: global position minus the
        # segment start, so draw j of segment s indexes its stream at
        # j exactly as the scalar path does.
        position -= np.repeat(offsets[:-1].astype(np.uint64), lengths)
        seed = np.repeat(seeds, lengths)
    with np.errstate(over="ignore"):
        state = seed + (position + np.uint64(1)) * GOLDEN_GAMMA
    return mix64(state), position


def _apply_swaps(data, offsets, targets):
    """Reference Fisher-Yates loop: the swaps of :func:`shuffle_segments`
    in Python, used when no compiled kernel is available."""
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        for pos, tgt in zip(range(hi - 1, lo, -1),
                            targets[hi - 1:lo:-1].tolist()):
            data[pos], data[lo + tgt] = data[lo + tgt], data[pos]


def shuffle_segments(data, offsets, seeds):
    """Fisher-Yates shuffle, in place, of each segment of ``data``.

    Segment ``s`` (``data[offsets[s]:offsets[s + 1]]``) is reordered
    exactly as indexing it with ``RandomStream(seeds[s]).permutation``
    of its length would reorder it: position ``pos`` (from the end down
    to 1) swaps with ``int(u * (pos + 1))``, ``u`` being the stream's
    ``uniform(pos)``.  All draws are one vectorised pass over the
    segments; the swaps run in a compiled loop when a C compiler is
    available and in :func:`_apply_swaps` otherwise.

    ``data`` must be a C-contiguous ``int64`` array.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size < 2 or offsets[-1] == offsets[0]:
        return data
    bits, position = _raw_segments(seeds, offsets)
    u = (bits >> np.uint64(11)).astype(np.float64)
    u *= _DOUBLE_NORM
    position += np.uint64(1)
    targets = (u * position).astype(np.int64)
    # ``targets`` is indexed from offsets[0]; shift the segment bounds
    # into that frame and the data window with them.
    window = data[offsets[0]:offsets[-1]]
    local = offsets - offsets[0]
    kernel = load_ckernel()
    if kernel is None:
        _apply_swaps(window, local, targets)
    else:
        kernel.shuffle_segments(window, local, targets)
    return data


class RandomStream:
    """A named, seekable stream of pseudo-random numbers.

    Parameters
    ----------
    seed:
        64-bit stream seed.  Streams with different seeds are independent.
    name:
        Optional human-readable label, folded into the seed when given.

    Examples
    --------
    >>> r = RandomStream(42, "Person.country")
    >>> int(r(10)) == int(r(10))        # random access is deterministic
    True
    >>> r.uniform([0, 1, 2]).shape
    (3,)
    """

    __slots__ = ("seed", "name")

    def __init__(self, seed, name=None):
        if name is not None:
            seed = derive_seed(seed, name)
        self.seed = int(seed) & ((1 << 64) - 1)
        self.name = name

    def __repr__(self):
        label = f", name={self.name!r}" if self.name else ""
        return f"RandomStream(seed={self.seed:#x}{label})"

    def __eq__(self, other):
        return isinstance(other, RandomStream) and self.seed == other.seed

    def __hash__(self):
        return hash(("RandomStream", self.seed))

    # -- core contract ----------------------------------------------------

    def __call__(self, index):
        """Return the ``index``-th raw 64-bit number (the paper's ``r(i)``)."""
        return splitmix64(self.seed, index)

    def raw(self, index):
        """Alias of :meth:`__call__` for readability at call sites."""
        return splitmix64(self.seed, index)

    # -- derived draws ----------------------------------------------------

    def uniform(self, index):
        """Uniform float64 in ``[0, 1)`` for each entry of ``index``."""
        bits = splitmix64(self.seed, index)
        return (bits >> np.uint64(11)).astype(np.float64) * _DOUBLE_NORM

    def randint(self, index, low, high):
        """Uniform integer in ``[low, high)`` for each entry of ``index``.

        Uses the multiply-shift bounded-range reduction, which is unbiased
        enough for data generation (bias < 2^-53 via the float path).
        """
        if high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        span = high - low
        u = self.uniform(index)
        return (low + (u * span).astype(np.int64)).astype(np.int64)

    def normal(self, index, mean=0.0, std=1.0):
        """Gaussian draws via the inverse-CDF method (deterministic)."""
        from scipy.special import ndtri

        u = self.uniform(index)
        # Clamp away from {0, 1} so ndtri stays finite.
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return mean + std * ndtri(u)

    def substream(self, name):
        """Return an independent stream derived from this one."""
        return RandomStream(derive_seed(self.seed, name))

    def indexed_substream(self, index):
        """Return an independent stream for integer ``index``.

        Used when a single instance needs several draws, e.g. the ``i``-th
        node drawing a variable number of edges: each node gets its own
        substream, keeping the O(1) access property.
        """
        with np.errstate(over="ignore"):
            child = int(
                mix64(np.uint64(self.seed)
                      ^ (np.uint64(index) * GOLDEN_GAMMA))
            )
        return RandomStream(child)

    # -- batched ragged draws ---------------------------------------------

    def indexed_substream_seeds(self, index):
        """Seeds of ``indexed_substream(i)`` for every ``i`` in ``index``.

        One vectorised SplitMix pass replacing N Python stream objects:
        ``indexed_substream_seeds(ids)[j] == indexed_substream(ids[j]).seed``
        bit-for-bit.

        Returns a ``uint64`` array shaped like ``index`` — also for
        zero-length ``index`` (a plain ``[]`` would otherwise pass
        through numpy's float64 default and empty serving pages /
        shards would round-trip with the wrong dtype).

        >>> RandomStream(1).indexed_substream_seeds([]).dtype
        dtype('uint64')
        """
        idx = np.asarray(index)
        if idx.size == 0:
            return np.empty(idx.shape, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return mix64(
                np.uint64(self.seed)
                ^ (idx.astype(np.uint64) * GOLDEN_GAMMA)
            )

    @staticmethod
    def _ragged_offsets(index, lengths):
        index = np.asarray(index, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != index.shape:
            raise ValueError("lengths must align with index")
        if lengths.size and lengths.min() < 0:
            raise ValueError("lengths must be nonnegative")
        offsets = np.zeros(index.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return index, lengths, offsets

    def raw_ragged(self, index, lengths):
        """Raw 64-bit draws, ``lengths[i]`` of them per instance.

        Returns ``(flat, offsets)`` where
        ``flat[offsets[i]:offsets[i + 1]]`` equals
        ``indexed_substream(index[i]).raw(np.arange(lengths[i]))`` —
        the per-instance substream draws, computed as one SplitMix pass
        over the flattened positions.
        """
        index, lengths, offsets = self._ragged_offsets(index, lengths)
        seeds = self.indexed_substream_seeds(index)
        return _raw_segments(seeds, offsets)[0], offsets

    def uniform_ragged(self, index, lengths):
        """Uniform float64 in ``[0, 1)``, ``lengths[i]`` per instance.

        The ragged counterpart of :meth:`uniform`; see
        :meth:`raw_ragged` for the layout contract.

        >>> r = RandomStream(9, "ragged")
        >>> flat, offsets = r.uniform_ragged([4, 7], [2, 3])
        >>> per_instance = r.indexed_substream(7).uniform(
        ...     np.arange(3, dtype=np.int64))
        >>> bool((flat[offsets[1]:offsets[2]] == per_instance).all())
        True
        """
        bits, offsets = self.raw_ragged(index, lengths)
        flat = (bits >> np.uint64(11)).astype(np.float64)
        flat *= _DOUBLE_NORM
        return flat, offsets

    def permutation(self, n):
        """Deterministic permutation of ``range(n)`` (Fisher-Yates).

        The swap targets are drawn in one vectorised pass; the swaps
        themselves are inherently sequential and run in the compiled
        loop of :func:`shuffle_segments`.  Every permutation matching,
        arrival order, ``one_to_many`` head map and bipartite stub
        shuffle goes through here, in the serial engine, the sharded
        parent and the server's warm-up.
        """
        perm = np.arange(n, dtype=np.int64)
        shuffle_segments(perm, [0, n], [self.seed])
        return perm

    def choice(self, index, weights):
        """Categorical draw by inverse-transform over ``weights``.

        Parameters
        ----------
        index:
            Instance ids (scalar or array).
        weights:
            1-D nonnegative weights; normalised internally.

        Returns
        -------
        int64 array of category indices.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        cdf = np.cumsum(w) / total
        u = self.uniform(index)
        return np.searchsorted(cdf, u, side="right").astype(np.int64)
