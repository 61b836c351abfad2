"""Configuration model: wire a prescribed degree sequence.

The configuration model pairs "half-edges" (stubs) uniformly at random;
it is the workhorse inside LFR (intra- and inter-community wiring) and a
useful SG in its own right for reproducing an empirical degree
distribution, one of the requirements of Section 2.
"""

from __future__ import annotations

import numpy as np

from .base import StructureGenerator, edge_table_from_pairs, ensure_even_sum
from ..prng.streams import derive_seeds, shuffle_segments
from ..stats import Empirical

__all__ = [
    "ConfigurationModel",
    "drop_odd_stubs",
    "pair_stubs",
    "pair_stubs_segments",
    "pair_stubs_with_repair",
]


def pair_stubs(degrees, stream, simplify=True):
    """Pair half-edges of ``degrees`` into an ``(m, 2)`` edge array.

    Parameters
    ----------
    degrees:
        nonnegative int degree per node; the sum must be even.
    stream:
        PRNG stream used to shuffle the stub array.
    simplify:
        when True, self loops and parallel edges are dropped (the
        standard "erased configuration model"), so realised degrees can
        be slightly below the prescription for heavy-tailed sequences.

    Returns
    -------
    (m, 2) int64 array of endpoints.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() < 0:
        raise ValueError("degrees must be nonnegative")
    total = int(degrees.sum())
    if total % 2 == 1:
        raise ValueError("degree sum must be even")
    if total == 0:
        return np.empty((0, 2), dtype=np.int64)
    pairs = _shuffled_stub_pairs(degrees, [0, degrees.size], [stream.seed])
    if simplify:
        pairs = _erase(pairs, degrees.size)
    return pairs


def _shuffled_stub_pairs(degrees, offsets, seeds):
    """Stubs of every node, shuffled within each segment, as pairs.

    Segment ``s`` holds the stubs of nodes ``offsets[s]:offsets[s + 1]``
    shuffled by ``RandomStream(seeds[s])``; every segment's stub count
    must be even, so no pair straddles two segments.
    """
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    stub_offsets = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=stub_offsets[1:])
    shuffle_segments(stubs, stub_offsets[np.asarray(offsets)], seeds)
    return stubs.reshape(-1, 2)


def _erase(pairs, n):
    """Drop loops and repeated pairs, keeping first occurrences in order;
    endpoints come back as ``(min, max)``."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    _, first = np.unique(lo * np.int64(n) + hi, return_index=True)
    first.sort()
    return np.stack([lo[first], hi[first]], axis=1)


def _segment_sums(values, offsets):
    csum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=csum[1:])
    return csum[offsets[1:]] - csum[offsets[:-1]]


def drop_odd_stubs(degrees, offsets, mask=None):
    """Make every segment's degree sum even, in place.

    A segment (``degrees[offsets[s]:offsets[s + 1]]``, optionally only
    where ``mask`` is set) with an odd sum loses one stub from its
    first largest-degree node.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    odd = _segment_sums(degrees, offsets) % 2 == 1
    if mask is not None:
        odd &= mask
    if not odd.any():
        return degrees
    lengths = np.diff(offsets)
    nonempty = lengths > 0
    seg_max = np.full(lengths.size, -1, dtype=np.int64)
    seg_max[nonempty] = np.maximum.reduceat(
        degrees, offsets[:-1][nonempty]
    )
    at_max = np.flatnonzero(degrees == np.repeat(seg_max, lengths))
    top = at_max[np.searchsorted(at_max, offsets[:-1][odd])]
    degrees[top] -= 1
    return degrees


def pair_stubs_segments(degrees, offsets, seeds, rounds=3):
    """:func:`pair_stubs_with_repair` on many degree sequences at once.

    ``degrees[offsets[s]:offsets[s + 1]]`` is segment ``s``, wired with
    ``RandomStream(seeds[s])`` exactly as ``pair_stubs_with_repair``
    would wire it alone, its node ids shifted by ``offsets[s]``.  Each
    repair round is one vectorised pass over the segments still active:
    one stub shuffle (:func:`~repro.prng.streams.shuffle_segments`),
    one ``np.unique`` over segment-disjoint keys, and per-segment masks
    for the early stops (fewer than two stubs left, nothing paired,
    nothing new paired).  Edges come back segment-major, round-minor,
    as the per-segment calls would concatenate them.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = degrees.size
    segment_of = np.repeat(
        np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets)
    )
    active = np.ones(offsets.size - 1, dtype=bool)
    realised = np.zeros(n, dtype=np.int64)
    deficit = degrees.copy()
    seen = np.empty(0, dtype=np.int64)
    chunks = []
    for round_id in range(rounds):
        active &= _segment_sums(deficit, offsets) >= 2
        if not active.any():
            break
        drop_odd_stubs(deficit, offsets, active)
        deficit[~active[segment_of]] = 0
        round_seeds = derive_seeds(seeds, f"repair{round_id}")
        pairs = _erase(
            _shuffled_stub_pairs(deficit, offsets, round_seeds), n
        )
        keys = pairs[:, 0] * np.int64(n) + pairs[:, 1]
        if round_id:
            new = ~np.isin(keys, seen, assume_unique=True)
            pairs, keys = pairs[new], keys[new]
        seen = np.concatenate([seen, keys])
        # Segments that paired nothing, or nothing new, stop here.
        active &= np.bincount(
            segment_of[pairs[:, 0]], minlength=active.size
        ) > 0
        chunks.append(pairs)
        realised += np.bincount(pairs.ravel(), minlength=n)
        deficit = np.maximum(degrees - realised, 0)
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(chunks, axis=0)
    order = np.argsort(segment_of[pairs[:, 0]], kind="stable")
    return pairs[order]


def pair_stubs_with_repair(degrees, stream, rounds=3):
    """Erased configuration model with deficit-repair rounds.

    Plain erased pairing loses substantial degree mass on dense inputs
    (duplicates collapse).  After each round the per-node deficit
    (prescribed minus realised degree) is re-paired with
    ``stream.substream(f"repair{round}")``; accumulated edges are
    globally deduplicated.  Converges quickly: dense communities in
    LFR recover most of their prescribed degree in 2-3 rounds.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    return pair_stubs_segments(
        degrees, [0, degrees.size], [stream.seed], rounds
    )


class ConfigurationModel(StructureGenerator):
    """SG reproducing a target degree distribution.

    Parameters (via ``initialize``)
    -------------------------------
    degrees:
        explicit per-node degree sequence (overrides ``distribution``), or
    distribution:
        a :class:`~repro.stats.Distribution` over degree values sampled
        i.i.d. per node.
    simplify:
        drop loops/multi-edges (default True).
    """

    name = "configuration"

    def parameter_names(self):
        return {"degrees", "distribution", "simplify"}

    def _validate_params(self):
        if "degrees" not in self._params and "distribution" not in self._params:
            return  # allowed to configure later
        if "degrees" in self._params:
            d = np.asarray(self._params["degrees"], dtype=np.int64)
            if d.ndim != 1:
                raise ValueError("degrees must be 1-D")
            if d.size and d.min() < 0:
                raise ValueError("degrees must be nonnegative")

    def _degree_sequence(self, n, stream):
        if "degrees" in self._params:
            degrees = np.asarray(self._params["degrees"], dtype=np.int64)
            if degrees.size != n:
                raise ValueError(
                    f"degree sequence length {degrees.size} != n {n}"
                )
            return ensure_even_sum(degrees, stream)
        dist = self._params.get("distribution")
        if dist is None:
            raise ValueError(
                "ConfigurationModel needs 'degrees' or 'distribution'"
            )
        degrees = dist.sample(stream.substream("degrees"), np.arange(n))
        return ensure_even_sum(degrees, stream)

    def _generate(self, n, stream):
        degrees = self._degree_sequence(n, stream)
        pairs = pair_stubs(
            degrees,
            stream.substream("pairing"),
            simplify=self._params.get("simplify", True),
        )
        return edge_table_from_pairs(self.name, pairs, n)

    def expected_edges_for_nodes(self, n):
        if "degrees" in self._params:
            return int(np.asarray(self._params["degrees"]).sum() // 2)
        dist = self._params.get("distribution")
        if dist is None:
            raise ValueError("generator not configured")
        if isinstance(dist, Empirical) or hasattr(dist, "mean"):
            return int(n * dist.mean() / 2)
        raise NotImplementedError
