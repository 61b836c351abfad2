"""Optional compiled inner loops for sequential sampling.

Two sampling loops cannot be vectorised, because every step reads state
the previous step wrote:

* Fisher–Yates swaps (:func:`repro.prng.streams.shuffle_segments`,
  behind every ``RandomStream.permutation`` and stub shuffle);
* capacity-weighted sampling without replacement over a Fenwick tree
  (LFR's community assignment).

The random draws stay vectorised in numpy; only the swap and placement
loops run here.  When a system C compiler is present they are compiled
once into a cached shared object (via :mod:`repro.core.ccompile`, the
same zero-install contract as the matching and attribute kernels) and
called through ``ctypes``.  Otherwise, or with ``REPRO_NO_CKERNEL=1``,
:func:`load_ckernel` returns ``None`` and callers run their Python
loops, which stay as the reference the tests compare against.  Both
paths do the same integer work on the same draws, so their outputs are
identical.
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = ["load_ckernel"]

_SOURCE = r"""
#include <stdint.h>

/* Fisher-Yates over consecutive segments of data.  Segment s spans
   [offsets[s], offsets[s+1]); targets[offsets[s] + pos] is the swap
   target of position pos within it (position 0 is never read).
   Returns 1 on a target outside [0, pos], leaving data partly shuffled. */
int64_t shuffle_segments(
    int64_t nseg, const int64_t *offsets, const int64_t *targets,
    int64_t *data)
{
    for (int64_t s = 0; s < nseg; ++s) {
        int64_t lo = offsets[s];
        int64_t *a = data + lo;
        const int64_t *t = targets + lo;
        for (int64_t pos = offsets[s + 1] - lo - 1; pos > 0; --pos) {
            int64_t j = t[pos];
            if (j < 0 || j > pos) return 1;
            int64_t tmp = a[pos];
            a[pos] = a[j];
            a[j] = tmp;
        }
    }
    return 0;
}

/* Capacity-weighted assignment of nodes to communities.  Nodes come in
   decreasing-demand order; communities in decreasing-size order, so the
   eligible set (size > demand) is a growing prefix.  Each node draws a
   community of the prefix proportionally to remaining capacity, via a
   Fenwick tree over capacities.  Returns 1 when capacity runs out. */
int64_t capacity_assign(
    int64_t n, int64_t num_c,
    const int64_t *order_n, const int64_t *demand,
    const int64_t *sorted_sizes, const int64_t *order_c,
    const double *u,
    int64_t *capacities,   /* num_c, consumed */
    int64_t *fenwick,      /* num_c + 1, zeroed */
    int64_t *assignment)
{
    int64_t opened = 0, total = 0, top = 1;
    while (top <= num_c) top <<= 1;
    for (int64_t rank = 0; rank < n; ++rank) {
        int64_t node = order_n[rank];
        int64_t d = demand[node];
        while (opened < num_c && (sorted_sizes[opened] > d || total <= 0)) {
            /* The second clause opens the largest closed community,
               whatever its size, when no eligible capacity is left. */
            int relax = sorted_sizes[opened] <= d;
            int64_t c = capacities[opened];
            for (int64_t i = opened + 1; i <= num_c; i += i & -i)
                fenwick[i] += c;
            total += c;
            opened++;
            if (relax) break;
        }
        if (total <= 0) return 1;
        int64_t remaining = (int64_t)(u[rank] * (double)total);
        int64_t pos = 0;
        for (int64_t bit = top; bit; bit >>= 1) {
            int64_t nxt = pos + bit;
            if (nxt <= num_c && fenwick[nxt] <= remaining) {
                remaining -= fenwick[nxt];
                pos = nxt;
            }
        }
        assignment[node] = order_c[pos];
        capacities[pos] -= 1;
        for (int64_t i = pos + 1; i <= num_c; i += i & -i)
            fenwick[i] -= 1;
        total -= 1;
    }
    return 0;
}
"""

_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")


def _int64(values):
    return np.ascontiguousarray(values, dtype=np.int64)


class _SequentialKernel:
    """ctypes facade over the compiled sampling loops."""

    def __init__(self, lib):
        self._lib = lib
        lib.shuffle_segments.restype = ctypes.c_int64
        lib.shuffle_segments.argtypes = [
            ctypes.c_int64, _I64P, _I64P, _I64P,
        ]
        lib.capacity_assign.restype = ctypes.c_int64
        lib.capacity_assign.argtypes = [
            ctypes.c_int64, ctypes.c_int64,
            _I64P, _I64P, _I64P, _I64P, _F64P,
            _I64P, _I64P, _I64P,
        ]

    def shuffle_segments(self, data, offsets, targets):
        """Apply the swaps in place; ``data`` must be C-contiguous int64."""
        offsets = _int64(offsets)
        targets = _int64(targets)
        if data.dtype != np.int64 or not data.flags.c_contiguous:
            raise ValueError("data must be a C-contiguous int64 array")
        if targets.size != data.size:
            raise ValueError("targets must align with data")
        if offsets.size and (
            offsets[0] < 0 or offsets[-1] > data.size
            or (np.diff(offsets) < 0).any()
        ):
            raise ValueError("offsets must be nondecreasing within data")
        if self._lib.shuffle_segments(
            offsets.size - 1, offsets, targets, data
        ):
            raise ValueError("Fisher-Yates target out of range")

    def capacity_assign(self, order_n, demand, sorted_sizes, order_c, u):
        """-> community per node; see :meth:`LFR._assign_communities`."""
        n, num_c = demand.size, sorted_sizes.size
        order_n, order_c = _int64(order_n), _int64(order_c)
        if order_n.size != n or u.size != n or order_c.size != num_c:
            raise ValueError("assignment inputs must align")
        assignment = np.empty(n, dtype=np.int64)
        if self._lib.capacity_assign(
            n, num_c, order_n, _int64(demand), _int64(sorted_sizes),
            order_c, np.ascontiguousarray(u, dtype=np.float64),
            _int64(sorted_sizes).copy(),
            np.zeros(num_c + 1, dtype=np.int64), assignment,
        ):
            raise RuntimeError(
                "LFR: community capacity exhausted; "
                "inconsistent size/degree configuration"
            )
        return assignment


_LOADED = False
_KERNEL = None


def load_ckernel():
    """The compiled sampling kernel, or ``None`` when unavailable.

    One compile attempt per process; any failure (no compiler,
    sandboxed subprocess, unwritable cache) falls back to ``None`` for
    the rest of the process, so the Python loops take over silently.
    """
    global _LOADED, _KERNEL
    if _LOADED:
        return _KERNEL
    _LOADED = True
    from ..core.ccompile import ckernels_disabled, compile_cached

    if ckernels_disabled():
        return None
    try:
        lib = compile_cached(_SOURCE, "samplekernel")
        _KERNEL = _SequentialKernel(lib) if lib is not None else None
    except Exception:
        _KERNEL = None
    return _KERNEL
