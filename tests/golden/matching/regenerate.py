"""Regenerate the golden matching fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/golden/matching/regenerate.py

The fixtures freeze the *assignments* produced by the streaming
matchers — ``sbm_part_assign``, ``bipartite_sbm_part_match`` and
``ldg_partition`` — on a battery of fixed-seed instances, plus the edge
arrays of the two structure generators whose hot loops were rewritten
(Barabási–Albert and forest fire).  ``tests/test_matching_kernel.py``
re-runs the same instances through the streaming-placement kernel and
asserts byte-identical output, the same pattern ``tests/golden/`` uses
to pin exporter bytes.

The fixtures were originally written by the pre-kernel per-node loops
(the code now preserved verbatim in ``repro.core.matching.legacy``), so
they certify that the kernel rewrite changed *nothing* about placement
decisions.  Only rerun this script when a placement-behaviour change is
*intended*; the fixture diff then documents exactly what changed.

Fixture files
-------------
``matching_small.npz``
    assignments of every small/medium case (int64 arrays).  These are
    the *legacy loop's* outputs, byte-for-byte: at these scales the
    kernel's relative tie band coincides with the legacy absolute one,
    so the fixtures certify the kernel rewrite changed nothing.
``matching_large.npz``
    the headline benchmark case: SBM-Part on an n=100k, k=32
    Erdős–Rényi graph, stored as uint8 (k < 256).  This fixture pins
    the *kernel's* output (numpy and C paths agree exactly), which
    intentionally differs from the legacy loop: at this scale scores
    reach ~1.9e4, where the legacy absolute 1e-12 tie band is narrower
    than one ulp, so mathematically tied groups (adjacent doubles —
    first at stream step 47500) were resolved by ulp noise instead of
    the capacity rule.  The relative band fixes that; the downstream
    cascade relabels ~22k of 100k nodes.  That is the tie-tolerance
    bug this PR's satellite fix addresses, and the documented reason
    this one fixture is not legacy-identical.
``structures.npz``
    tails/heads arrays of the Barabási–Albert and forest-fire graphs,
    plus tails/heads/communities of LFR graphs over
    ``n in {0, 5, 1000, 20000} x mu in {0, 0.1, 0.5}`` and one
    small-community case (sizes 2-4).  The LFR entries were recorded by
    the per-community wiring loop and the pure-Python community
    assignment, before the segmented compiled wiring replaced them;
    small communities exercise the parity drop and the repair rounds
    that stop early because nothing is left to pair or nothing new was
    paired.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent

#: The headline case of the perf acceptance: n=100k, k=32 (uint8-packed).
LARGE_N = 100_000
LARGE_K = 32


def _graph(name, seed, n, **params):
    from repro.structure import create_generator

    return create_generator(name, seed=seed, **params).run(n)


def _sizes(n, k, stream_seed):
    """Capacity vector: geometric-ish sizes that sum to exactly n."""
    from repro.stats import TruncatedGeometric

    return TruncatedGeometric(0.35, k).sizes(n)


def _target(table, k, homophily):
    from repro.core.matching import edge_count_target
    from repro.stats import homophily_joint

    joint = homophily_joint(np.full(k, 1.0 / k), homophily)
    return edge_count_target(joint, table.num_edges)


def _order(table, seed):
    from repro.partitioning import arrival_order
    from repro.prng import RandomStream

    return arrival_order(table, "random", stream=RandomStream(seed, "arr"))


def small_cases():
    """-> {case name: assignment} for every small/medium instance."""
    from repro.core.matching import (
        bipartite_sbm_part_match,
        sbm_part_assign,
    )
    from repro.partitioning import ldg_partition
    from repro.prng import RandomStream

    lfr = _graph("lfr", 11, 600, avg_degree=12, max_degree=30, mu=0.15)
    er = _graph("erdos_renyi_m", 12, 3_000, edges_per_node=6)
    ff = _graph("forest_fire", 13, 800, p=0.37)

    out = {}

    # -- monopartite SBM-Part: graphs x settings --------------------------
    for gname, table, k in (("lfr", lfr, 8), ("er", er, 16), ("ff", ff, 5)):
        n = table.num_nodes
        sizes = _sizes(n, k, 0)
        target = _target(table, k, 0.6)
        order = _order(table, 21)
        out[f"sbm.{gname}.natural"] = sbm_part_assign(
            table, sizes, target
        )
        out[f"sbm.{gname}.random"] = sbm_part_assign(
            table, sizes, target, order=order
        )
    # Setting ablations on the LFR instance.
    n = lfr.num_nodes
    sizes = _sizes(n, 8, 0)
    target = _target(lfr, 8, 0.4)
    order = _order(lfr, 22)
    out["sbm.lfr.greedy_cold"] = sbm_part_assign(
        lfr, sizes, target, order=order, cold_start="greedy"
    )
    out["sbm.lfr.multiply_gain"] = sbm_part_assign(
        lfr, sizes, target, order=order, negative_gain="multiply"
    )
    out["sbm.lfr.unweighted"] = sbm_part_assign(
        lfr, sizes, target, order=order, capacity_weighting=False
    )
    out["sbm.lfr.tie_stream"] = sbm_part_assign(
        lfr, sizes, target, order=order,
        tie_stream=RandomStream(77, "golden.ties"),
    )

    # -- LDG --------------------------------------------------------------
    for gname, table, k in (("lfr", lfr, 4), ("er", er, 8)):
        n = table.num_nodes
        caps = np.full(k, -(-n // k), dtype=np.int64)
        out[f"ldg.{gname}.plain"] = ldg_partition(table, caps)
        out[f"ldg.{gname}.random"] = ldg_partition(
            table, caps, order=_order(table, 23)
        )
        out[f"ldg.{gname}.ties"] = ldg_partition(
            table, caps, order=_order(table, 23),
            tie_stream=RandomStream(9, "golden.ldg"),
        )

    # -- bipartite SBM-Part ----------------------------------------------
    from repro.tables import EdgeTable, PropertyTable

    rng = np.random.default_rng(31)
    nt, nh, m = 300, 500, 2_400
    tail_values = np.repeat([0, 1, 2], [100, 100, 100])
    head_values = np.repeat([0, 1, 2], [200, 150, 150])
    value = rng.integers(0, 3, size=m)
    tails = np.where(
        rng.random(m) < 0.85,
        rng.integers(0, 100, size=m) + value * 100,
        rng.integers(0, nt, size=m),
    )
    heads = np.where(
        rng.random(m) < 0.85,
        rng.integers(0, 150, size=m)
        + np.array([0, 200, 350])[value],
        rng.integers(0, nh, size=m),
    )
    btable = EdgeTable(
        "likes", tails, heads,
        num_tail_nodes=nt, num_head_nodes=nh, directed=True,
    )
    joint = np.array(
        [[0.30, 0.02, 0.02],
         [0.02, 0.28, 0.02],
         [0.02, 0.02, 0.30]]
    )
    for label, order in (
        ("natural", None),
        ("random", RandomStream(41, "bip.arr").permutation(nt + nh)),
    ):
        result = bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            joint,
            btable,
            order=order,
        )
        out[f"bip.{label}.tail"] = result.tail_assignment
        out[f"bip.{label}.head"] = result.head_assignment
    out["bip.unweighted.tail"], out["bip.unweighted.head"] = (
        lambda r: (r.tail_assignment, r.head_assignment)
    )(
        bipartite_sbm_part_match(
            PropertyTable("t", tail_values),
            PropertyTable("h", head_values),
            joint,
            btable,
            capacity_weighting=False,
        )
    )
    return out


def large_case():
    """The acceptance case: SBM-Part on n=100k, k=32 (uint8 packed)."""
    from repro.core.matching import sbm_part_assign

    table = _graph(
        "erdos_renyi_m", 14, LARGE_N, edges_per_node=8
    )
    sizes = np.full(LARGE_K, LARGE_N // LARGE_K, dtype=np.int64)
    target = _target(table, LARGE_K, 0.6)
    order = _order(table, 24)
    assignment = sbm_part_assign(table, sizes, target, order=order)
    assert assignment.max() < 256
    return {"sbm.er100k.k32": assignment.astype(np.uint8)}


#: LFR golden instances: name -> (seed, n, params).  ``n = 5`` needs a
#: mean degree below ``n - 1``; the last case uses communities of 2-4.
LFR_CASES = {
    **{
        f"lfr.n{n}.mu{mu}": (17, n, dict(params, mu=mu))
        for n, params in (
            (0, {}),
            (5, {"avg_degree": 2, "max_degree": 4}),
            (1000, {}),
            (20000, {}),
        )
        for mu in (0.0, 0.1, 0.5)
    },
    "lfr.small_communities": (3, 500, {
        "mu": 0.3, "min_community": 2, "max_community": 4,
        "avg_degree": 3, "max_degree": 6,
    }),
}


def structure_cases():
    """Edge arrays of the rewritten structure generators."""
    from repro.structure import create_generator

    ba = _graph("barabasi_albert", 15, 500, m=4)
    ff = _graph("forest_fire", 16, 700, p=0.40, max_burn=60)
    out = {
        "ba.tails": ba.tails, "ba.heads": ba.heads,
        "ff.tails": ff.tails, "ff.heads": ff.heads,
    }
    for name, (seed, n, params) in LFR_CASES.items():
        result = create_generator("lfr", seed=seed, **params)
        result = result.run_with_labels(n)
        out[f"{name}.tails"] = result.table.tails
        out[f"{name}.heads"] = result.table.heads
        out[f"{name}.communities"] = result.communities
    return out


def regenerate():
    written = []
    for name, build in (
        ("matching_small.npz", small_cases),
        ("matching_large.npz", large_case),
        ("structures.npz", structure_cases),
    ):
        path = GOLDEN_DIR / name
        np.savez_compressed(path, **build())
        written.append(path)
    return written


if __name__ == "__main__":
    for path in regenerate():
        print(f"wrote {path}")
