"""Workload definitions shared by the driver (run.py) and worker.py.

See README.md beside this file for why each workload was chosen.
"""

SOCIAL_SCALE = {"Person": 100_000}

#: generation workloads: one operation is one full ``scenario run``,
#: repeated for ``--seconds`` and at least ``min_runs`` times.
GENERATION = {
    "social_inmem": {
        "recipe": "social_network",
        "scale": SOCIAL_SCALE,
        "audit": True,
        "sharded": None,
        "min_runs": 2,
    },
    "bipartite_match": {
        "recipe": "recommender_bipartite",
        "scale": {"User": 200_000, "Item": 100_000},
        "audit": False,
        "sharded": None,
        "min_runs": 2,
    },
    "social_sharded_proc": {
        "recipe": "social_network",
        "scale": SOCIAL_SCALE,
        # Validation off, as docs/scaling.md advises for out-of-core
        # runs (the audit would materialise the whole graph).
        "audit": False,
        "sharded": {"shard_rows": 131_072, "backend": "process",
                    "workers": 2},
        # Two workers and the parent keep both CPUs of a 2-CPU host busy,
        # so one run's time varies by about +-8% on its own (the host
        # speed probe cannot correct that part): the median of four.
        "min_runs": 4,
        # The in-memory workload whose export this one must equal.
        "reference": "social_inmem",
    },
}

#: the keep-alive serving workload.
SERVE = {
    "recipe": "social_network",
    "scale": SOCIAL_SCALE,
    "connections": 2,
    "limit": 64,
    # route -> share of the seeded uniform mix.
    "mix": {
        "neighbors": 0.30,
        "node": 0.20,
        "properties": 0.20,
        "edges": 0.15,
        "nodes": 0.15,
    },
}

WORKLOADS = list(GENERATION) + ["serve_keepalive"]


def request_stream(seed, connection, counts):
    """Endless seeded ``(route, arg)`` sequence for one connection.

    ``arg`` is a node id for ``neighbors``/``node`` and a page offset
    otherwise; ``counts`` holds the served graph's ``persons``,
    ``messages`` and ``knows`` totals.
    """
    import random

    rng = random.Random(f"serve_keepalive:{seed}:{connection}")
    # Every block of 20 requests holds the mix's exact shares in a
    # seeded order, so the mix does not drift with the seed.
    block = [route for route, share in SERVE["mix"].items()
             for _ in range(round(share * 20))]
    limit = SERVE["limit"]
    span = {
        "neighbors": counts["persons"],
        "node": counts["persons"],
        "properties": counts["messages"] - limit + 1,
        "edges": counts["knows"] - limit + 1,
        "nodes": counts["persons"] - limit + 1,
    }
    while True:
        rng.shuffle(block)
        for route in block:
            yield route, rng.randrange(span[route])


def request_path(route, arg):
    """The HTTP path of one ``(route, arg)`` request."""
    limit = SERVE["limit"]
    return {
        "neighbors": f"/neighbors/knows/{arg}?limit={limit}",
        "node": f"/nodes/Person/{arg}",
        "properties": f"/properties/Message/text?offset={arg}"
                      f"&limit={limit}",
        "edges": f"/edges/knows?offset={arg}&limit={limit}",
        "nodes": f"/nodes/Person?offset={arg}&limit={limit}",
    }[route]


def scale_args(scale):
    """``--scale`` CLI arguments for a scale dict."""
    args = []
    for name, count in scale.items():
        args += ["--scale", f"{name}={count}"]
    return args
