"""Per-layer spans recorded from outside the program.

The benchmark does not edit the package it measures.  Instead a
:class:`Tracer` wraps public entry points of each layer (module-level
functions and class methods) for the life of one traced run, records a
span around every call, and restores the originals on ``uninstall``.

A span is ``[name, start, end, parent, top]``: ``parent`` is the index
of the span that was open when it started and ``top`` the index of its
outermost ancestor (its own index when it is top level).  Counters sit
next to the spans, so ratios come from the same boundaries.

The tracer is single-threaded: the traced paths run the scenario
serially in one process (the process backend's shard jobs run in forked
workers, which the parent-side spans time as waits).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

#: scheduler task kind -> top-level layer span name.
TASK_SPANS = {
    "count": "count",
    "property": "properties.node",
    "edge_property": "properties.edge",
    "structure": "structure",
    "match_prepare": "matching.prepare",
    "match": "matching.match",
}


class Tracer:
    """In-memory spans and counters around wrapped layer calls."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        top = index if parent is None else self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, top]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _timed(self, owner, attr, name, count=None):
        def wrapper(original):
            def call(*args, **kwargs):
                with self.span(name):
                    out = original(*args, **kwargs)
                if count is not None:
                    count(args)
                return out
            return call
        self._patch(owner, attr, wrapper)

    def install(self):
        """Wrap every layer entry point the benchmark reports on."""
        import repro.core.engine as engine
        import repro.core.sharded as sharded
        import repro.io as io
        import repro.scenarios.compile as scenario_compile
        import repro.structure.configuration as configuration
        import repro.structure.lfr as lfr
        from repro.core.checkpoint import CheckpointLedger
        from repro.core.procpool import ShardPool
        from repro.prng import RandomStream

        def task_wrapper(task_at, result_at, structures_at):
            def wrapper(original):
                def call(*args, **kwargs):
                    task = args[task_at]
                    with self.span(TASK_SPANS.get(task.kind, task.kind)):
                        out = original(*args, **kwargs)
                    self._count_task(
                        task, args[result_at], args[structures_at]
                    )
                    return out
                return call
            return wrapper

        # Serial engine: apply_task(task, schema, scale, seed, result,
        # structures); sharded: _apply(self, task, result, structures,
        # spool, pool).  Both dispatch one scheduler task per call.
        self._patch(engine, "apply_task", task_wrapper(0, 4, 5))
        self._patch(sharded.ShardedExecutor, "_apply", task_wrapper(1, 2, 3))
        for module in (engine, sharded):
            self._timed(module, "export_task_output", "io.export")
        self._timed(scenario_compile, "run_graded", "report.audit")

        def sink_wrapper(original):
            def make(*args, **kwargs):
                sink = original(*args, **kwargs)
                finish = sink.finish

                def timed_finish():
                    with self.span("io.export"):
                        return finish()
                sink.finish = timed_finish
                return sink
            return make
        self._patch(io, "make_sink", sink_wrapper)

        def count_permutation(args):
            self.counts["prng.permutation_calls"] += 1
            self.counts["prng.permutation_elems"] += int(args[1])
        self._timed(RandomStream, "permutation", "prng.permutation",
                    count_permutation)

        def count_pair_stubs(args):
            self.counts["structure.pair_stubs_calls"] += 1
        for module in (lfr, configuration):
            self._timed(module, "pair_stubs_with_repair",
                        "structure.pair_stubs", count_pair_stubs)

        def count_save(args):
            self.counts["checkpoint.saves"] += 1
        self._timed(CheckpointLedger, "save", "checkpoint.save", count_save)

        def count_retry(args):
            self.counts["procpool.retries"] += 1
        self._timed(ShardPool, "_retry", "procpool.retry", count_retry)

        def ordered_map_wrapper(original):
            # A generator: the work happens while the consumer iterates,
            # so time each next() (the parent's wait for a shard), not
            # the call that builds the generator.
            def ordered_map(*args, **kwargs):
                results = original(*args, **kwargs)
                try:
                    while True:
                        with self.span("procpool.wait"):
                            try:
                                item = next(results)
                            except StopIteration:
                                return
                        self.counts["procpool.shards"] += 1
                        yield item
                finally:
                    results.close()
            return ordered_map
        self._patch(ShardPool, "ordered_map", ordered_map_wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _count_task(self, task, result, structures):
        if task.kind == "property":
            self.counts["properties.rows"] += len(
                result.node_properties[task.subject]
            )
        elif task.kind == "edge_property":
            self.counts["properties.rows"] += len(
                result.edge_properties[task.subject]
            )
        elif task.kind == "structure":
            self.counts["structure.edges"] += len(structures[task.subject])

    # -- aggregation -------------------------------------------------------

    def seconds(self, name):
        """Total wall seconds of every span called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def nested_seconds(self, name, top_names):
        """Seconds of ``name`` spans whose top-level ancestor is one of
        ``top_names`` (e.g. permutation time inside structure spans)."""
        return sum(
            end - start for n, start, end, _, top in self.spans
            if n == name and self.spans[top][0] in top_names
        )

    def top_level_seconds(self):
        """Seconds covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)


def percentile(values, q):
    """Nearest-rank ``q``-th percentile (the maximum for small samples)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
