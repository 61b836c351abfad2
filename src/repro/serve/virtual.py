"""The virtual graph: random-access queries straight from a recipe.

A :class:`VirtualGraph` holds *no* node or edge tables.  It resolves a
schema + scale + seed into metadata (counts, matching maps, structure
chunk streams) and answers point and page queries by recomputing
exactly the rows a full :meth:`~repro.core.engine.GraphGenerator.
generate` run would have produced — byte-identical, because every
stage it touches is a pure function of ``(seed, indices)``:

* **node properties** — the PG protocol's ``properties_of`` via
  :func:`~repro.core.tasks.property_values_at`, with intra-type
  dependencies resolved recursively on the queried ids only;
* **edges** — the structure handles of the sharded executor
  (:func:`~repro.core.tasks.structure_handle`) re-emit any edge page
  from the seed, and a :class:`~repro.core.tasks.RelabeledEdges` view
  relabels it through the permutation maps of
  :func:`~repro.core.tasks.matching_maps`, the derivation the serial
  ``match_edge`` uses too.  The maps are the documented O(nodes) term;
  they are spilled to a disk spool and memory-mapped, so query-time
  allocation stays O(page + chunk);
* **edge properties** — the same PG kernel, with ``tail.x``/``head.x``
  dependencies gathered by *recomputing* the endpoint properties at
  the page's endpoint ids (random access again, no node table);
* **neighbourhoods / edge-existence** — a bounded scan over the edge
  pages (O(m) compute, O(chunk) memory).

Two configurations fall back to a documented **spooled** mode, exactly
mirroring the sharded executor's concessions: sequential structure
generators (the table is materialised once, spilled, and paged from
disk) and correlated (SBM-Part) matching (the final table is computed
once at first touch, spilled, and paged from disk).  The
:meth:`VirtualGraph.classification` report says which mode each edge
type is in and why — that is the protocol flag surfaced to clients.

Planted scenarios (a ``plants:`` block in the recipe) are served as a
bounded overlay: the :func:`~repro.planting.plant.plan_plants` plan is
a pure function of ``(plants, node counts, base edge counts, seed)``,
so the serving layer computes the *same* plan the exporters do.
Each matched edge table is wrapped in the exporters'
:class:`~repro.planting.overlay.OverlayEdgeTable`, so appended plant
edges occupy the contiguous id range ``[m, m+e)`` after the generated
block; forced node attributes patch the public
node-property queries, and dependent edge properties over the
appended ids are recomputed through the same random-access kernel —
so ``neighbors_of`` / ``edge_exists`` see the injected patterns and
every page matches the exported planted world byte for byte.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from ..core.dependency import build_task_graph
from ..core.schema import SchemaError
from ..core.tasks import (
    RelabeledEdges,
    SpooledStructure,
    correlated_match,
    match_edge,
    matching_maps,
    property_values_at,
    resolve_count,
    structure_handle,
    structure_inputs,
)
from ..io.spool import TableSpool
from ..planting.overlay import OverlayEdgeTable, patch_gathered
from ..structure.registry import create_generator
from ..tables import PropertyTable

__all__ = ["VirtualGraph"]


class VirtualGraph:
    """Random-access façade over a compiled scenario (or raw schema).

    Parameters
    ----------
    schema, scale, seed:
        as for the engines.
    spool_dir:
        where matching maps and spooled fallbacks land (a temporary
        directory by default; :meth:`close` removes it when owned).
    chunk_rows:
        page/scan granularity — the memory unit of every query.
    """

    def __init__(self, schema, scale, seed=0, spool_dir=None,
                 chunk_rows=65_536, plants=None):
        self.schema = schema.validate()
        self.scale = dict(scale)
        self.seed = int(seed)
        self.chunk_rows = int(chunk_rows)
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self._owns_spool = spool_dir is None
        if spool_dir is None:
            spool_dir = tempfile.mkdtemp(prefix="repro-serve-")
        self._spool = TableSpool(Path(spool_dir), self.chunk_rows)
        self._lock = threading.RLock()
        self.node_counts = {}
        self._structures = {}
        self._random_access = {}
        self._edges = {}
        self.plan = None
        try:
            self._resolve_topology()
            if plants:
                self._resolve_plants(plants)
        except BaseException:
            self.close()
            raise

    @classmethod
    def from_scenario(cls, compiled, spool_dir=None, chunk_rows=65_536):
        """Build from a :class:`~repro.scenarios.compile.
        CompiledScenario` (what ``repro serve <recipe>`` does)."""
        return cls(
            compiled.schema, compiled.scale, seed=compiled.seed,
            spool_dir=spool_dir, chunk_rows=chunk_rows,
            plants=getattr(compiled, "plants", None),
        )

    def close(self):
        """Release mmap'd views; remove the spool when owned.

        Always drops the memory-mapped match maps (a borrowed spool
        keeps its files, but this graph's handles are closed), then
        unlinks owned directories — the signal-drain path relies on
        this to leave no ``repro-serve-*`` tempdir behind.
        """
        self._spool.close_views()
        if self._owns_spool:
            self._spool.cleanup()

    # -- topology (counts + structure metadata, no matching yet) ----------

    def _resolve_topology(self):
        order = build_task_graph(
            self.schema, self.scale
        ).topological_order()
        for task in order:
            if task.kind == "count":
                self.node_counts[task.subject] = resolve_count(
                    self.schema, self.scale, task, self._structures
                )
            elif task.kind == "structure":
                self._structures[task.subject] = self._build_source(task)

    def _build_source(self, task):
        """The pre-matching structure handle of one edge type: pages
        re-derived from the seed, or (sequential generators) the table
        materialised once and paged from the spool."""
        spec, sg_seed, n = structure_inputs(
            self.schema, self.scale, self.seed, task, self.node_counts
        )
        generator = create_generator(
            spec.name, seed=sg_seed, **spec.params
        )
        self._random_access[task.subject] = generator.random_access(n)
        return structure_handle(
            generator, n, self._spool, f"structure.{task.subject}"
        )

    # -- planting overlay --------------------------------------------------

    def _resolve_plants(self, plants):
        """Compute the plant plan against the resolved topology.

        Feeds :func:`~repro.planting.plant.plan_plants` exactly what
        :func:`~repro.scenarios.compile.run_scenario` feeds it after
        generation — node counts and *base* edge counts — so the plan
        (node maps, appended edge block, forced attributes) is
        identical to the exported one.
        """
        from ..planting import plan_plants

        base_counts = {
            name: structure.num_edges
            for name, structure in self._structures.items()
        }
        self.plan = plan_plants(
            list(plants), self.node_counts, base_counts, self.seed
        )

    def _appended_edges(self, name):
        """``(tails, heads)`` of the appended plant block (maybe empty)."""
        extra = None if self.plan is None else self.plan.appended.get(name)
        if extra is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return extra

    def _apply_node_overrides(self, type_name, prop_name, ids, values):
        """Patch forced plant attributes into a node-property page."""
        override = None if self.plan is None else self.plan.overrides.get(
            f"{type_name}.{prop_name}"
        )
        if override is None:
            return values
        return patch_gathered(values, ids, *override)

    # -- final edges (lazy, thread-safe) -----------------------------------

    def _final_edges(self, name):
        """The final edge table of ``name``: the matched base edges
        plus the appended plant block, as an
        :class:`~repro.planting.overlay.OverlayEdgeTable`."""
        edges = self._edges.get(name)
        if edges is not None:
            return edges
        with self._lock:
            edges = self._edges.get(name)
            if edges is None:
                edges = OverlayEdgeTable(
                    self._matched_edges(name), *self._appended_edges(name)
                )
                self._edges[name] = edges
            return edges

    def _matched_edges(self, name):
        edge = self.schema.edge_type(name)
        structure = self._structures[name]
        tail_count = self.node_counts[edge.tail_type]
        head_count = self.node_counts[edge.head_type]
        if correlated_match(edge):
            return self._correlated_edges(
                edge, structure, tail_count, head_count
            )
        return RelabeledEdges(structure, *matching_maps(
            edge, self.seed, f"match:{name}", structure, tail_count,
            head_count,
        )).spilled(self._spool.spiller(f"match.{name}"))

    def _correlated_edges(self, edge, structure, tail_count,
                          head_count):
        """Correlated (SBM-Part) matching — the other global stage.

        Runs the exact serial matching kernel once, spills the final
        table, and pages it from disk; byte-identical to ``generate``
        because it *is* the serial kernel.
        """
        corr = edge.correlation
        table = structure.load()
        tail_pt = PropertyTable(
            f"{edge.tail_type}.{corr.tail_property}",
            self._node_column(edge.tail_type, corr.tail_property),
        )
        head_pt = None
        if corr.head_property is not None:
            head_pt = PropertyTable(
                f"{edge.head_type}.{corr.head_property}",
                self._node_column(edge.head_type, corr.head_property),
            )
        table, _ = match_edge(
            edge, self.seed, f"match:{edge.name}", table,
            tail_count, head_count, tail_pt, head_pt, prep=None,
        )
        del tail_pt, head_pt
        return SpooledStructure(
            self._spool.spiller(f"final.{edge.name}"), table
        )

    def _node_column(self, type_name, prop_name):
        """One whole node-property column (global stages only).

        Raw (pre-override) values: correlated matching ran against the
        generated properties, before any plant forced its attributes.
        """
        ids = np.arange(self.node_counts[type_name], dtype=np.int64)
        return self._raw_node_properties_of(type_name, prop_name, ids)

    # -- node queries ------------------------------------------------------

    def node_count(self, type_name):
        if type_name not in self.node_counts:
            raise KeyError(f"unknown node type {type_name!r}")
        return self.node_counts[type_name]

    def node_property_names(self, type_name):
        return [
            prop.name
            for prop in self.schema.node_type(type_name).properties
        ]

    def _check_node_ids(self, type_name, ids):
        count = self.node_count(type_name)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= count):
            raise IndexError(
                f"node ids out of range [0, {count}) for "
                f"{type_name!r}"
            )
        return ids

    def _node_values(self, type_name, prop, ids, cache):
        if prop.name in cache:
            return cache[prop.name]
        if prop.generator is None:
            raise SchemaError(
                f"{type_name}.{prop.name}: no property generator "
                "declared"
            )
        node_type = self.schema.node_type(type_name)
        deps = [
            self._node_values(
                type_name, node_type.property_named(dep), ids, cache
            )
            for dep in prop.depends_on
        ]
        values = property_values_at(
            prop.generator, f"property:{type_name}.{prop.name}",
            self.seed, ids, deps,
        )
        cache[prop.name] = values
        return values

    def _raw_node_properties_of(self, type_name, prop_name, ids):
        """One property column as *generated* (no plant overrides)."""
        node_type = self.schema.node_type(type_name)
        prop = node_type.property_named(prop_name)
        ids = self._check_node_ids(type_name, ids)
        return self._node_values(type_name, prop, ids, {})

    def node_properties_of(self, type_name, prop_name, ids):
        """One property column at arbitrary node ids (O(page)).

        Plant-forced attributes are patched in, matching the exported
        overlay columns.
        """
        ids = self._check_node_ids(type_name, ids)
        values = self._raw_node_properties_of(type_name, prop_name, ids)
        return self._apply_node_overrides(
            type_name, prop_name, ids, values
        )

    def node_records(self, type_name, ids):
        """All property columns at the given ids, in schema order."""
        node_type = self.schema.node_type(type_name)
        ids = self._check_node_ids(type_name, ids)
        cache = {}
        return {
            prop.name: self._apply_node_overrides(
                type_name, prop.name, ids,
                self._node_values(type_name, prop, ids, cache),
            )
            for prop in node_type.properties
        }

    # -- edge queries ------------------------------------------------------

    def edge_count(self, name):
        """Total edges, including the appended plant block (if any)."""
        return self.base_edge_count(name) + self._appended_edges(
            name
        )[0].size

    def base_edge_count(self, name):
        """Generated (pre-injection) edges only."""
        if name not in self._structures:
            raise KeyError(f"unknown edge type {name!r}")
        return self._structures[name].num_edges

    def edge_property_names(self, name):
        return [
            prop.name
            for prop in self.schema.edge_type(name).properties
        ]

    def _check_edge_range(self, name, lo, hi):
        count = self.edge_count(name)
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= count:
            raise IndexError(
                f"edge range [{lo}, {hi}) out of bounds "
                f"[0, {count}) for {name!r}"
            )
        return lo, hi

    def edges_range(self, name, lo, hi):
        """Final ``(tails, heads)`` of edge ids ``[lo, hi)``.

        Ids past the generated block page into the appended plant
        edges, exactly like the exported overlay table.
        """
        lo, hi = self._check_edge_range(name, lo, hi)
        return self._final_edges(name).read_range(lo, hi)

    def _edge_values(self, edge, prop, ids, tails, heads, cache,
                     node_get):
        if prop.name in cache:
            return cache[prop.name]
        if prop.generator is None:
            raise SchemaError(
                f"{edge.name}.{prop.name}: no property generator "
                "declared"
            )
        deps = []
        for dep in prop.depends_on:
            if dep.startswith("tail."):
                deps.append(node_get(
                    edge.tail_type, dep[len("tail."):], tails
                ))
            elif dep.startswith("head."):
                deps.append(node_get(
                    edge.head_type, dep[len("head."):], heads
                ))
            else:
                deps.append(self._edge_values(
                    edge, edge.property_named(dep), ids, tails, heads,
                    cache, node_get,
                ))
        values = property_values_at(
            prop.generator, f"property:{edge.name}.{prop.name}",
            self.seed, ids, deps,
        )
        cache[prop.name] = values
        return values

    def _edge_property_page(self, edge, props, lo, hi):
        """Property columns (dict) for edge ids ``[lo, hi)``.

        The generated segment recomputes endpoint dependencies from the
        *raw* node columns (that is what base generation saw); the
        appended segment gathers them through the overridden columns,
        so forced plant attributes feed dependent edge properties —
        mirroring the exported overlay tables in both halves.
        """
        tails, heads = self.edges_range(edge.name, lo, hi)
        m = self.base_edge_count(edge.name)
        segments = []
        if lo < m:
            segments.append((0, min(hi, m) - lo,
                             self._raw_node_properties_of))
        if hi > m:
            segments.append((max(lo, m) - lo, hi - lo,
                             self.node_properties_of))
        pages = []
        for start, stop, node_get in segments:
            ids = np.arange(lo + start, lo + stop, dtype=np.int64)
            cache = {}
            pages.append({
                prop.name: self._edge_values(
                    edge, prop, ids, tails[start:stop],
                    heads[start:stop], cache, node_get,
                )
                for prop in props
            })
        out = {"tail": tails, "head": heads}
        for prop in props:
            columns = [page[prop.name] for page in pages] or [np.empty(0)]
            out[prop.name] = (
                columns[0] if len(columns) == 1
                else np.concatenate(columns)
            )
        return out

    def edge_properties_range(self, name, prop_name, lo, hi):
        """One edge-property column over edge ids ``[lo, hi)``.

        Endpoint dependencies (``tail.x`` / ``head.x``) are recomputed
        at the page's endpoint ids — random access end to end.
        """
        edge = self.schema.edge_type(name)
        prop = edge.property_named(prop_name)
        lo, hi = self._check_edge_range(name, lo, hi)
        return self._edge_property_page(edge, [prop], lo, hi)[
            prop.name
        ]

    def edge_records(self, name, lo, hi):
        """Endpoints plus every property column for a page of edges."""
        edge = self.schema.edge_type(name)
        lo, hi = self._check_edge_range(name, lo, hi)
        return self._edge_property_page(edge, edge.properties, lo, hi)

    def neighbors_of(self, name, node_id, direction="both"):
        """Neighbours of one (final) node id over edge type ``name``.

        A bounded scan of the final edge pages in edge-id order —
        O(m) compute, O(chunk) memory — with the same endpoint
        convention as :meth:`repro.structure.base.StructureGenerator.
        neighbors_of`.
        """
        if direction not in ("out", "in", "both"):
            raise ValueError(
                f"direction must be out/in/both, got {direction!r}"
            )
        node_id = int(node_id)
        found = []
        total = self.edge_count(name)
        for lo in range(0, total, self.chunk_rows):
            hi = min(lo + self.chunk_rows, total)
            tails, heads = self.edges_range(name, lo, hi)
            if direction in ("out", "both"):
                found.append(heads[tails == node_id])
            if direction in ("in", "both"):
                mask = heads == node_id
                if direction == "both":
                    mask &= tails != heads
                found.append(tails[mask])
        if not found:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(found)

    def edge_exists(self, name, src, dst):
        """Does the final edge ``src -> dst`` exist (either orientation
        for undirected edge types)?  Bounded scan with early exit.

        Scans the appended plant block too, so injected template edges
        are visible."""
        src, dst = int(src), int(dst)
        directed = self._structures[name].directed
        total = self.edge_count(name)
        for lo in range(0, total, self.chunk_rows):
            hi = min(lo + self.chunk_rows, total)
            tails, heads = self.edges_range(name, lo, hi)
            hit = (tails == src) & (heads == dst)
            if not directed:
                hit |= (tails == dst) & (heads == src)
            if hit.any():
                return True
        return False

    # -- metadata ----------------------------------------------------------

    def warm(self):
        """Match every edge type up front (server start-up)."""
        for name in self.schema.edge_types:
            self._final_edges(name)
        return self

    def classification(self):
        """Access-mode report: which tables are virtual and why."""
        edges = {}
        for name, edge in self.schema.edge_types.items():
            structure = self._structures[name]
            correlated = correlated_match(edge)
            random_access = (
                self._random_access[name] and not correlated
            )
            if correlated:
                mode = "spooled"
                reason = (
                    "correlated matching is a global stage; the "
                    "matched table is computed once and paged from "
                    "the disk spool"
                )
            elif random_access:
                mode = "virtual"
                reason = (
                    "seed-derived chunked emission relabeled through "
                    "spilled permutation maps"
                )
            else:
                mode = "spooled"
                reason = (
                    "sequential structure generator; edges "
                    "materialised once and paged from the disk spool"
                )
            entry = {
                "count": self.edge_count(name),
                "tail": edge.tail_type,
                "head": edge.head_type,
                "directed": structure.directed,
                "mode": mode,
                "random_access": random_access,
                "reason": reason,
                "properties": self.edge_property_names(name),
            }
            appended = self._appended_edges(name)[0].size
            if appended:
                entry["planted"] = {
                    "start": structure.num_edges,
                    "count": int(appended),
                }
            edges[name] = entry
        nodes = {
            name: {
                "count": self.node_counts[name],
                "properties": self.node_property_names(name),
            }
            for name in self.schema.node_types
        }
        return {"nodes": nodes, "edges": edges}
