"""Pure task implementations shared by the serial and parallel engines.

The engine used to run each DAG task as a method mutating the result
graph in place.  That coupling blocked shard-parallel execution, so the
task bodies now live here in three functional layers:

* **kernels** — pure functions of explicit, picklable inputs
  (``property_shard_values``, ``generate_structure``, ``match_edge``).
  A kernel re-derives its random stream from ``(root seed, task id)``,
  so *any* process given the same inputs computes bit-identical output:
  the in-place contract of Section 4.1 that makes distributed
  generation possible.
* **input extraction** — ``*_inputs`` helpers that read a task's
  dependencies out of the partially-built :class:`PropertyGraph` in the
  coordinating process.
* **integration** — ``apply_task``, which composes extraction, kernel
  and result storage for the serial path; the parallel executor uses
  the same extraction/kernel pieces but runs kernels in a worker pool.
* **bounded-memory reads** — the structure handles
  (``structure_handle``) and the ``RelabeledEdges`` view over the
  uncorrelated ``matching_maps``, shared by the sharded executor and
  the serving layer so neither keeps its own copy.

Property kernels additionally accept an id *range*: generating rows
``[start, stop)`` with the full-table stream is bit-identical to the
corresponding slice of single-shot generation, which is what lets the
executor shard large property tables across workers (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..prng import RandomStream, derive_seed
from ..properties.registry import create_property_generator
from ..structure.registry import create_generator
from ..tables import PropertyTable
from .dependency import DependencyError
from .matching import (
    bipartite_sbm_part_match,
    random_match,
    sbm_part_match,
)
from .schema import Cardinality, SchemaError

__all__ = [
    "ChunkedStructure",
    "RelabeledEdges",
    "SpooledStructure",
    "StructureHandle",
    "align_joint",
    "apply_task",
    "correlated_match",
    "edge_property_inputs",
    "export_task_output",
    "generate_structure",
    "match_edge",
    "match_inputs",
    "match_prepare",
    "matching_maps",
    "node_property_inputs",
    "property_shard_values",
    "property_values_at",
    "resolve_count",
    "store_task_output",
    "structure_handle",
    "structure_inputs",
]

#: structures-dict key prefix for match-prepare outputs (stream
#: precomputation is an intermediate, like pre-matching structures).
_PREP_KEY = "__match_prep__:"


# -- kernels (picklable inputs; safe to run in worker processes) -------------


def property_shard_values(
    spec, task_id, seed, start, stop, dep_slices=(), out=None
):
    """Values of the id range ``[start, stop)`` of one property table.

    ``dep_slices`` are the dependency columns *aligned with the range*
    (row ``j`` belongs to instance ``start + j``).  Because the stream
    seed depends only on ``(seed, task_id)`` and ``run_many`` is a pure
    function of ``(id, r(id), deps)``, the concatenation of shard
    outputs is bit-identical to single-shot generation — including the
    dtype when the range is empty, which the generator's
    ``output_dtype`` governs via its empty ``run_many`` result.

    ``out`` is an optional preallocated buffer view for the range
    (shared-memory backends only): generators that declare
    ``supports_out`` fill it in place, so the executor assembles a
    sharded table without a concatenation copy.  Generators without
    the flag — e.g. third-party PGs — transparently fall back to the
    allocating path, with the result copied into ``out`` here.
    """
    generator = create_property_generator(spec.name, **spec.params)
    stream = RandomStream(derive_seed(seed, task_id))
    ids = np.arange(start, stop, dtype=np.int64)
    deps = [np.asarray(col) for col in dep_slices]
    if out is None:
        return generator.run_many(ids, stream, *deps)
    if getattr(generator, "supports_out", False):
        return generator.run_many(ids, stream, *deps, out=out)
    out[:] = generator.run_many(ids, stream, *deps)
    return out


def property_values_at(spec, task_id, seed, ids, dep_slices=()):
    """Values of an *arbitrary* id subset of one property table.

    The random-access twin of :func:`property_shard_values`: instead of
    a contiguous range, ``ids`` picks any rows, and ``dep_slices`` are
    the dependency columns aligned with ``ids``.  Built on the PG
    protocol's ``properties_of``, so for random-access generators the
    result is byte-identical to gathering ``ids`` from a full run —
    the kernel the virtual-graph serving layer answers point and page
    queries with (see docs/serving.md).
    """
    generator = create_property_generator(spec.name, **spec.params)
    stream = RandomStream(derive_seed(seed, task_id))
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    deps = [np.asarray(col) for col in dep_slices]
    return generator.properties_of(ids, stream, *deps)


def generate_structure(spec, sg_seed, n):
    """Run a structure generator: the pre-matching edge table."""
    generator = create_generator(spec.name, seed=sg_seed, **spec.params)
    return generator.run(n)


class StructureHandle:
    """Metadata of a pre-matching structure, without its edge columns.

    Quacks like an :class:`~repro.tables.EdgeTable` for the metadata
    consumers (:func:`resolve_count`, :func:`matching_maps`).  The
    subclasses add ``read_range(lo, hi)`` and ``load()``.
    """

    def __init__(self, name, num_edges, num_tail_nodes, num_head_nodes,
                 directed):
        self.name = name
        self.num_edges = int(num_edges)
        self.num_tail_nodes = int(num_tail_nodes)
        self.num_head_nodes = int(num_head_nodes)
        self.directed = bool(directed)

    def __len__(self):
        return self.num_edges

    @property
    def is_bipartite(self):
        return self.num_tail_nodes != self.num_head_nodes

    @property
    def num_nodes(self):
        if self.is_bipartite:
            raise ValueError(
                f"structure {self.name!r} is bipartite; use "
                "num_tail_nodes / num_head_nodes"
            )
        return self.num_tail_nodes


class ChunkedStructure(StructureHandle):
    """Chunkable generator: edges re-emitted on demand, never resident.

    Picklable (the chunk stream carries counter-based streams and
    spill views, no closures), so worker processes re-emit edges in
    place.
    """

    def __init__(self, stream):
        super().__init__(
            stream.name, stream.num_edges, stream.num_tail_nodes,
            stream.num_head_nodes, stream.directed,
        )
        self._stream = stream

    def read_range(self, lo, hi):
        return self._stream.emit(lo, hi)

    def load(self):
        return self._stream.to_edge_table()


class SpooledStructure(StructureHandle):
    """A materialised edge table spilled to scratch and memory-mapped."""

    def __init__(self, spill, table):
        super().__init__(
            table.name, len(table), table.num_tail_nodes,
            table.num_head_nodes, table.directed,
        )
        self._tails = spill("tails", table.tails)
        self._heads = spill("heads", table.heads)

    def read_range(self, lo, hi):
        return (
            np.asarray(self._tails[lo:hi]),
            np.asarray(self._heads[lo:hi]),
        )

    def load(self):
        from ..tables import EdgeTable

        return EdgeTable(
            self.name,
            np.asarray(self._tails),
            np.asarray(self._heads),
            num_tail_nodes=self.num_tail_nodes,
            num_head_nodes=self.num_head_nodes,
            directed=self.directed,
        )


def structure_handle(generator, n, spool, prefix):
    """Run a structure generator into a bounded-memory handle.

    Chunkable configurations become a :class:`ChunkedStructure` with
    ``spool.shard_rows``-edge chunks; sequential ones are a global
    stage: materialised once, spilled under ``prefix`` and freed.
    """
    spill = spool.spiller(prefix)
    if generator.chunkable(n):
        return ChunkedStructure(
            generator.run_chunked(n, spool.shard_rows, spill=spill)
        )
    return SpooledStructure(spill, generator.run(n))


class RelabeledEdges:
    """Final edges of a permutation matching: a structure handle seen
    through its matching maps (``None`` keeps a side's ids).

    ``read_range(lo, hi)`` relabels one page as it is re-emitted, so
    the O(nodes) maps are the only resident state.  With spilled maps
    (:meth:`spilled`) the view pickles as spool paths, which is how
    process workers relabel shards in place.
    """

    def __init__(self, structure, tail_map, head_map):
        self.structure = structure
        self.tail_map = tail_map
        self.head_map = head_map
        self.name = structure.name
        self.directed = structure.directed
        self.num_tail_nodes = (
            structure.num_tail_nodes if tail_map is None
            else len(tail_map)
        )
        self.num_head_nodes = (
            structure.num_head_nodes if head_map is None
            else len(head_map)
        )

    def __len__(self):
        return len(self.structure)

    def read_range(self, lo, hi):
        """Final ``(tails, heads)`` of edge ids ``[lo, hi)``."""
        tails, heads = self.structure.read_range(lo, hi)
        if self.tail_map is not None:
            tails = np.asarray(self.tail_map[tails])
        if self.head_map is not None:
            heads = np.asarray(self.head_map[heads])
        return tails, heads

    def spilled(self, spill):
        """The same view with its maps parked through ``spill``."""
        tail_map = head_map = None
        if self.tail_map is not None:
            tail_map = spill("tail_map", self.tail_map)
        if self.head_map is self.tail_map:
            head_map = tail_map
        elif self.head_map is not None:
            head_map = spill("head_map", self.head_map)
        return RelabeledEdges(self.structure, tail_map, head_map)


def match_prepare(seed, edge_name, structure, counts_tables=None):
    """Stream-order precomputation for a correlated matching step.

    A pure function of ``(seed, edge name, structure)``: re-derives the
    arrival permutation exactly as :func:`match_edge` would (from the
    ``match:<edge>`` stream) and builds the streaming kernel's
    :class:`~repro.core.matching.kernel.MatchPrep` — CSR adjacency,
    arrival positions, cold-prefix length and (on the numpy path) the
    later-neighbour counts tables.  Because it is pure and picklable,
    the parallel executor runs it in a worker as soon as the structure
    exists, overlapping it with the rest of the DAG.
    """
    from .matching.kernel import prepare_match_stream, resolve_impl

    stream = RandomStream(derive_seed(seed, f"match:{edge_name}"))
    order = stream.substream("arrival").permutation(
        structure.num_nodes
    )
    if counts_tables is None:
        counts_tables = resolve_impl("auto") == "numpy"
    return prepare_match_stream(
        structure, order, counts_tables=counts_tables
    )


def correlated_match(edge):
    """True when ``edge`` is matched by SBM-Part, a global stage.

    Strict-cardinality edges ignore correlations, and a bipartite edge
    needs a head property as well; everything else is matched through
    the permutation maps of :func:`matching_maps`.
    """
    corr = edge.correlation
    return (
        corr is not None
        and not _is_strict(edge)
        and (edge.is_monopartite or corr.head_property is not None)
    )


def _is_strict(edge):
    return edge.cardinality in (
        Cardinality.ONE_TO_MANY, Cardinality.ONE_TO_ONE
    )


def _check_monopartite_fit(edge, structure, tail_count):
    if structure.num_nodes > tail_count:
        raise SchemaError(
            f"edge {edge.name!r}: structure has {structure.num_nodes}"
            f" nodes but {edge.tail_type!r} has {tail_count} instances"
        )


def matching_maps(edge, seed, task_id, structure, tail_count,
                  head_count):
    """``(tail_map, head_map)`` of an uncorrelated matching.

    The maps are pure functions of ``(seed, task_id)`` and the
    structure's node counts, which is what lets every execution mode
    relabel edges chunk by chunk.  ``structure`` needs only the
    :class:`~repro.tables.EdgeTable` metadata, so a
    :class:`StructureHandle` works too.  A ``head_map`` of ``None`` is
    the identity; for monopartite edges both maps are one array.
    """
    stream = RandomStream(derive_seed(seed, task_id))
    if _is_strict(edge):
        # Tails are matched to tail-type ids (randomly: a permutation
        # preserves the degree distribution); heads keep identity
        # because they *define* the head instances.
        if structure.num_tail_nodes > tail_count:
            raise SchemaError(
                f"edge {edge.name!r}: structure has more tails than "
                f"{edge.tail_type!r} instances"
            )
        tail_map = stream.substream("tails").permutation(tail_count)
        return tail_map[:structure.num_tail_nodes], None
    if not edge.is_monopartite:
        # Bipartite many-to-many: permute each side.
        tail_map = stream.substream("tails").permutation(
            tail_count
        )[:structure.num_tail_nodes]
        head_map = stream.substream("heads").permutation(
            head_count
        )[:structure.num_head_nodes]
        return tail_map, head_map
    _check_monopartite_fit(edge, structure, tail_count)
    pt_ids = PropertyTable(
        edge.name, np.arange(tail_count, dtype=np.int64)
    )
    mapping = random_match(
        pt_ids, structure, seed=derive_seed(seed, task_id)
    )
    return mapping, mapping


def match_edge(
    edge,
    seed,
    task_id,
    structure,
    tail_count,
    head_count,
    tail_pt=None,
    head_pt=None,
    prep=None,
):
    """Assign final node ids to a structure (the matching step).

    Parameters
    ----------
    edge:
        the :class:`~repro.core.schema.EdgeType` being matched.
    seed, task_id:
        root seed and ``"match:<edge>"`` — the stream derivation.
    structure:
        the pre-matching :class:`~repro.tables.EdgeTable`.
    tail_count, head_count:
        instance counts of the endpoint types (the id spaces matched
        into).
    tail_pt, head_pt:
        correlated property tables, when ``edge.correlation`` asks for
        them.
    prep:
        optional :class:`~repro.core.matching.kernel.MatchPrep` built
        by :func:`match_prepare` (carries the arrival order, so it is
        bit-identical to computing it here).

    Returns
    -------
    (EdgeTable, match_result):
        the final edge table and the matcher diagnostics (``None`` for
        random/permutation matching).
    """
    if not correlated_match(edge):
        tail_map, head_map = matching_maps(
            edge, seed, task_id, structure, tail_count, head_count
        )
        if head_map is None:
            head_map = np.arange(structure.num_head_nodes, dtype=np.int64)
        return structure.relabeled(tail_map, head_map), None

    stream = RandomStream(derive_seed(seed, task_id))
    corr = edge.correlation
    if not edge.is_monopartite:
        match = bipartite_sbm_part_match(
            tail_pt,
            head_pt,
            np.asarray(corr.joint, dtype=np.float64),
            structure,
            order=stream.substream("arrival").permutation(
                structure.num_tail_nodes + structure.num_head_nodes
            ),
        )
        final = structure.relabeled(
            match.tail_mapping, match.head_mapping
        )
        return final, match

    _check_monopartite_fit(edge, structure, tail_count)
    _, categories = tail_pt.codes()
    joint = align_joint(corr.joint, list(categories), corr.values)
    if prep is None:
        order = stream.substream("arrival").permutation(
            structure.num_nodes
        )
    else:
        order = prep.order  # same permutation, built by match_prepare
    match = sbm_part_match(
        tail_pt,
        joint,
        structure,
        order=order,
        tie_stream=stream.substream("ties"),
        prep=prep,
    )
    return structure.relabeled(match.mapping), match


def align_joint(joint, categories, values):
    """Reorder a joint's matrix into sorted-category order.

    The declared joint may cover values that happen not to occur in
    the generated PT (small scale factors); those rows/columns are
    dropped and the matrix renormalised.  Observed values missing
    from the declaration are an error.
    """
    from ..stats import JointDistribution

    if values is None:
        return joint
    values = list(values)
    position = {v: i for i, v in enumerate(values)}
    unknown = [c for c in categories if c not in position]
    if unknown:
        raise SchemaError(
            "property values not covered by the correlation "
            f"declaration: {unknown!r}"
        )
    perm = np.array(
        [position[c] for c in categories], dtype=np.int64
    )
    matrix = np.asarray(
        joint.matrix if isinstance(joint, JointDistribution) else joint,
        dtype=np.float64,
    )
    reordered = matrix[np.ix_(perm, perm)]
    if reordered.sum() <= 0:
        raise SchemaError(
            "correlation joint has no mass on the observed values"
        )
    if isinstance(joint, JointDistribution):
        return JointDistribution(reordered)
    return reordered / reordered.sum()


# -- input extraction (runs in the coordinating process) ---------------------


def resolve_count(schema, scale, task, structures):
    """Instance count of a node type: scale anchor or structure size."""
    name = task.subject
    if name in scale:
        return int(scale[name])
    # Inferred from a structure task (listed as the dependency).
    for dep in task.depends_on:
        if dep.startswith("structure:"):
            edge_name = dep[len("structure:"):]
            edge = schema.edge_type(edge_name)
            table = structures[edge_name]
            if edge.head_type == name:
                return table.num_head_nodes
            return table.num_tail_nodes
    raise DependencyError(f"count task for {name!r} has no source")


def structure_inputs(schema, scale, seed, task, node_counts):
    """-> ``(spec, sg_seed, n)`` for :func:`generate_structure`.

    Resolves the ``n`` to call ``run`` with (Section 4.2): an edge-count
    anchor is inverted through ``get_num_nodes`` ("use the result to
    size the graph structure and the number of Persons"); otherwise the
    tail type's instance count is used.  ``get_num_nodes`` is stateless,
    so sizing here and generating in a worker stays bit-identical.
    """
    edge = schema.edge_type(task.subject)
    if edge.structure is None:
        raise SchemaError(
            f"edge type {edge.name!r}: no structure generator declared"
        )
    sg_seed = derive_seed(seed, task.task_id)
    if edge.name in scale:
        generator = create_generator(
            edge.structure.name, seed=sg_seed, **edge.structure.params
        )
        n = generator.get_num_nodes(int(scale[edge.name]))
    else:
        n = node_counts[edge.tail_type]
    return edge.structure, sg_seed, n


def node_property_inputs(schema, task, result):
    """-> ``(spec, count, dep_arrays)`` for a node property task."""
    type_name, prop_name = task.subject.split(".", 1)
    node_type = schema.node_type(type_name)
    prop = node_type.property_named(prop_name)
    if prop.generator is None:
        raise SchemaError(
            f"{task.subject}: no property generator declared"
        )
    count = result.node_counts[type_name]
    dep_arrays = [
        result.node_property(type_name, dep).values
        for dep in prop.depends_on
    ]
    return prop.generator, count, dep_arrays


def edge_property_inputs(schema, task, result):
    """-> ``(spec, count, dep_arrays)`` for an edge property task.

    Endpoint-property dependencies (``tail.x`` / ``head.x``) are
    gathered through the final edge table so the per-edge dependency
    columns line up with edge ids.
    """
    edge_name, prop_name = task.subject.split(".", 1)
    edge = schema.edge_type(edge_name)
    prop = edge.property_named(prop_name)
    if prop.generator is None:
        raise SchemaError(
            f"{task.subject}: no property generator declared"
        )
    table = result.edge_tables[edge_name]
    dep_arrays = []
    for dep in prop.depends_on:
        if dep.startswith("tail."):
            pt = result.node_property(edge.tail_type, dep[len("tail."):])
            dep_arrays.append(pt.gather(table.tails))
        elif dep.startswith("head."):
            pt = result.node_property(edge.head_type, dep[len("head."):])
            dep_arrays.append(pt.gather(table.heads))
        else:
            dep_arrays.append(
                result.edge_property(edge_name, dep).values
            )
    return prop.generator, len(table), dep_arrays


def match_inputs(schema, task, result, structures):
    """-> kwargs for :func:`match_edge` (minus seed/task_id)."""
    edge = schema.edge_type(task.subject)
    structure = structures[edge.name]
    tail_pt = head_pt = None
    # Permutation matchings ignore properties, so don't ship the
    # property tables into the kernel (they'd be pickled for nothing
    # on the process backend).
    if correlated_match(edge):
        corr = edge.correlation
        tail_pt = result.node_property(
            edge.tail_type, corr.tail_property
        )
        if corr.head_property is not None:
            head_pt = result.node_property(
                edge.head_type, corr.head_property
            )
    return {
        "edge": edge,
        "structure": structure,
        "tail_count": result.node_counts[edge.tail_type],
        "head_count": result.node_counts[edge.head_type],
        "tail_pt": tail_pt,
        "head_pt": head_pt,
        "prep": structures.get(_PREP_KEY + edge.name),
    }


# -- integration --------------------------------------------------------------


def store_task_output(task, result, structures, output):
    """Write one task's kernel output into the result graph."""
    if task.kind == "count":
        result.node_counts[task.subject] = output
    elif task.kind == "property":
        result.node_properties[task.subject] = PropertyTable(
            task.subject, output
        )
    elif task.kind == "structure":
        structures[task.subject] = output
    elif task.kind == "match_prepare":
        structures[_PREP_KEY + task.subject] = output
    elif task.kind == "match":
        table, match = output
        result.edge_tables[task.subject] = table
        result.match_results[task.subject] = match
    elif task.kind == "edge_property":
        result.edge_properties[task.subject] = PropertyTable(
            task.subject, output
        )
    else:  # pragma: no cover - guarded by build_task_graph
        raise DependencyError(f"unknown task kind {task.kind!r}")


#: task kind -> the sink event it maps to.  ``structure`` outputs are
#: pre-matching intermediates and are never exported.
_EXPORT_EVENTS = {
    "count": "count",
    "property": "node_property",
    "match": "edge_table",
    "edge_property": "edge_property",
}


def export_task_output(task, sink):
    """Announce one completed task to a streaming export sink.

    Both engines call this in *serial plan order* — each task only
    after every plan-order predecessor has completed — which is the
    ordering guarantee sinks rely on to flush record-oriented files at
    the earliest correct moment (see
    :class:`repro.io.streaming.GraphSink`).  The sink reads the task's
    table out of the result graph it was attached to via ``begin`` and
    streams it in id-range chunks, so export overlaps generation
    without re-materialising any table.
    """
    if sink is None:
        return
    event = _EXPORT_EVENTS.get(task.kind)
    if event is not None:
        sink.on_table(event, task.subject)


def apply_task(task, schema, scale, seed, result, structures):
    """Run one task inline and integrate it — the serial engine's step."""
    if task.kind == "count":
        output = resolve_count(schema, scale, task, structures)
    elif task.kind == "property":
        spec, count, deps = node_property_inputs(schema, task, result)
        output = property_shard_values(
            spec, task.task_id, seed, 0, count, deps
        )
    elif task.kind == "structure":
        spec, sg_seed, n = structure_inputs(
            schema, scale, seed, task, result.node_counts
        )
        output = generate_structure(spec, sg_seed, n)
    elif task.kind == "match_prepare":
        output = match_prepare(
            seed, task.subject, structures[task.subject]
        )
    elif task.kind == "match":
        output = match_edge(
            seed=seed,
            task_id=task.task_id,
            **match_inputs(schema, task, result, structures),
        )
    elif task.kind == "edge_property":
        spec, count, deps = edge_property_inputs(schema, task, result)
        output = property_shard_values(
            spec, task.task_id, seed, 0, count, deps
        )
    else:  # pragma: no cover - guarded by build_task_graph
        raise DependencyError(f"unknown task kind {task.kind!r}")
    store_task_output(task, result, structures, output)
