"""Single-iteration propagation execution (Algorithm 5) with optimizations.

One iteration is two barrier stages per partition:

* **Transfer** — scan the partition's adjacency, call ``transfer`` on each
  out-edge of each selected vertex, route the messages:

  - destination in the same partition and *inner* vertex: with local
    optimizations the combine runs immediately in memory (*local
    propagation*) — no intermediate disk I/O;
  - destination in the same partition but *boundary* vertex: spilled to
    local disk to wait for remote arrivals;
  - destination in a remote partition: grouped per remote partition; with
    an associative combine the group is merged first (*local combination*)
    so one value per distinct destination crosses the network; sends to a
    partition co-located on the same machine are free.

* **Combine** — stage the arrivals to disk, fold them with ``combine``,
  write the outputs.

Without local optimizations (levels O1/O2) every message is materialized
to disk and every cross-partition message crosses the network unmerged —
which is exactly the traffic gap Tables 2 and 3 measure.

**Fast path** (apps with ``transfer_array``): messages stay columnar from
Transfer through route and Combine — per-destination-partition
``(dests, values)`` outboxes, one stable group-by per inbox
(:func:`~repro.propagation.api.group_by_key`), arrival-order folds fed
to the app's ``combine_array`` — with every product bit-identical to
the scalar :class:`~repro.propagation.api.MessageBox` path, which
remains the oracle.

**Frontier mode** (``frontier=True``, for apps with ``uses_frontier``)
scans only each partition's active vertices per iteration: the Transfer
read is priced by a top-down/bottom-up direction switch keyed on
frontier density (Buluç–Madduri), and each partition announces its
frontier summary (bitmap or index array, whichever is smaller) to the
other machines through the regular send path.  Message products, cpu
charges and all ``propagation.*`` counters stay bit-identical to the
dense path — only the transfer-task disk reads shrink and the
``frontier.*`` counters/exchange traffic appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.storage import PartitionStore
from repro.errors import JobError
from repro.graph.io import DEGREE_BYTES, VALUE_BYTES, VERTEX_ID_BYTES
from repro.hashing import stable_hash
from repro.propagation.api import (
    MessageBox,
    PropagationApp,
    fold_by_dest,
    fold_groups,
    fold_identity,
    group_by_key,
    message_nbytes,
)
from repro.runtime.events import wall_timer
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import StageResult, Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partitioned import PartitionedGraph

__all__ = ["IterationReport", "PropagationEngine", "virtual_partition"]


def virtual_partition(key: object, num_parts: int) -> int:
    """Deterministic partition of a virtual vertex key (hash routing).

    Uses :func:`repro.hashing.stable_hash`, never the salted built-in
    ``hash`` — re-executed tasks and sibling processes must route a key
    identically regardless of ``PYTHONHASHSEED``.
    """
    return stable_hash(key) % num_parts


@dataclass
class IterationReport:
    """Cost breakdown of one propagation iteration.

    The ``frontier_*`` fields are populated only in frontier mode: the
    total active vertices scanned, the frontier-summary bytes exchanged
    between machines, the per-partition top-down/bottom-up direction
    flips relative to the previous iteration, and the number of
    partitions scanned bottom-up.
    """

    transfer_stage: StageResult
    combine_stage: StageResult
    messages_emitted: int = 0
    messages_shipped: int = 0
    network_bytes: float = 0.0
    spill_bytes: float = 0.0
    locally_propagated: int = 0
    frontier_active: int = 0
    frontier_exchange_bytes: float = 0.0
    frontier_direction_switches: int = 0
    frontier_bottom_up_scans: int = 0

    @property
    def elapsed(self) -> float:
        return self.combine_stage.end_time - self.transfer_stage.start_time


@dataclass
class _FrontierInfo:
    """Frontier-mode plan for one partition in one iteration.

    ``active`` holds the partition's active vertices ascending — the
    same enumeration order as the dense path's select-filtered scan, so
    both paths emit the identical message sequence.  ``read_bytes``
    prices the planned scan (frontier-row gather or full sequential
    scan) and replaces the dense transfer-task read; ``resident_bytes``
    is the matching working set for the memory-penalty rule.
    ``exchange_sends`` carries the frontier summary to every other
    machine hosting partitions, priced through the regular Task send
    path so ``reconcile()`` stays exact.
    """

    active: np.ndarray
    direction: str
    read_bytes: float
    resident_bytes: float
    summary_bytes: float
    exchange_sends: list[tuple[int, float]]
    switched: bool


@dataclass
class _PartitionTransfer:
    """Intermediate products of one partition's Transfer stage.

    ``outbox[q]`` holds the messages bound for partition ``q``; the
    entry at the partition's own id is its boundary spill.  The scalar
    path fills it with :class:`MessageBox` es.  The fast path fills it
    with ``(dests, values)`` column pairs — merged: one folded value per
    destination, ascending; unmerged: one row per message, in emission
    order — and records the message dtype in ``dtype``.
    ``outbox_bytes[q]`` is the entry's wire size (the spill size for the
    own entry); ``shipped`` counts the rows of the cross entries.
    """

    inner_combined: dict = field(default_factory=dict)
    outbox: dict[int, Any] = field(default_factory=dict)
    outbox_bytes: dict[int, float] = field(default_factory=dict)
    dtype: np.dtype | None = None
    shipped: int = 0
    spill_bytes: float = 0.0
    cpu_ops: float = 0.0
    output_bytes: float = 0.0
    messages: int = 0
    locally_propagated: int = 0


Columns = tuple[np.ndarray, np.ndarray]
#: one partition's routed messages: ``(uniq, bounds, grouped)`` from
#: :func:`group_by_key`, or None when nothing arrived
Inbox = tuple[np.ndarray, np.ndarray, np.ndarray]


def _array_combine_ufunc(app: PropagationApp) -> Any:
    """The fold ``combine_array`` consumes, or None without the hook."""
    if type(app).combine_array is PropagationApp.combine_array:
        return None
    return app.merge_ufunc


def _box_columns(box: MessageBox, dtype: np.dtype) -> Columns:
    """A scalar-path box as columns, rows in the box's delivery order."""
    dests: list[Any] = []
    values: list[Any] = []
    for dest in box.data:
        bag = box.values_of(dest)
        dests.extend([dest] * len(bag))
        values.extend(bag)
    return (np.asarray(dests, dtype=np.int64),
            np.asarray(values, dtype=dtype))


class PropagationEngine:
    """Executes propagation iterations on a partitioned graph."""

    #: Random-access multiplier for top-down frontier gathers: reading
    #: the adjacency rows of scattered active vertices costs this factor
    #: over a sequential scan of the same bytes.  The direction switch
    #: compares the penalized top-down gather against one full
    #: sequential (bottom-up) scan — the Buluç–Madduri/Beamer frontier
    #: density criterion expressed in bytes.
    RANDOM_GATHER_FACTOR = 4.0

    def __init__(
        self,
        pgraph: PartitionedGraph,
        store: PartitionStore,
        cluster: Cluster,
        local_opts: bool = True,
        values_io_fraction: np.ndarray | None = None,
        assignment: np.ndarray | None = None,
        vectorized: bool | None = None,
        frontier: bool = False,
    ) -> None:
        """``values_io_fraction[p]`` scales the per-iteration value I/O of
        partition ``p`` (used by cascaded propagation to model skipped
        intermediate reads/writes).  ``assignment[p]`` is the machine the
        job manager dispatches partition ``p``'s tasks to (must hold a
        replica); defaults to the primaries.  ``vectorized`` selects the
        Transfer implementation: ``None`` takes the array fast path when
        the app supports it, ``False`` forces the scalar path (the
        equivalence oracle), ``True`` requires the fast path and raises
        :class:`JobError` if the app cannot take it.  ``frontier=True``
        enables sparse active-set execution for apps with
        ``uses_frontier = True``: each iteration scans only the app's
        active mask, prices the Transfer read by the chosen scan
        direction, and exchanges per-partition frontier summaries —
        message products and all ``propagation.*`` counters stay
        bit-identical to the dense path."""
        self.pgraph = pgraph
        self.store = store
        self.cluster = cluster
        self.local_opts = local_opts
        self.vectorized = vectorized
        self.frontier = frontier
        if values_io_fraction is None:
            values_io_fraction = np.ones(pgraph.num_parts)
        self.values_io_fraction = values_io_fraction
        if assignment is None:
            assignment = store.placement_array()
        self.assignment = np.asarray(assignment, dtype=np.int64)
        #: per-partition scan direction of the previous iteration
        #: (frontier mode); reset with the engine on job restart, which
        #: keeps the switch counter deterministic along the restart path.
        self._directions: dict[int, str] = {}
        self._out_degrees: np.ndarray | None = None

    def machine_of(self, partition: int) -> int:
        return int(self.assignment[partition])

    def _memory_penalty(self, machine: int, working_set: float) -> float:
        """Random-I/O slowdown when the working set exceeds memory (P2)."""
        spec = self.cluster.machine(machine).spec
        if working_set > spec.memory_bytes:
            return spec.random_io_penalty
        return 1.0

    # ------------------------------------------------------------------
    def run_iteration(
        self,
        app: PropagationApp,
        state: Any,
        scheduler: StageScheduler,
    ) -> tuple[dict, IterationReport]:
        """Execute one iteration; returns (combined results, report)."""
        num_parts = self.pgraph.num_parts
        timer = wall_timer()
        finfos = self._plan_frontier(app, state) if self.frontier else None

        def finfo(p: int) -> _FrontierInfo | None:
            return finfos[p] if finfos is not None else None

        transfers = [
            self._run_transfer_udfs(app, state, p, finfo(p))
            for p in range(num_parts)
        ]
        transfer_tasks = [
            self._transfer_task(p, transfers[p], finfo(p))
            for p in range(num_parts)
        ]
        transfer_wall = timer.elapsed()
        transfer_result = scheduler.run_stage(transfer_tasks)

        timer = wall_timer()
        dtypes = [t.dtype for t in transfers if t.dtype is not None]
        dtype = np.result_type(*dtypes) if dtypes else None
        inboxes: list[Any]
        if dtype is not None:
            inboxes = self._route(transfers, dtype)
        else:
            inboxes = self._route_boxes(transfers)
        sources = self._sources(transfers)
        route_wall = timer.elapsed()

        timer = wall_timer()
        combined: dict = {}
        combine_tasks: list[Task] = []
        for p in range(num_parts):
            task, part_combined = self._run_combine(
                app, state, p, inboxes[p], sources[p], transfers[p], dtype
            )
            combine_tasks.append(task)
            combined.update(part_combined)
        combine_wall = timer.elapsed()
        combine_result = scheduler.run_stage(combine_tasks)

        if self.local_opts:
            for t in transfers:
                combined.update(t.inner_combined)

        report = IterationReport(
            transfer_stage=transfer_result,
            combine_stage=combine_result,
            messages_emitted=sum(t.messages for t in transfers),
            messages_shipped=sum(t.shipped for t in transfers),
            network_bytes=sum(
                nbytes
                for p, t in enumerate(transfers)
                for q, nbytes in t.outbox_bytes.items()
                if q != p
            ),
            spill_bytes=sum(t.spill_bytes for t in transfers),
            locally_propagated=sum(t.locally_propagated for t in transfers),
        )
        if finfos is not None:
            report.frontier_active = sum(
                int(i.active.size) for i in finfos)
            report.frontier_exchange_bytes = sum(
                nbytes for i in finfos for _, nbytes in i.exchange_sends)
            report.frontier_direction_switches = sum(
                1 for i in finfos if i.switched)
            report.frontier_bottom_up_scans = sum(
                1 for i in finfos if i.direction == "bottom-up")
        self._observe_iteration(scheduler, report,
                                (transfer_wall, route_wall, combine_wall))
        return combined, report

    def _observe_iteration(self, scheduler: StageScheduler,
                           report: IterationReport,
                           walls: tuple[float, float, float]) -> None:
        """Record the iteration's span and metrics on the job's stream.

        ``walls`` is the real Python time of the Transfer, route and
        Combine phases, outside the simulated cost model.  Each phase
        has its ``wall.*_seconds`` counter; their sum lands on the
        iteration span and ``wall.udf_seconds``, keeping simulator
        overhead separable from simulated cost.
        """
        transfer_wall, route_wall, combine_wall = walls
        udf_wall_seconds = transfer_wall + route_wall + combine_wall
        stream = scheduler.events
        iteration = int(stream.metrics.get("propagation.iterations"))
        stream.emit(
            name=f"iteration[{iteration}]",
            kind="iteration",
            start=report.transfer_stage.start_time,
            end=report.combine_stage.end_time,
            wall_self_seconds=udf_wall_seconds,
        )
        m = stream.metrics
        m.add("propagation.iterations")
        m.add("propagation.messages_emitted", report.messages_emitted)
        m.add("propagation.messages_shipped", report.messages_shipped)
        m.add("propagation.network_bytes", report.network_bytes)
        m.add("propagation.spill_bytes", report.spill_bytes)
        m.add("propagation.locally_propagated", report.locally_propagated)
        if self.frontier:
            m.add("frontier.active", report.frontier_active)
            m.add("frontier.exchange_bytes",
                  report.frontier_exchange_bytes)
            m.add("frontier.direction_switches",
                  report.frontier_direction_switches)
            m.add("frontier.bottom_up_scans",
                  report.frontier_bottom_up_scans)
        m.add("wall.transfer_seconds", transfer_wall)
        m.add("wall.route_seconds", route_wall)
        m.add("wall.combine_seconds", combine_wall)
        m.add("wall.udf_seconds", udf_wall_seconds)
        if scheduler.sanitizer is not None:
            scheduler.sanitizer.on_superstep(stream, scheduler.cluster)

    # ------------------------------------------------------------------
    # Frontier mode (sparse active sets)
    # ------------------------------------------------------------------
    def _plan_frontier(
        self, app: PropagationApp, state: Any
    ) -> list[_FrontierInfo]:
        """Per-partition frontier plan: active slice, direction, pricing.

        The scan direction is chosen by comparing priced reads: top-down
        gathers exactly the active vertices' adjacency rows and values
        at random-access cost (``RANDOM_GATHER_FACTOR``×), bottom-up
        scans the whole partition sequentially once.  Dense frontiers
        therefore flip to bottom-up and sparse ones stay top-down —
        frontier density keys the switch, in byte form.  The frontier
        summary each partition announces to remote machines is the
        smaller of a vertex bitmap and an index array of the active ids.
        """
        if not app.uses_frontier:
            raise JobError(
                f"{app.name}: frontier mode requires a frontier app "
                "(uses_frontier=True with a frontier() hook)"
            )
        if app.uses_virtual_vertices:
            raise JobError(
                f"{app.name}: frontier mode does not support "
                "virtual-vertex apps"
            )
        pg = self.pgraph
        mask = np.asarray(app.frontier(state))
        if mask.dtype != np.bool_ or mask.shape != (pg.num_vertices,):
            raise JobError(
                f"{app.name}: frontier() must return a boolean mask "
                "over all vertices"
            )
        if self._out_degrees is None:
            self._out_degrees = pg.graph.out_degrees()
        deg = self._out_degrees
        machines = sorted({self.machine_of(p)
                           for p in range(pg.num_parts)})
        infos: list[_FrontierInfo] = []
        for p in range(pg.num_parts):
            verts = pg.partition_vertices[p]
            active = verts[mask[verts]]
            n_p = int(verts.size)
            m_f = int(deg[active].sum()) if active.size else 0
            row_bytes = float(
                active.size * (VERTEX_ID_BYTES + DEGREE_BYTES)
                + m_f * VERTEX_ID_BYTES
                + active.size * VALUE_BYTES
            )
            top_down = self.RANDOM_GATHER_FACTOR * row_bytes
            bottom_up = float(pg.partition_bytes(p) + n_p * VALUE_BYTES)
            if active.size and top_down >= bottom_up:
                direction = "bottom-up"
                read_bytes = bottom_up
                resident = bottom_up
            else:
                direction = "top-down"
                read_bytes = top_down
                resident = row_bytes
            prev = self._directions.get(p)
            switched = prev is not None and prev != direction
            self._directions[p] = direction
            summary = float(min((n_p + 7) // 8,
                                active.size * VERTEX_ID_BYTES))
            mine = self.machine_of(p)
            exchange = ([(m, summary) for m in machines if m != mine]
                        if summary > 0 else [])
            infos.append(_FrontierInfo(
                active=active,
                direction=direction,
                read_bytes=read_bytes,
                resident_bytes=resident,
                summary_bytes=summary,
                exchange_sends=exchange,
                switched=switched,
            ))
        return infos

    # ------------------------------------------------------------------
    # Transfer stage
    # ------------------------------------------------------------------
    def _run_transfer_udfs(
        self, app: PropagationApp, state: Any, p: int,
        finfo: _FrontierInfo | None = None,
    ) -> _PartitionTransfer:
        """Run the transfer UDFs of partition ``p`` and route messages.

        Dispatches between the vectorized fast path (array-at-a-time CSR
        scan; bit-identical products) and the scalar per-edge loop.  In
        frontier mode (``finfo`` given) both paths scan exactly the
        planned active vertices — the mask is authoritative and must
        agree with ``select`` (the UDF002 frontier contract), which is
        what keeps frontier and dense runs message-for-message
        identical.
        """
        if self._fast_path_ok(app):
            result = self._run_transfer_vectorized(app, state, p, finfo)
            if result is not None:
                return result
            if self.vectorized:
                raise JobError(
                    f"{app.name}: vectorized Transfer requested but "
                    "transfer_array() declined"
                )
        elif self.vectorized:
            raise JobError(
                f"{app.name}: vectorized Transfer requested but the app "
                "does not support the fast path"
            )
        return self._run_transfer_scalar(app, state, p, finfo)

    def _fast_path_ok(self, app: PropagationApp) -> bool:
        """Whether the app qualifies for the array Transfer fast path."""
        if self.vectorized is False:
            return False
        cls = type(app)
        if cls.transfer_array is PropagationApp.transfer_array:
            return False  # hook not implemented
        if app.uses_virtual_vertices:
            return False
        if (cls.select is not PropagationApp.select
                and cls.select_array is PropagationApp.select_array):
            return False  # scalar select overridden without array twin
        if self.local_opts and app.is_associative and app.merge_ufunc is None:
            return False  # merged boxes need a NumPy-expressible merge
        return True

    def _run_transfer_vectorized(
        self, app: PropagationApp, state: Any, p: int,
        finfo: _FrontierInfo | None = None,
    ) -> _PartitionTransfer | None:
        """Array-at-a-time Transfer of partition ``p``.

        Replays the scalar path's routing, merging and cost accounting as
        CSR-slice operations: one ``transfer_array`` call over the
        partition's (selected) out-edges, inner/boundary splitting via
        ``boundary_mask``, per-destination merging via input-order folds
        (:func:`fold_by_dest`), destination-partition grouping via
        ``parts[dst]``.  Messages stay columnar in the outbox; products —
        messages, byte counts, cpu ops — are bit-identical to the scalar
        path.
        """
        pg = self.pgraph
        verts = pg.partition_vertices[p]
        if finfo is not None:
            # the frontier plan already filtered the partition's active
            # vertices (ascending — the dense scan's enumeration order)
            src, dst = pg.partition_out_edges(p, finfo.active)
        else:
            mask = app.select_array(verts, state)
            if mask is None:  # select-all hits the cached gather
                src, dst = pg.partition_out_edges(p)
            else:
                selected = verts[np.asarray(mask, dtype=bool)]
                src, dst = pg.partition_out_edges(p, selected)
        values = app.transfer_array(src, dst, state)
        if values is None:
            return None
        values = np.asarray(values)

        result = _PartitionTransfer(dtype=values.dtype)
        m = int(src.size)
        result.messages = m
        # scalar parity: +1 per scanned edge, +1 per routed message.
        # This collapses to 2m only because every scanned edge routes a
        # message: transfer_array cannot express per-edge None, so apps
        # whose scalar transfer() may return None must decline the fast
        # path (return None from transfer_array) or the scalar path's
        # edges_scanned + messages_routed charge would diverge from
        # this one (see tests/test_observability.py::TestNoneTransferContract).
        result.cpu_ops += 2.0 * m

        dest_parts = pg.parts[dst]
        # boxes merge only for associative apps under local
        # optimizations (the scalar MessageBox merge condition)
        ufunc = (app.merge_ufunc
                 if app.is_associative and self.local_opts else None)
        if ufunc is not None:
            cross = int(np.count_nonzero(dest_parts != p))
            result.cpu_ops += float(cross)  # the merge work
        if self.local_opts:
            inner = (dest_parts == p) & ~pg.boundary_mask[dst]
            outgoing = ~inner
            self._fill_outbox(result, dst[outgoing], values[outgoing],
                              dest_parts[outgoing], ufunc)
            if inner.any():
                # Local propagation: combine inner vertices now, in memory.
                uniq, bounds, grouped = group_by_key([dst[inner]],
                                                     [values[inner]])
                result.cpu_ops += float(grouped.size + uniq.size)
                result.output_bytes += self._combine_groups(
                    app, state, uniq, bounds, grouped,
                    _array_combine_ufunc(app), result.inner_combined)
                result.locally_propagated = int(uniq.size)
        else:
            self._fill_outbox(result, dst, values, dest_parts, ufunc)
        self._price_outbox(app, p, result)
        return result

    def _fill_outbox(self, result: _PartitionTransfer, dests: np.ndarray,
                     values: np.ndarray, dest_parts: np.ndarray,
                     ufunc: Any) -> None:
        """Split outgoing messages into per-destination-partition columns.

        With a merge, one fold over the whole outgoing set: a
        destination vertex determines its partition, so folding by
        destination globally and splitting the folded rows by
        ``parts[dest]`` afterwards yields exactly the per-partition
        boxes the scalar path builds.  The stable split keeps each
        partition's rows in fold (ascending) or emission order.
        """
        if dests.size == 0:
            return
        if ufunc is not None:
            dests, values, _ = fold_by_dest(dests, values, ufunc)
            dest_parts = self.pgraph.parts[dests]
        qs, bounds, order = group_by_key([dest_parts],
                                         [np.arange(dests.size)])
        d = dests[order]
        v = values[order]
        b = bounds.tolist()
        for i, q in enumerate(qs.tolist()):
            result.outbox[q] = (d[b[i]:b[i + 1]], v[b[i]:b[i + 1]])

    @staticmethod
    def _price_outbox(app: PropagationApp, p: int,
                      result: _PartitionTransfer) -> None:
        """Wire bytes and shipped rows of every outbox entry.

        Apps with the default (constant) ``value_nbytes`` take a closed
        form — byte sizes are integer-valued floats, so the product
        equals the per-message sum bit for bit; apps that override it
        are sized per value.
        """
        default = type(app).value_nbytes is PropagationApp.value_nbytes
        for q, entry in result.outbox.items():
            if isinstance(entry, MessageBox):
                rows = entry.wire_messages()
                nbytes = entry.payload_bytes(app)
            else:
                rows = int(entry[0].size)
                if default:
                    nbytes = float(rows * (VERTEX_ID_BYTES + VALUE_BYTES))
                else:
                    nbytes = 0.0
                    for value in entry[1].tolist():
                        nbytes += message_nbytes(app, value)
            result.outbox_bytes[q] = nbytes
            if q != p:
                result.shipped += rows
        result.spill_bytes = result.outbox_bytes.get(p, 0.0)

    def _run_transfer_scalar(
        self, app: PropagationApp, state: Any, p: int,
        finfo: _FrontierInfo | None = None,
    ) -> _PartitionTransfer:
        """Per-edge Transfer of partition ``p`` (fallback and oracle).

        In frontier mode the loop walks the planned active vertices
        directly and skips the per-vertex ``select`` call — the dense
        path charges nothing for that call, so as long as ``select``
        agrees with the mask (the frontier contract) the two paths emit
        identical messages with identical cpu charges.
        """
        pg = self.pgraph
        result = _PartitionTransfer()
        merge = app.merge if app.is_associative else None
        # Local messages: merged eagerly for inner vertices under local
        # optimizations (local propagation needs no associativity — all of
        # an inner vertex's messages originate in this very task).
        inner_box = MessageBox(merge=None)
        # Messages to local boundary vertices must wait for remote
        # arrivals, but an associative combine lets them collapse to one
        # partial per destination before spilling (local combination,
        # destination side).
        boundary_box = MessageBox(
            merge=merge if self.local_opts else None
        )
        outbox = result.outbox
        outbox[p] = boundary_box

        def route(dest_partition: int, dest: Any, value: Any) -> None:
            result.messages += 1
            result.cpu_ops += 1.0
            if dest_partition == p:
                # virtual keys hashed to the local partition stay local too
                if (self.local_opts and not app.uses_virtual_vertices
                        and pg.is_inner(dest)):
                    inner_box.add(dest, value)
                else:
                    boundary_box.add(dest, value)
                return
            box = outbox.get(dest_partition)
            if box is None:
                box = MessageBox(merge=merge if self.local_opts else None)
                outbox[dest_partition] = box
            box.add(dest, value)
            if self.local_opts and merge is not None:
                result.cpu_ops += 1.0  # the merge work

        if app.uses_virtual_vertices:
            for u in pg.partition_vertices[p]:
                u = int(u)
                result.cpu_ops += 1.0
                if not app.select(u, state):
                    continue
                for key, value in app.virtual_transfer(u, state):
                    route(virtual_partition(key, pg.num_parts), key, value)
        else:
            graph = pg.graph
            parts = pg.parts
            vertex_iter = (finfo.active if finfo is not None
                           else pg.partition_vertices[p])
            for u in vertex_iter:
                u = int(u)
                if finfo is None and not app.select(u, state):
                    continue
                for v in graph.out_neighbors(u):
                    v = int(v)
                    result.cpu_ops += 1.0
                    value = app.transfer(u, v, state)
                    if value is not None:
                        route(int(parts[v]), v, value)

        # Local propagation: combine inner vertices now, in memory (the
        # box fills only under local optimizations).
        result.cpu_ops += float(inner_box.message_count() + len(inner_box))
        result.output_bytes += self._combine_scalar(
            app, app.combine, state, inner_box.data.keys(),
            inner_box.data.values(), result.inner_combined)
        result.locally_propagated = len(inner_box)
        self._price_outbox(app, p, result)
        return result

    def _transfer_task(
        self, p: int, t: _PartitionTransfer,
        finfo: _FrontierInfo | None = None,
    ) -> Task:
        pg = self.pgraph
        machine = self.machine_of(p)
        sends: list[tuple[int, float]] = [
            (self.machine_of(q), nbytes)
            for q, nbytes in sorted(t.outbox_bytes.items())
            if q != p and nbytes > 0
        ]
        if finfo is None:
            # Cascaded phases evaluate the cascadable vertices'
            # iterations in one scan of the partition: both the
            # adjacency and the value reads of iterations inside a
            # phase shrink by the fraction.
            io_fraction = float(self.values_io_fraction[p])
            values_bytes = pg.partition_size(p) * VALUE_BYTES * io_fraction
            disk_read = pg.partition_bytes(p) * io_fraction + values_bytes
            resident = pg.partition_bytes(p) + values_bytes
        else:
            # Frontier mode (cascading is disallowed): read what the
            # planned scan direction needs, and announce the frontier
            # summary to every other machine — both priced through the
            # regular task accounting so reconcile() stays exact.
            disk_read = finfo.read_bytes
            resident = finfo.resident_bytes
            sends.extend(finfo.exchange_sends)
        fetches: list[tuple[int, float]] = []
        if machine not in self.store.replicas(p):
            # non-local dispatch: pull the partition from its primary
            fetches.append((self.store.primary(p),
                            float(pg.partition_bytes(p))))
        working_set = resident + t.spill_bytes
        return Task(
            name=f"transfer[{p}]",
            machine=machine,
            kind="transfer",
            partition=p,
            disk_read_bytes=disk_read,
            cpu_ops=t.cpu_ops,
            disk_write_bytes=t.spill_bytes + t.output_bytes,
            sends=sends,
            fetches=fetches,
            disk_penalty=self._memory_penalty(machine, working_set),
        )

    # ------------------------------------------------------------------
    # Route and Combine stage
    # ------------------------------------------------------------------
    def _route(self, transfers: list[_PartitionTransfer],
               dtype: np.dtype) -> list[Inbox | None]:
        """Deliver every outbox as columns, grouped per destination.

        Partition ``q``'s inbox concatenates the entries bound for it
        from partitions ``p = 0..P-1`` (the boundary spill when ``p ==
        q``), so each destination's bag keeps the scalar inbox's arrival
        order through the stable group-by of :func:`group_by_key`.
        Scalar-path boxes of partitions whose ``transfer_array``
        declined join as columns of the iteration's message ``dtype``.
        """
        num_parts = self.pgraph.num_parts
        chunks: list[list[Columns]] = [[] for _ in range(num_parts)]
        for t in transfers:
            for q, entry in t.outbox.items():
                cols = (_box_columns(entry, dtype)
                        if isinstance(entry, MessageBox) else entry)
                if cols[0].size:
                    chunks[q].append(cols)
        return [
            group_by_key([c[0] for c in cs], [c[1] for c in cs])
            if cs else None
            for cs in chunks
        ]

    def _route_boxes(
        self, transfers: list[_PartitionTransfer]
    ) -> list[MessageBox]:
        """The scalar path's route: one ``add`` per delivered message."""
        inboxes = [MessageBox(merge=None)
                   for _ in range(self.pgraph.num_parts)]
        for t in transfers:
            for q, box in t.outbox.items():
                for dest in box.data:
                    for value in box.values_of(dest):
                        inboxes[q].add(dest, value)
        return inboxes

    def _sources(
        self, transfers: list[_PartitionTransfer]
    ) -> list[dict[int, float]]:
        """Bytes each partition receives from each source partition (for
        failure re-fetch)."""
        sources: list[dict[int, float]] = [
            {} for _ in range(self.pgraph.num_parts)]
        for p, t in enumerate(transfers):
            for q, nbytes in t.outbox_bytes.items():
                if q != p and nbytes > 0:
                    sources[q][p] = nbytes
        return sources

    @staticmethod
    def _combine_scalar(app: PropagationApp, combine: Any, state: Any,
                        keys: Iterable[Any], bags: Iterable[list],
                        combined: dict) -> float:
        """Scalar ``combine`` per bag; returns the output bytes."""
        output_bytes = 0.0
        for v, bag in zip(keys, bags):
            out = combine(v, bag, state)
            if out is not None:
                combined[v] = out
                output_bytes += app.result_nbytes(v, out)
        return output_bytes

    @staticmethod
    def _combine_folded(app: PropagationApp, state: Any, dests: np.ndarray,
                        merged: np.ndarray, combined: dict) -> float:
        """``combine_array`` over folded bags; returns the output bytes."""
        keys = dests.tolist()
        outs = np.asarray(app.combine_array(dests, merged, state)).tolist()
        combined.update(zip(keys, outs))
        if type(app).result_nbytes is PropagationApp.result_nbytes:
            return float(len(keys) * VALUE_BYTES)
        output_bytes = 0.0
        for v, out in zip(keys, outs):
            output_bytes += app.result_nbytes(v, out)
        return output_bytes

    def _combine_groups(self, app: PropagationApp, state: Any,
                        uniq: np.ndarray, bounds: np.ndarray,
                        grouped: np.ndarray, ufunc: Any,
                        combined: dict) -> float:
        """Combine grouped columns: folded through ``combine_array`` when
        ``ufunc`` is given, else scalar ``combine`` on list slices."""
        if ufunc is not None:
            return self._combine_folded(
                app, state, uniq, fold_groups(bounds, grouped, ufunc),
                combined)
        b = bounds.tolist()
        vals = grouped.tolist()
        bags = (vals[b[i]:b[i + 1]] for i in range(len(b) - 1))
        return self._combine_scalar(app, app.combine, state, uniq.tolist(),
                                    bags, combined)

    def _run_combine(
        self,
        app: PropagationApp,
        state: Any,
        p: int,
        inbox: MessageBox | Inbox | None,
        sources: dict[int, float],
        transfer: _PartitionTransfer,
        dtype: np.dtype | None,
    ) -> tuple[Task, dict]:
        """Combine partition ``p``'s inbox: a :class:`MessageBox` on the
        scalar path, grouped columns (or None) on the fast path."""
        pg = self.pgraph
        combined: dict = {}
        ufunc = None
        if isinstance(inbox, MessageBox):
            combine = (app.virtual_combine if app.uses_virtual_vertices
                       else app.combine)
            cpu_ops = float(inbox.message_count() + len(inbox))
            output_bytes = self._combine_scalar(
                app, combine, state, inbox.data.keys(),
                inbox.data.values(), combined)
        else:
            ufunc = _array_combine_ufunc(app)
            cpu_ops = 0.0
            output_bytes = 0.0
            if inbox is not None:
                uniq, bounds, grouped = inbox
                cpu_ops = float(grouped.size + uniq.size)
                output_bytes = self._combine_groups(
                    app, state, uniq, bounds, grouped, ufunc, combined)
        if app.combine_all_vertices and not app.uses_virtual_vertices:
            if isinstance(inbox, MessageBox):
                arrived = np.fromiter(inbox.data, dtype=np.int64,
                                      count=len(inbox))
            else:
                arrived = (inbox[0] if inbox is not None
                           else np.zeros(0, dtype=np.int64))
            verts = pg.partition_vertices[p]
            skip = np.isin(verts, arrived)
            already = transfer.inner_combined  # empty without local opts
            if already:
                skip |= np.isin(verts, np.fromiter(
                    already, dtype=np.int64, count=len(already)))
            missing = verts[~skip]
            cpu_ops += float(missing.size)
            if ufunc is not None and dtype is not None:
                empty = np.full(missing.size, fold_identity(ufunc, dtype),
                                dtype=dtype)
                output_bytes += self._combine_folded(
                    app, state, missing, empty, combined)
            else:
                output_bytes += self._combine_scalar(
                    app, app.combine, state, missing.tolist(),
                    ([] for _ in range(missing.size)), combined)

        incoming = float(sum(sources.values()))
        staged = incoming + transfer.spill_bytes
        machine = self.machine_of(p)
        inbound = [
            (self.machine_of(src), nbytes)
            for src, nbytes in sorted(sources.items())
        ]
        working_set = pg.partition_bytes(p) + staged + output_bytes
        task = Task(
            name=f"combine[{p}]",
            machine=machine,
            kind="combine",
            partition=p,
            disk_read_bytes=staged,
            cpu_ops=cpu_ops,
            disk_write_bytes=incoming + output_bytes,
            sends=[],
            receives=inbound,
            input_transfers=inbound,
            disk_penalty=self._memory_penalty(machine, working_set),
        )
        return task, combined
