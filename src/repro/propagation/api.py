"""The propagation programming interface (Section 3.2).

Developers subclass :class:`PropagationApp` and implement the paper's two
user-defined functions::

    transfer: (v, v') -> (v', value)    # export data along an edge
    combine:  (v, bag of values) -> (v, value')   # fold arrivals at v

plus optional hooks:

* ``merge(a, b)`` with ``is_associative = True`` annotates the combine as
  associative, enabling the *local combination* optimization (Section 5.1);
* ``select(u, state)`` restricts transfers to a vertex subset (TC and TFL
  run on 10 % samples in the paper);
* virtual vertices (Section 3.3): apps with ``uses_virtual_vertices = True``
  implement ``virtual_transfer`` / ``virtual_combine``, letting
  vertex-oriented tasks such as VDD emulate MapReduce on top of
  propagation.

The engine owns distribution, routing, locality optimizations and cost
accounting; the UDFs stay tiny — that asymmetry is the paper's
programmability claim (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.errors import JobError
from repro.graph.io import VALUE_BYTES, VERTEX_ID_BYTES

__all__ = ["PropagationApp", "MessageBox", "fold_by_dest", "fold_groups",
           "fold_identity", "group_by_key", "message_nbytes"]


class PropagationApp:
    """Base class for propagation applications.

    Subclasses implement ``transfer`` and ``combine`` (or the virtual
    variants) and may override the annotations and sizing hooks below.
    """

    name = "app"
    #: ``combine`` is associative/commutative; enables local combination.
    is_associative = False
    #: call ``combine`` on vertices that received no messages too.
    combine_all_vertices = False
    #: app emits to virtual vertices instead of along edges.
    uses_virtual_vertices = False
    #: app maintains a sparse active set: ``frontier(state)`` returns the
    #: boolean active mask (``select`` must agree with it), enabling the
    #: engine's frontier mode — frontier-sliced Transfer reads, top-down/
    #: bottom-up direction switching, per-partition frontier exchange.
    uses_frontier = False
    #: NumPy ufunc equivalent of ``merge`` (e.g. ``np.add``) — required
    #: for the vectorized Transfer fast path of associative apps, and
    #: the fold ``combine_array`` consumes.
    merge_ufunc = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def setup(self, pgraph: Any) -> Any:
        """Create the iteration state (ranks, flags, ...)."""
        return None

    def update(self, state: Any, combined: dict) -> None:
        """Fold one iteration's combine outputs into the state.

        ``combined`` maps vertex (or virtual key) to the combine result.
        The default stores them on ``state.values`` when present.
        """
        values = getattr(state, "values", None)
        if values is None:
            raise JobError(
                f"{self.name}: override update() or give state a .values"
            )
        for v, value in combined.items():
            values[v] = value

    def finalize(self, state: Any) -> Any:
        """Produce the application result after the last iteration."""
        return state

    # ------------------------------------------------------------------
    # User-defined functions
    # ------------------------------------------------------------------
    def select(self, u: int, state: Any) -> bool:
        """Whether vertex ``u`` participates in the Transfer stage."""
        return True

    def frontier(self, state: Any) -> np.ndarray:
        """Boolean active mask over *all* vertices (frontier apps only).

        Apps with ``uses_frontier = True`` must implement this.  The
        engine's frontier mode scans exactly the masked vertices instead
        of calling ``select`` per vertex, so the mask must satisfy
        ``bool(mask[u]) == select(u, state)`` for every vertex — the
        UDF002 frontier contract checks the agreement.  The mask is read
        at the start of each iteration; ``update()`` computes the next
        one.
        """
        raise JobError(f"{self.name}: frontier() not implemented")

    def transfer(self, u: int, v: int, state: Any) -> Any:
        """Value exported from ``u`` to its out-neighbor ``v`` (or None)."""
        raise JobError(f"{self.name}: transfer() not implemented")

    def combine(self, v: int, values: list, state: Any) -> Any:
        """Fold the bag of ``values`` that arrived at ``v``."""
        raise JobError(f"{self.name}: combine() not implemented")

    def merge(self, a: Any, b: Any) -> Any:
        """Associative pairwise merge (required if ``is_associative``)."""
        raise JobError(f"{self.name}: merge() not implemented")

    # -- vectorized (array-at-a-time) variants --------------------------
    def select_array(self, vertices: np.ndarray,
                     state: Any) -> np.ndarray | None:
        """Vectorized ``select``: boolean mask over ``vertices``.

        ``None`` (the default) means *all selected*, matching the default
        scalar ``select``.  Apps that override ``select`` must also
        override this to be eligible for the fast path.
        """
        return None

    def transfer_array(self, src: np.ndarray, dst: np.ndarray,
                       state: Any) -> np.ndarray | None:
        """Vectorized ``transfer``: one value per edge ``(src[i], dst[i])``.

        Opt-in hook of the Transfer fast path.  Must return an array
        aligned with ``src``/``dst`` whose element ``i`` is bit-identical
        to ``transfer(src[i], dst[i], state)`` — or ``None`` to decline,
        in which case the engine falls back to the scalar path.  Edges
        whose scalar ``transfer`` would return ``None`` cannot be
        expressed here; such apps MUST stay on the scalar path (decline
        by returning ``None``).  Violating this diverges both the
        results and the cost accounting: the scalar path charges one cpu
        op per scanned edge plus one per *routed* message (a ``None``
        return routes nothing), while the fast path charges exactly two
        per edge — the "bit-identical" guarantee holds only when no edge
        returns ``None``.
        """
        return None

    def combine_array(self, dests: np.ndarray, merged: np.ndarray,
                      state: Any) -> np.ndarray:
        """Vectorized ``combine`` over pre-folded bags.

        Opt-in hook of the fast path's Combine stage (and of its local
        propagation); it needs ``merge_ufunc``.  ``merged[i]`` is the
        ``merge_ufunc`` left fold, in arrival order, of the bag that
        reached ``dests[i]``; for a vertex no message reached
        (``combine_all_vertices`` apps) it is the fold's identity
        (:func:`fold_identity`: 0 for ``np.add``, the dtype's maximum
        for ``np.minimum``).  Must return one output per destination,
        element ``i`` bit-identical to ``combine(dests[i], bag, state)``
        — the UDF002 contract checks this on real bags.  Apps whose
        ``combine`` may return ``None`` or reads more than the fold
        (RS, KCORE) keep the scalar ``combine``.
        """
        raise JobError(f"{self.name}: combine_array() not implemented")

    # -- virtual-vertex variants ----------------------------------------
    def virtual_transfer(self, u: int, state: Any) -> Iterable[tuple]:
        """Yield ``(virtual_key, value)`` pairs from vertex ``u``."""
        raise JobError(f"{self.name}: virtual_transfer() not implemented")

    def virtual_combine(self, key: Any, values: list, state: Any) -> Any:
        """Fold the values that arrived at virtual vertex ``key``."""
        raise JobError(f"{self.name}: virtual_combine() not implemented")

    # ------------------------------------------------------------------
    # Cost-model sizing hooks
    # ------------------------------------------------------------------
    def value_nbytes(self, value: Any) -> float:
        """On-wire payload size of one transfer value."""
        return float(VALUE_BYTES)

    def result_nbytes(self, v: Any, value: Any) -> float:
        """On-disk size of one combine output record."""
        return float(VALUE_BYTES)


def message_nbytes(app: PropagationApp, value: Any) -> float:
    """Full message size: destination id plus payload."""
    return VERTEX_ID_BYTES + app.value_nbytes(value)


def group_by_key(
    key_chunks: list[np.ndarray], value_chunks: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group aligned key/value chunks by key, keeping arrival order.

    The chunks are concatenated in list order (their *arrival* order)
    and sorted by key with one stable argsort, so each key's values stay
    in arrival order: exactly the bag a dict-of-lists ``setdefault(key,
    []).append(value)`` loop over the chunks would build.  Returns
    ``(uniq, bounds, grouped)``: the distinct keys ascending, the
    ``len(uniq) + 1`` segment boundaries, and the regrouped values —
    key ``uniq[i]``'s bag is ``grouped[bounds[i]:bounds[i + 1]]``.
    Both engines group through this kernel: the propagation Combine
    stage over routed messages, the MapReduce reducers over shuffle
    chunks.  At least one chunk must be given.
    """
    if len(key_chunks) == 1:
        keys, values = key_chunks[0], value_chunks[0]
    else:
        keys = np.concatenate(key_chunks)
        values = np.concatenate(value_chunks)
    n = int(keys.size)
    if n == 0:
        return keys, np.zeros(1, dtype=np.int64), values
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(k[1:], k[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    return k[starts], np.append(starts, n), values[order]


def fold_groups(bounds: np.ndarray, grouped: np.ndarray,
                ufunc: Any) -> np.ndarray:
    """Left-fold every segment of :func:`group_by_key` output in order.

    Segment ``i`` folds ``grouped[bounds[i]:bounds[i + 1]]`` front to
    back.  ``np.bincount`` (float ``np.add``) and ``ufunc.at`` (every
    other merge) both accumulate sequentially in input order, so even a
    non-exact merge such as float addition reproduces the scalar
    ``merge(merge(v1, v2), v3)`` chain bit for bit.  ``np.add.reduceat``
    is deliberately not used: its float64 summation is pairwise, not
    sequential, and differs from the left fold in the last bits.
    """
    k = int(bounds.size) - 1
    gid = np.repeat(np.arange(k), np.diff(bounds))
    if ufunc is np.add and grouped.dtype == np.float64:
        return np.bincount(gid, weights=grouped, minlength=k)
    heads = bounds[:-1]
    merged = grouped[heads].copy()
    rest = np.ones(grouped.size, dtype=bool)
    rest[heads] = False
    if rest.any():
        ufunc.at(merged, gid[rest], grouped[rest])
    return merged


def fold_by_dest(
    dests: np.ndarray, values: np.ndarray, ufunc: Any
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-fold ``values`` per destination, in input (emission) order.

    Returns ``(uniq_dests, merged, counts)`` with ``uniq_dests`` sorted
    ascending; the fold is :func:`fold_groups` over
    :func:`group_by_key`, so it is bit-identical to the scalar
    ``merge`` chain.  ``dests`` must be non-empty.
    """
    uniq, bounds, grouped = group_by_key([dests], [values])
    return uniq, fold_groups(bounds, grouped, ufunc), np.diff(bounds)


def fold_identity(ufunc: Any, dtype: np.dtype) -> Any:
    """The fold of an empty bag: ``ufunc``'s identity as a ``dtype`` value.

    ``np.add`` gives 0, ``np.logical_or`` False and ``np.minimum`` the
    dtype's largest value (``inf`` for floats) — the value
    ``combine_array`` receives for a vertex that no message reached
    (``combine_all_vertices`` apps).
    """
    dtype = np.dtype(dtype)
    if ufunc.identity is not None:
        top = ufunc.identity
    elif ufunc is np.minimum:
        if dtype == np.bool_:
            top = True
        elif dtype.kind == "f":
            top = np.inf
        else:
            top = np.iinfo(dtype).max
    else:
        raise JobError(f"fold_identity: {ufunc!r} has no identity element")
    return np.asarray(top).astype(dtype)[()]


@dataclass
class MessageBox:
    """Accumulates messages per destination, merging when allowed.

    The scalar Transfer path's message container (the fast path keeps
    messages as columns instead).  With a ``merge`` function each
    destination holds one merged value (``counts`` remembers how many
    raw messages it stands for); without, destinations hold bags
    (lists) of values.
    """

    merge: Any = None
    data: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add(self, dest: Any, value: Any) -> None:
        if self.merge is None:
            self.data.setdefault(dest, []).append(value)
        elif dest in self.data:
            self.data[dest] = self.merge(self.data[dest], value)
        else:
            self.data[dest] = value
        self.counts[dest] = self.counts.get(dest, 0) + 1

    def values_of(self, dest: Any) -> list:
        """The bag of values for ``dest`` (singleton when merged)."""
        if dest not in self.data:
            return []
        if self.merge is None:
            return self.data[dest]
        return [self.data[dest]]

    def wire_messages(self) -> int:
        """Messages the box ships: one per destination when merged."""
        if self.merge is not None:
            return len(self.data)
        return sum(len(bag) for bag in self.data.values())

    def payload_bytes(self, app: PropagationApp) -> float:
        """Total wire bytes of the box's current contents.

        Apps that keep the default (constant) ``value_nbytes`` take a
        closed-form count; byte sizes are integer-valued floats, so the
        product equals the per-message summation bit for bit.
        """
        if type(app).value_nbytes is PropagationApp.value_nbytes:
            return float(self.wire_messages()
                         * (VERTEX_ID_BYTES + VALUE_BYTES))
        total = 0.0
        for dest in self.data:
            total += sum(message_nbytes(app, v)
                         for v in self.values_of(dest))
        return total

    def message_count(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.data)
