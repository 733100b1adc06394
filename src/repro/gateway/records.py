"""Columnar request records: the million-request capacity substrate.

The seed pipeline materialises one :class:`~repro.gateway.services.Request`
plus one :class:`~repro.gateway.services.RequestRecord` dataclass per
simulated request and keeps them in unbounded Python lists — ~0.5 KB and
several allocations per request, which caps capacity runs far below the
paper's "heavy traffic from millions of users" regime.  :class:`RecordLog`
stores the same lifecycle as a struct-of-arrays instead: preallocated,
geometrically grown numpy columns for arrival/start/end times, interned
route/payload/error ids, a success flag and the in-flight count at send
time.  A request *is* a row index threaded through the simulator; reading
or writing one field is a scalar array access, and whole-run aggregation
(the exact percentile oracle) is a handful of vectorized passes.

Two retention modes:

* ``retain=True`` — every row is kept; :meth:`records` materialises the
  classic ``RequestRecord`` views so the columnar run can be checked
  against the record-based oracle.
* ``retain=False`` — completed rows are :meth:`release`-d back onto a
  free list and recycled, so memory is bounded by the *in-flight* request
  count no matter how many requests a run pushes through (the 1M-request
  open-loop gate in ``benchmarks/bench_capacity_scale.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

import numpy as np

from repro.gateway.services import Request, RequestRecord

__all__ = ["RecordLog"]


class _Interner:
    """Bidirectional str <-> small-int mapping for one column vocabulary."""

    __slots__ = ("names", "index")

    def __init__(self, seed_names=()) -> None:
        self.names: List[str] = list(seed_names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}

    def intern(self, name: str) -> int:
        ident = self.index.get(name)
        if ident is None:
            ident = len(self.names)
            self.index[name] = ident
            self.names.append(name)
        return ident


class RecordLog:
    """Struct-of-arrays request log with optional row recycling.

    Columns (all indexed by row):

    ``arrival``/``start``/``end``
        Virtual-time lifecycle stamps (float64 seconds).  ``arrival``
        includes the gateway's request leg, ``end`` its response leg,
        matching ``RequestRecord`` semantics.
    ``route_ids``/``payload_ids``/``error_codes``
        int32 ids interned through :meth:`intern_route` /
        :meth:`intern_payload` / :meth:`intern_error`; error code 0 is
        the empty string (no error).
    ``ok``
        Success flag (bool).
    ``active``
        In-flight request count when the request was sent — the
        *Response Times Over Active Threads* x-axis.

    Vectorized consumers (the oracle) read the numpy columns; per-event
    producers go through the ``v_``-prefixed :class:`memoryview` mirrors
    of the same buffers, which write through and exchange native Python
    scalars at roughly half the cost of numpy scalar indexing.  Always
    re-read columns and views off the log rather than caching them,
    because geometric growth reallocates both.

    ``slots`` is a per-row object column (a plain list grown with the
    log): the capacity runner links a closed-loop virtual user to its
    in-flight row there, so completion hands control back without a
    side dict keyed by row.
    """

    def __init__(self, initial_capacity: int = 1024, retain: bool = True) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        self.retain = retain
        self.capacity = initial_capacity
        #: High-water row count: rows ``[0, size)`` have been allocated at
        #: least once (recycled rows stay below the high-water mark).
        self.size = 0
        #: Total rows handed out (== requests started through this log).
        self.appended = 0
        #: Rows served from the free list instead of fresh capacity.
        self.recycled = 0
        self._free = deque()
        self.arrival = np.zeros(initial_capacity, dtype=np.float64)
        self.start = np.zeros(initial_capacity, dtype=np.float64)
        self.end = np.zeros(initial_capacity, dtype=np.float64)
        self.route_ids = np.zeros(initial_capacity, dtype=np.int32)
        self.payload_ids = np.zeros(initial_capacity, dtype=np.int32)
        self.error_codes = np.zeros(initial_capacity, dtype=np.int32)
        self.ok = np.ones(initial_capacity, dtype=bool)
        self.active = np.zeros(initial_capacity, dtype=np.int32)
        self.slots: List[object] = [None] * initial_capacity
        self._refresh_views()
        self._routes = _Interner()
        self._payloads = _Interner()
        self._errors = _Interner([""])  # code 0 == "no error"
        if retain:
            # retain mode never recycles, so the per-append free-list
            # check and the ``ok`` reset are dead work — shadow the
            # method with the straight-line variant
            self.append = self._append_retain

    def _refresh_views(self) -> None:
        """Rebuild the scalar write-through views after (re)allocation."""
        self.v_arrival = memoryview(self.arrival)
        self.v_start = memoryview(self.start)
        self.v_end = memoryview(self.end)
        self.v_route_ids = memoryview(self.route_ids)
        self.v_payload_ids = memoryview(self.payload_ids)
        self.v_error_codes = memoryview(self.error_codes)
        self.v_ok = memoryview(self.ok)
        self.v_active = memoryview(self.active)

    # -- vocabularies -------------------------------------------------------

    def intern_route(self, name: str) -> int:
        return self._routes.intern(name)

    def intern_payload(self, name: str) -> int:
        return self._payloads.intern(name)

    def intern_error(self, message: str) -> int:
        return self._errors.intern(message)

    def route_name(self, ident: int) -> str:
        return self._routes.names[ident]

    def payload_name(self, ident: int) -> str:
        return self._payloads.names[ident]

    def error_message(self, ident: int) -> str:
        return self._errors.names[ident]

    @property
    def route_names(self) -> List[str]:
        """Interned route vocabulary, indexed by route id."""
        return list(self._routes.names)

    # -- row lifecycle ------------------------------------------------------

    def append(self, route_id: int, payload_id: int, arrival: float) -> int:
        """Allocate a row (recycling a released one when available).

        Only ``arrival``/``route_ids``/``payload_ids``/``ok`` are written:
        ``start``/``end`` are always overwritten by the service before any
        read (``fail``/``_start_row``; fresh rows are zero-filled, so the
        retained-mode ``end == 0`` in-flight mask stays correct),
        ``error_codes`` is only read when ``ok`` is False and ``fail`` sets
        both, and ``active`` is caller-maintained (the capacity runner
        stamps its in-flight count right after allocation).  ``ok`` must be
        reset here because a recycled row may carry a previous failure.
        """
        free = self._free
        if free:
            row = free.popleft()
            self.recycled += 1
        else:
            row = self.size
            if row == self.capacity:
                self._grow()
            self.size = row + 1
        self.appended += 1
        self.v_arrival[row] = arrival
        self.v_route_ids[row] = route_id
        self.v_payload_ids[row] = payload_id
        self.v_ok[row] = True
        return row

    def _append_retain(self, route_id: int, payload_id: int, arrival: float) -> int:
        """Retain-mode :meth:`append`: rows are always fresh.

        No free list to consult and no ``ok`` reset (fresh rows are
        ``True``-initialised and :meth:`_grow` keeps the new region so).
        Installed over ``append`` by ``__init__`` when ``retain=True``.
        """
        row = self.size
        if row == self.capacity:
            self._grow()
        self.size = row + 1
        self.appended += 1
        self.v_arrival[row] = arrival
        self.v_route_ids[row] = route_id
        self.v_payload_ids[row] = payload_id
        return row

    def release(self, row: int) -> None:
        """Return a completed row to the free list (ring mode only).

        In ``retain`` mode this is a no-op, so callers can release
        unconditionally and the mode decides whether history is kept.
        """
        if not self.retain:
            self._free.append(row)

    def _grow(self) -> None:
        new_capacity = self.capacity * 2
        for name in (
            "arrival",
            "start",
            "end",
            "route_ids",
            "payload_ids",
            "error_codes",
            "ok",
            "active",
        ):
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=old.dtype)
            grown[: self.capacity] = old
            setattr(self, name, grown)
        self.ok[self.capacity :] = True
        self.slots.extend([None] * self.capacity)
        self.capacity = new_capacity
        self._refresh_views()

    # -- compatibility / oracle views ---------------------------------------

    def fail(self, row: int, error_code: int, at: float) -> None:
        """Mark a row failed-on-arrival (reject paths: start == end == at)."""
        self.v_start[row] = at
        self.v_end[row] = at
        self.v_ok[row] = False
        self.v_error_codes[row] = error_code

    def record(self, row: int) -> RequestRecord:
        """Materialise one row as the classic :class:`RequestRecord` view."""
        arrival = float(self.arrival[row])
        ok = bool(self.ok[row])
        request = Request(
            request_id=row,
            route=self._routes.names[self.route_ids[row]],
            payload=self._payloads.names[self.payload_ids[row]],
            created_at=arrival,
        )
        return RequestRecord(
            request=request,
            arrival=arrival,
            start=float(self.start[row]),
            end=float(self.end[row]),
            success=ok,
            error="" if ok else self._errors.names[self.error_codes[row]],
        )

    def records(self) -> List[RequestRecord]:
        """All rows as ``RequestRecord`` views (oracle API, retain mode).

        Ring mode recycles rows, so a full materialisation would mix
        live and already-overwritten lifecycles — refuse instead.
        """
        if not self.retain:
            raise ValueError(
                "records() requires retain=True; ring mode recycles rows"
            )
        return [self.record(row) for row in range(self.size)]

    def __len__(self) -> int:
        return self.size
