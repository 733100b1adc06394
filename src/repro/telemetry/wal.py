"""Durable write-ahead log for telemetry events.

Format: a WAL is a directory of JSON-lines *segments*
(``wal-00000001.jsonl``, ``wal-00000002.jsonl``, …).  Each line is

    {"crc": <zlib.crc32 of the canonical event JSON>, "event": {...}}

so every record is independently verifiable.  Segments rotate at a size
threshold, which bounds the cost of tail recovery and lets retention/
archival operate on whole files.

The canonical event JSON is ``json.dumps(event.to_json_dict(),
sort_keys=True, separators=(",", ":"))``, ASCII-only.  The writer builds
those bytes without a per-event ``json.dumps``: the six keys always sort
as ``attrs, kind, labels, source, timestamp, value``, so it fills that
fixed envelope, writing finite floats with ``float.__repr__`` and strings
with ``json``'s ASCII string encoder (both what the encoder itself
calls), and hands everything else — non-empty ``attrs``/``labels``,
non-finite floats, ints, bools, float subclasses, other types — to one
module-level ``json.JSONEncoder`` with the same settings.  An event with
empty ``attrs`` and ``labels`` shares its envelope up to the timestamp
with every such event of its ``(kind, source)``; each
:class:`WriteAheadLog` caches those heads, a bounded number of them.
Each record is encoded once; the CRC runs over the payload bytes.
:meth:`WriteAheadLog.append` writes one record;
:meth:`WriteAheadLog.append_many` appends a batch record by record but
holds the lines back and writes each segment's share joined, in one
``write`` to the binary handle.

Crash story: a process killed mid-write leaves at most a truncated (or
garbled) final line in the *last* segment.  :meth:`WriteAheadLog.open`
scans that tail and truncates it away; :func:`replay` streams every intact
record back in append order, so dashboards and audits can be rebuilt
exactly (see ``examples/telemetry_replay.py``).  Corruption anywhere other
than the final tail is *not* silently skipped — it raises
:class:`WalCorruptionError`, because a hole in the middle of an audit
stream must be investigated, not papered over.
"""

from __future__ import annotations

import json
import os
import zlib
from math import inf
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.telemetry.bus import consume
from repro.telemetry.events import TelemetryEvent

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"

#: Most envelope heads one WAL caches (one per ``(kind, source)``).
HEAD_CACHE_SIZE = 4096


class WalCorruptionError(RuntimeError):
    """A record failed its checksum somewhere replay cannot self-heal."""


#: The canonical encoder; its ``encode`` equals ``json.dumps`` with the
#: same arguments, without building an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_canonical = _ENCODER.encode
_encode_str = json.encoder.encode_basestring_ascii


def _scalar(value: object) -> str:
    """``_canonical(value)`` for one envelope field."""
    if type(value) is float and -inf < value < inf:
        return repr(value)
    if type(value) is str:
        return _encode_str(value)
    return _canonical(value)


def _mapping(value: object) -> str:
    """``_canonical(value)`` for ``attrs``/``labels``, usually empty."""
    if type(value) is dict and not value:
        return "{}"
    return _canonical(value)


def _head(event: TelemetryEvent) -> str:
    """The canonical event JSON up to the timestamp's value."""
    return (
        f'{{"attrs":{_mapping(event.attrs)},"kind":{_scalar(event.kind)},'
        f'"labels":{_mapping(event.labels)},"source":{_scalar(event.source)},'
        f'"timestamp":'
    )


def _encode(
    event: TelemetryEvent, heads: Dict[Tuple[str, str], str]
) -> bytes:
    """One WAL line: ``_canonical(event.to_json_dict())`` plus its CRC.

    ``heads`` caches :func:`_head` by ``(kind, source)`` for events whose
    ``attrs`` and ``labels`` are empty dicts and whose kind and source
    are ``str`` (so a key never stands for another type's text).
    """
    attrs = event.attrs
    labels = event.labels
    kind = event.kind
    source = event.source
    if (
        type(attrs) is dict and type(labels) is dict and not attrs and not labels
        and type(kind) is str and type(source) is str
    ):
        head = heads.get((kind, source))
        if head is None:
            head = _head(event)
            if len(heads) < HEAD_CACHE_SIZE:
                heads[kind, source] = head
    else:
        head = _head(event)
    payload = (
        f'{head}{_scalar(event.timestamp)},"value":{_scalar(event.value)}}}'
    ).encode()
    return b'{"crc": %d, "event": %b}\n' % (zlib.crc32(payload), payload)


def _decode(line: str) -> Optional[TelemetryEvent]:
    """Parse one WAL line; ``None`` means damaged (bad JSON or bad CRC)."""
    try:
        record = json.loads(line)
        payload = record["event"]
        expected = int(record["crc"])
    except (ValueError, KeyError, TypeError):
        return None
    actual = zlib.crc32(_canonical(payload).encode("utf-8"))
    if actual != expected:
        return None
    try:
        return TelemetryEvent.from_json_dict(payload)
    except (ValueError, KeyError, TypeError):
        return None


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def segment_paths(directory: str) -> List[str]:
    """All segment files in append order."""
    if not os.path.isdir(directory):
        return []
    names = sorted(
        n
        for n in os.listdir(directory)
        if n.startswith(SEGMENT_PREFIX) and n.endswith(SEGMENT_SUFFIX)
    )
    return [os.path.join(directory, n) for n in names]


class WriteAheadLog:
    """Append-only, segment-rotated event log.

    Parameters
    ----------
    directory:
        WAL home; created if missing.  One WAL per directory.
    max_segment_bytes:
        Rotation threshold; a segment is closed once its size reaches
        this, keeping tail-recovery and archival costs bounded.
    fsync:
        When ``True`` every :meth:`flush` also fsyncs — durable against
        power loss at a heavy latency cost; the default only guarantees
        process-crash durability, which is what the tests simulate.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        max_segment_bytes: int = 1 << 20,
        fsync: bool = False,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError("max_segment_bytes must be >= 1")
        self.directory = os.fspath(directory)
        self.max_segment_bytes = max_segment_bytes
        self.fsync = fsync
        os.makedirs(self.directory, exist_ok=True)
        self._handle = None
        self._segment_index = 0
        self._segment_bytes = 0
        self._heads: Dict[Tuple[str, str], str] = {}
        #: lines appended but not yet written, inside :meth:`append_many`
        self._held: Optional[List[bytes]] = None
        self.appended = 0
        self.recovered_truncated_records = 0
        self._open_tail()

    # -- segment management ---------------------------------------------------

    def _open_tail(self) -> None:
        """Resume on the last segment, healing a torn tail if present."""
        segments = segment_paths(self.directory)
        if not segments:
            self._segment_index = 1
            self._open_segment()
            return
        tail = segments[-1]
        self._segment_index = int(
            os.path.basename(tail)[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
        )
        self.recovered_truncated_records = self._truncate_damaged_tail(tail)
        self._segment_bytes = os.path.getsize(tail)
        if self._segment_bytes >= self.max_segment_bytes:
            self._segment_index += 1
            self._open_segment()
        else:
            self._handle = open(tail, "ab")

    def _truncate_damaged_tail(self, path: str) -> int:
        """Drop trailing damaged lines from a segment; return how many."""
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
        intact = len(lines)
        while intact > 0 and _decode(lines[intact - 1]) is None:
            intact -= 1
        dropped = len(lines) - intact
        if dropped:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:intact])
        return dropped

    def _open_segment(self) -> None:
        if self._handle is not None:
            self._handle.close()
        path = os.path.join(self.directory, _segment_name(self._segment_index))
        self._handle = open(path, "ab")
        self._segment_bytes = os.path.getsize(path)

    # -- writing ----------------------------------------------------------------

    def append(self, event: TelemetryEvent) -> None:
        """Write one event record, rotating the segment when full.

        A segment takes records until its size reaches
        ``max_segment_bytes`` (the record that reaches it included), then
        the next segment opens.  Within :meth:`append_many` the line is
        held back and written with the rest of its segment's share of the
        batch.
        """
        if self._handle is None:
            raise RuntimeError("WAL is closed")
        line = _encode(event, self._heads)
        held = self._held
        if held is None:
            self._handle.write(line)
        else:
            held.append(line)
        self._segment_bytes += len(line)
        self.appended += 1
        if self._segment_bytes >= self.max_segment_bytes:
            self._write_held()
            self._segment_index += 1
            self._open_segment()

    def append_many(self, events: Iterable[TelemetryEvent]) -> None:
        """:meth:`append` a batch of events in order, writing each
        segment's share of the batch to the buffered handle in one
        ``write`` (so a share larger than the buffer reaches the OS at
        once).

        This is the ``wal`` subscription's bus callback.  If an event
        fails to encode, the lines before it are written, those events
        popped off a deque batch (:func:`~repro.telemetry.bus.consume`)
        and the error re-raised; a ``write`` that raises pops none of its
        share.  ``appended`` counts the records written.
        """
        before = self.appended
        self._held = []
        try:
            for event in events:
                self.append(event)
            self._write_held()
        except BaseException:
            try:
                self._write_held()
            finally:
                consume(events, self.appended - before)
            raise
        finally:
            self._held = None

    def _write_held(self) -> None:
        """Write the held lines in one ``write``; if it raises, they are
        dropped and un-counted, as if never appended."""
        held = self._held
        if not held:
            return
        try:
            self._handle.write(b"".join(held))
        except BaseException:
            self.appended -= len(held)
            self._segment_bytes -= sum(map(len, held))
            raise
        finally:
            held.clear()

    def flush(self) -> None:
        if self._handle is None:
            return
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    @property
    def segments(self) -> List[str]:
        return segment_paths(self.directory)

    def stats(self) -> Dict[str, int]:
        return {
            "appended": self.appended,
            "segments": len(self.segments),
            "segment_index": self._segment_index,
            "recovered_truncated_records": self.recovered_truncated_records,
        }


def replay(
    directory: Union[str, os.PathLike],
    start: Optional[float] = None,
    end: Optional[float] = None,
    sources: Optional[List[str]] = None,
) -> Iterator[TelemetryEvent]:
    """Stream every intact event back in append order.

    ``start``/``end`` bound event timestamps (inclusive/exclusive) and
    ``sources`` filters by producer, so cold queries pay only for what
    they read.  Damaged lines at the very tail of the *last* segment are
    tolerated (that is the crash signature the WAL is designed to heal);
    damage anywhere else raises :class:`WalCorruptionError`.
    """
    directory = os.fspath(directory)
    segments = segment_paths(directory)
    if not segments:
        raise FileNotFoundError(f"no WAL segments under {directory!r}")
    wanted = None if sources is None else set(sources)
    for seg_pos, path in enumerate(segments):
        last_segment = seg_pos == len(segments) - 1
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
        for line_pos, line in enumerate(lines):
            event = _decode(line)
            if event is None:
                if last_segment and all(
                    _decode(rest) is None for rest in lines[line_pos:]
                ):
                    return  # torn tail: everything after is damage, stop
                raise WalCorruptionError(
                    f"corrupt record at {path}:{line_pos + 1}"
                )
            if start is not None and event.timestamp < start:
                continue
            if end is not None and event.timestamp >= end:
                continue
            if wanted is not None and event.source not in wanted:
                continue
            yield event
