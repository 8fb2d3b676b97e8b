"""Streaming columnar probe store with chunked disk spillover.

:class:`ColumnarProbeStore` is a drop-in recording backend for the
flat probe buffer (``ProbeRuntime._buf``): the instrumented code, the
probe closures and the block engine's compiled ops only ever call
``.append(event_tuple)`` on the buffer, so the store can stand in for
the plain list on either engine.  Every ``chunk_size`` appends, the pending tail is
packed into flat int columns (:mod:`.columns`) and pickled as one frame
onto a single append-only spill file, so a simulation producing
millions of probe events holds at most one chunk of live tuples —
O(1) memory in simulation length.

The store advertises ``streaming = True``; the event matcher
(:mod:`repro.instrument.matching`) detects that and runs the vector
kernel over :meth:`ColumnarProbeStore.to_columns` when numpy is
available, or else its two-pass streaming algorithm, which iterates
the store twice (decoding spilled chunks one at a time) instead of
holding every tuple alive.

Telemetry (when a session is active) lands under ``obs.store_*``:
``obs.store_rows``, ``obs.store_chunks_spilled``,
``obs.store_spill_bytes`` counters and an ``obs.store_flush_seconds``
histogram of per-chunk flush latency.

:class:`ProbeStoreSpec` is the picklable recipe that crosses process
boundaries (the parallel executor ships it to workers, which build one
store per testcase).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from .columns import (
    HAVE_NUMPY,
    PAYLOAD_COLUMNS,
    TAG_PR,
    TAG_PW,
    _np,
    chunk_tag_counts,
    decode_chunk,
    encode_chunk,
)

#: Rows buffered in memory before a chunk is spilled to disk.
DEFAULT_CHUNK_SIZE = 65536


@dataclass(frozen=True)
class ProbeStoreSpec:
    """Picklable recipe for building a probe store inside any process.

    ``kind`` is ``"memory"`` (plain list buffer — the default recording
    backend) or ``"columnar"``.  ``chunk_size``/``spill_dir`` only apply
    to the columnar store; ``spill_dir=None`` spills into the platform
    temp directory.
    """

    kind: str = "memory"
    chunk_size: Optional[int] = None
    spill_dir: Optional[str] = None

    def make(self, telemetry: Any = None) -> Optional["ColumnarProbeStore"]:
        """Build the store this spec describes (``None`` for in-memory)."""
        if self.kind == "memory":
            return None
        if self.kind != "columnar":
            raise ValueError(f"unknown probe store kind: {self.kind!r}")
        return ColumnarProbeStore(
            chunk_size=self.chunk_size or DEFAULT_CHUNK_SIZE,
            spill_dir=self.spill_dir,
            telemetry=telemetry,
        )


class ColumnarProbeStore:
    """Append-only probe-event buffer with columnar disk spillover."""

    #: Tells the matcher this is a re-iterable columnar store (vector
    #: kernel, or the two-pass streaming scan without numpy).
    streaming = True

    def __init__(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        spill_dir: Optional[str] = None,
        telemetry: Any = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1 (got {chunk_size})")
        self.chunk_size = chunk_size
        self._spill_root = spill_dir
        self._path: Optional[str] = None
        self._file: Any = None
        self._tel = telemetry
        self._tail: List[tuple] = []
        self._chunks = 0
        self._spilled_rows = 0
        self._spilled_counts = (0, 0, 0)  # (var, write, read) on disk
        self._spill_bytes = 0
        self._strings: List[str] = []
        self._string_ids: dict = {}
        #: Cached ``to_columns()`` result, keyed on the recorded shape
        #: so further appends (or a clear) invalidate it.
        self._columns_cache: Optional[tuple] = None
        self._closed = False

    # -- recording ----------------------------------------------------------

    def append(self, event: tuple) -> None:
        """Record one probe event tuple (list-compatible hot path)."""
        tail = self._tail
        tail.append(event)
        if len(tail) >= self.chunk_size:
            self._flush()

    def _flush(self) -> None:
        if not self._tail:
            return
        if self._closed:
            raise ValueError("cannot record into a closed probe store")
        started = time.perf_counter()
        base = encode_chunk(self._tail, self._string_ids, self._strings)
        handle = self._file
        if handle is None:
            if self._spill_root is not None:
                os.makedirs(self._spill_root, exist_ok=True)
            fd, self._path = tempfile.mkstemp(
                prefix="repro-store-", suffix=".bin", dir=self._spill_root
            )
            handle = self._file = os.fdopen(fd, "w+b")
        before = handle.tell()
        try:
            pickle.dump(base, handle, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            # A partial frame would corrupt every later read; rewind so
            # the spill file stays a clean sequence of whole chunks.
            handle.seek(before)
            handle.truncate()
            raise
        size = handle.tell() - before
        self._chunks += 1
        self._spilled_rows += len(self._tail)
        nv, nw, nr = chunk_tag_counts(base)
        ov, ow, orr = self._spilled_counts
        self._spilled_counts = (ov + nv, ow + nw, orr + nr)
        self._spill_bytes += size
        self._tail.clear()
        tel = self._tel
        if tel is not None and getattr(tel, "enabled", False):
            tel.metrics.counter("obs.store_chunks_spilled").inc()
            tel.metrics.counter("obs.store_spill_bytes").inc(size)
            tel.metrics.histogram("obs.store_flush_seconds").observe(
                time.perf_counter() - started
            )

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return self._spilled_rows + len(self._tail)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[tuple]:
        """Replay every recorded event in order (re-iterable).

        Spilled chunks are decoded lazily, one frame at a time through
        a separate read handle, so iteration keeps the O(1)-memory
        property the store exists for.
        """
        if self._closed:
            raise ValueError("cannot iterate a closed probe store")
        if self._chunks:
            self._file.flush()
            with open(self._path, "rb") as reader:
                for _ in range(self._chunks):
                    for event in decode_chunk(pickle.load(reader), self._strings):
                        yield event
        for event in self._tail:
            yield event

    def to_columns(self) -> Optional[tuple]:
        """The whole stream as flat per-field numpy arrays.

        Returns ``(tags, payload_columns, strings)`` — tags ``uint8``,
        each of the seven payload columns ``int64`` — or ``None`` when
        numpy is unavailable.  Spilled chunks are already columnar, so
        assembling the stream is frame unpickling plus one
        ``np.concatenate`` per column: no per-event tuple is ever
        decoded.  This is what the vectorized matching kernel
        (:mod:`repro.instrument.matchkernel`) consumes; the result is
        cached until further events are recorded.
        """
        if not HAVE_NUMPY:
            return None
        if self._closed:
            raise ValueError("cannot read columns of a closed probe store")
        key = (self._spilled_rows, self._chunks, len(self._tail))
        cached = self._columns_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        tag_parts: List[Any] = []
        col_parts: List[List[Any]] = [[] for _ in range(PAYLOAD_COLUMNS)]

        def take(base: tuple) -> None:
            tag_parts.append(_np.frombuffer(base[2], dtype=_np.uint8))
            for j, col in enumerate(base[3]):
                col_parts[j].append(_np.asarray(col, dtype=_np.int64))

        if self._chunks:
            self._file.flush()
            with open(self._path, "rb") as reader:
                for _ in range(self._chunks):
                    take(pickle.load(reader))
        if self._tail:
            # Transient encode of the live tail through the store's own
            # string table (ids stay consistent with spilled chunks).
            take(encode_chunk(self._tail, self._string_ids, self._strings))
        if tag_parts:
            tags = _np.concatenate(tag_parts)
            cols = tuple(_np.concatenate(parts) for parts in col_parts)
        else:
            tags = _np.zeros(0, dtype=_np.uint8)
            cols = tuple(
                _np.zeros(0, dtype=_np.int64) for _ in range(PAYLOAD_COLUMNS)
            )
        value = (tags, cols, self._strings)
        self._columns_cache = (key, value)
        return value

    def event_counts(self) -> tuple:
        """``(var, write, read)`` event counts without materialising
        spilled chunks (tags are tracked at flush time; only the live
        tail is scanned).  Mirrors ``ProbeRuntime.event_counts``."""
        nv, nw, nr = self._spilled_counts
        for event in self._tail:
            tag = event[0]
            if tag == TAG_PW:
                nw += 1
            elif tag == TAG_PR:
                nr += 1
            else:
                nv += 1
        return (nv, nw, nr)

    # -- lifecycle ----------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded events, in place (closures keep working)."""
        self._tail.clear()
        if self._file is not None:
            self._file.seek(0)
            self._file.truncate()
        self._chunks = 0
        self._spilled_rows = 0
        self._spilled_counts = (0, 0, 0)
        self._spill_bytes = 0
        self._strings.clear()
        self._string_ids.clear()
        self._columns_cache = None

    def close(self) -> None:
        """Release the spill file; final row count goes to telemetry.

        Idempotent: safe to call from both a consumer's ``finally`` and
        the owner's cleanup path.  After close, recording past a chunk
        boundary, iterating, and ``to_columns`` all raise
        ``ValueError`` — a closed store has unlinked its spill file, so
        silently serving a truncated stream would be worse.
        """
        if self._closed:
            return
        self._closed = True
        tel = self._tel
        if tel is not None and getattr(tel, "enabled", False):
            tel.metrics.counter("obs.store_rows").inc(len(self))
        self._tail.clear()
        self._columns_cache = None
        self._discard_file()

    def _discard_file(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._file = None
        if self._path is not None:
            try:
                os.unlink(self._path)
            except OSError:  # pragma: no cover - already gone
                pass
            self._path = None

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            self._discard_file()
        except Exception:
            pass
