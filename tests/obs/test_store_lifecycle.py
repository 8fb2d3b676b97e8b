"""Columnar store lifecycle: close semantics, spill cleanup, columns.

The store owns a spill file on disk; the hard requirements are that
``close()`` is idempotent and always unlinks the file (even when a
consumer raises mid-iteration and unwinds through a ``finally``), that
a closed store refuses to serve a truncated stream, and that a failed
flush never leaves a partial pickle frame behind.
"""

import os
import pickle

import pytest

from repro.instrument.probes import WriterKind
from repro.obs.store import ColumnarProbeStore
from repro.obs.store.columns import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

EVENTS = [
    (1, "x", "m", 10),
    (0, "x", "m", 11),
    (2, "s", 0, "op", "w", 30, WriterKind.MODEL),
    (3, "s", 0, "ip", "r", "r", 40, 0),
]


def _filled(chunk_size=2, rounds=3, **kwargs):
    store = ColumnarProbeStore(chunk_size=chunk_size, **kwargs)
    for _ in range(rounds):
        for event in EVENTS:
            store.append(event)
    return store


class TestClose:
    def test_close_is_idempotent(self):
        store = _filled()
        path = store._path
        assert path is not None and os.path.exists(path)
        store.close()
        store.close()  # consumer's finally + owner's cleanup
        assert not os.path.exists(path)

    def test_iterate_after_close_raises(self):
        store = _filled()
        store.close()
        with pytest.raises(ValueError, match="closed probe store"):
            list(store)

    def test_record_past_chunk_boundary_after_close_raises(self):
        store = _filled(chunk_size=2)
        store.close()
        with pytest.raises(ValueError, match="closed probe store"):
            for event in EVENTS:
                store.append(event)

    @needs_numpy
    def test_to_columns_after_close_raises(self):
        store = _filled()
        store.close()
        with pytest.raises(ValueError, match="closed probe store"):
            store.to_columns()

    def test_mid_iteration_raise_still_unlinks_spill_file(self):
        # Issue satellite: a consumer that dies halfway through the
        # stream unwinds through the runner's ``finally: store.close()``
        # — the spill chunks must not survive it.
        store = _filled(chunk_size=2, rounds=8)
        path = store._path
        assert path is not None and os.path.exists(path)
        try:
            with pytest.raises(RuntimeError, match="consumer died"):
                for i, _event in enumerate(store):
                    if i == 5:
                        raise RuntimeError("consumer died")
        finally:
            store.close()
        assert not os.path.exists(path)


class TestFlushIntegrity:
    def test_failed_flush_leaves_no_partial_frame(self, monkeypatch):
        from repro.obs.store import probe_store as mod

        store = ColumnarProbeStore(chunk_size=2)
        store.append(EVENTS[0])
        store.append(EVENTS[1])  # first chunk spills cleanly
        real_dump = pickle.dump

        def broken_dump(payload, handle, **kwargs):
            handle.write(b"\x80garbage")  # partial frame, then die
            raise OSError("disk full")

        with monkeypatch.context() as mp:
            mp.setattr(mod.pickle, "dump", broken_dump)
            with pytest.raises(OSError, match="disk full"):
                store.append(EVENTS[2])
                store.append(EVENTS[3])
        # The partial frame was truncated away and the tail kept, so the
        # next (healthy) flush re-spills it and the stream stays whole.
        store.append((1, "y", "m", 12))
        assert list(store)[: len(EVENTS)] == EVENTS
        assert len(store) == len(EVENTS) + 1
        store.close()


@needs_numpy
class TestToColumns:
    def test_columns_match_decoded_tuples(self):
        store = _filled(chunk_size=3, rounds=4)
        tags, cols, strings = store.to_columns()
        decoded = list(store)
        assert tags.tolist() == [event[0] for event in decoded]
        assert len(tags) == len(store)
        # Spot-check the string dictionary round-trips var names.
        var_rows = [i for i, event in enumerate(decoded) if event[0] <= 1]
        for i in var_rows:
            assert strings[cols[0][i]] == decoded[i][1]
        store.close()

    def test_cache_invalidated_by_append(self):
        store = _filled(chunk_size=4, rounds=1)
        first = store.to_columns()
        assert store.to_columns() is first  # cached while unchanged
        store.append((1, "y", "m", 12))
        second = store.to_columns()
        assert second is not first
        assert len(second[0]) == len(first[0]) + 1
        store.close()

    def test_cache_invalidated_by_clear(self):
        store = _filled(chunk_size=4, rounds=1)
        store.to_columns()
        store.clear()
        tags, _cols, _strings = store.to_columns()
        assert len(tags) == 0
        store.close()
