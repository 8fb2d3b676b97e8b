"""Unit tests for the token-stream signal."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tdf import BindingError, Signal, SimulationError, TdfIn, TdfModule, TdfOut


def _reader(name="m"):
    class M(TdfModule):
        def __init__(self, n):
            super().__init__(n)
            self.ip = TdfIn()

        def processing(self):
            pass

    return M(name).ip


def _writer(name="w"):
    class W(TdfModule):
        def __init__(self, n):
            super().__init__(n)
            self.op = TdfOut()

        def processing(self):
            pass

    return W(name).op


class TestTopology:
    def test_single_driver_enforced(self):
        sig = Signal("s")
        sig.attach_driver(_writer("a"))
        with pytest.raises(BindingError, match="already driven"):
            sig.attach_driver(_writer("b"))

    def test_same_driver_twice_ok(self):
        sig = Signal("s")
        port = _writer()
        sig.attach_driver(port)
        sig.attach_driver(port)
        assert sig.driver is port

    def test_multiple_readers(self):
        sig = Signal("s")
        r1, r2 = _reader("a"), _reader("b")
        sig.attach_reader(r1)
        sig.attach_reader(r2)
        assert sig.readers == [r1, r2]

    def test_reader_attach_idempotent(self):
        sig = Signal("s")
        r = _reader()
        sig.attach_reader(r)
        sig.attach_reader(r)
        assert sig.readers == [r]


class TestTokenFlow:
    def test_fifo_order(self):
        sig = Signal("s")
        r = _reader()
        sig.attach_reader(r)
        sig.reset()
        for i in range(5):
            sig.write(i * 10)
        assert sig.consume(r, 5) == [0, 10, 20, 30, 40]

    def test_write_returns_monotonic_indices(self):
        sig = Signal("s")
        assert [sig.write(v) for v in "abc"] == [0, 1, 2]

    def test_read_past_end_raises(self):
        sig = Signal("s")
        r = _reader()
        sig.attach_reader(r)
        sig.reset()
        sig.write(1.0)
        with pytest.raises(SimulationError, match="read past end"):
            sig.consume(r, 2)

    def test_peek_does_not_consume(self):
        sig = Signal("s")
        r = _reader()
        sig.attach_reader(r)
        sig.reset()
        sig.write(7.0)
        assert sig.peek(r) == 7.0
        assert sig.peek(r) == 7.0
        assert sig.consume(r, 1) == [7.0]

    def test_garbage_collection_bounds_memory(self):
        sig = Signal("s")
        r = _reader()
        sig.attach_reader(r)
        sig.reset()
        for i in range(10_000):
            sig.write(i)
            sig.consume(r, 1)
        # GC is amortised: the retained backlog stays below the small
        # collection threshold instead of growing with the stream.
        assert len(sig._tokens) <= 64

    def test_slowest_reader_retains_tokens(self):
        sig = Signal("s")
        fast, slow = _reader("fast"), _reader("slow")
        sig.attach_reader(fast)
        sig.attach_reader(slow)
        sig.reset()
        for i in range(10):
            sig.write(i)
        sig.consume(fast, 10)
        # slow has consumed nothing: everything must still be there.
        assert sig.consume(slow, 10) == list(range(10))


class TestDelaysAndInitialValues:
    def test_reader_delay_yields_initial_values(self):
        sig = Signal("s", initial_value=-1.0)
        r = _reader()
        r.set_delay(2)
        sig.attach_reader(r)
        sig.reset()
        sig.write(5.0)
        assert sig.consume(r, 3) == [-1.0, -1.0, 5.0]

    def test_reader_initial_values_list(self):
        sig = Signal("s")
        r = _reader()
        r.set_delay(2)
        r.set_initial_values([10.0, 20.0])
        sig.attach_reader(r)
        sig.reset()
        sig.write(30.0)
        assert sig.consume(r, 3) == [10.0, 20.0, 30.0]

    def test_output_delay_priming(self):
        sig = Signal("s", initial_value=0.5)
        r = _reader()
        sig.attach_reader(r)
        sig.reset()
        sig.prime_output_delay(2)
        sig.write(9.0)
        assert sig.consume(r, 3) == [0.5, 0.5, 9.0]

    def test_output_delay_priming_with_values(self):
        sig = Signal("s")
        r = _reader()
        sig.attach_reader(r)
        sig.reset()
        sig.prime_output_delay(2, [1.0, 2.0])
        assert sig.consume(r, 2) == [1.0, 2.0]


class TestReset:
    def test_reset_clears_tokens_and_cursors(self):
        sig = Signal("s")
        r = _reader()
        r.set_delay(1)
        sig.attach_reader(r)
        sig.reset()
        sig.write(1.0)
        sig.consume(r, 1)
        sig.reset()
        assert sig.write_count == 0
        assert r._cursor == -1


class TestProperties:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    def test_consume_returns_written_order(self, values):
        sig = Signal("s")
        r = _reader()
        sig.attach_reader(r)
        sig.reset()
        for v in values:
            sig.write(v)
        assert sig.consume(r, len(values)) == values

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_available_accounting(self, written, delay):
        sig = Signal("s")
        r = _reader()
        r.set_delay(delay)
        sig.attach_reader(r)
        sig.reset()
        for i in range(written):
            sig.write(i)
        assert sig.available(r) == written + delay
