"""Tiny reference models shared across the test suite."""

from __future__ import annotations

import contextlib
import socket
import threading

from repro.tdf import TdfIn, TdfModule, TdfOut


class Passthrough(TdfModule):
    """Copies input to output (the simplest analysable model)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def processing(self) -> None:
        value = self.ip.read()
        self.op.write(value)


class Doubler(TdfModule):
    """Multiplies the input by two."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def processing(self) -> None:
        self.op.write(self.ip.read() * 2)


class Accumulator(TdfModule):
    """Keeps a running sum in a member variable."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_total = 0.0

    def initialize(self) -> None:
        self.m_total = 0.0

    def processing(self) -> None:
        self.m_total = self.m_total + self.ip.read()
        self.op.write(self.m_total)


#: Sample payloads for block-vs-interp checks of the library elements:
#: plain floats, ints, bools and the IEEE specials (NaN, ±inf, -0.0).
PAYLOADS = {
    "floats": [0.1, -2.5, 3.75, 1e300, 7e-310, 1.0 / 3.0],
    "ints": [3, -7, 0, 12, 2**61],
    "bools": [True, False, True],
    "specials": [float("nan"), float("inf"), float("-inf"), -0.0, 1.5],
}


def payload_wave(samples):
    """A waveform emitting ``samples`` in turn, one per 1 ms period."""
    return lambda t: samples[round(t * 1000) % len(samples)]


def typed_samples(values):
    """``values`` as ``(type, repr)`` pairs: equal iff every sample has
    the same type and bits (``repr`` of a float round-trips; NaN
    compares equal to NaN here, unlike ``==``)."""
    return [(type(v), repr(v)) for v in values]


def record_block_sizes(monkeypatch, cls):
    """Record ``block.n`` of every ``cls.processing_block`` call."""
    sizes = []
    original = cls.processing_block

    def spy(self, block):
        sizes.append(block.n)
        original(self, block)

    monkeypatch.setattr(cls, "processing_block", spy)
    return sizes


def exiting_suite():
    """A suite reference whose import-time call exits the interpreter."""
    raise SystemExit("suite builder exited")


@contextlib.contextmanager
def hang_up_address():
    """A listener that accepts and immediately hangs up.

    A task dispatched to it fails mid-flight, exactly like a worker
    process dying between connect and response; yields its address.
    """
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(4)
    stop = threading.Event()

    def _hang_up():
        sock.settimeout(0.2)
        while not stop.is_set():
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            conn.close()

    thread = threading.Thread(target=_hang_up, daemon=True)
    thread.start()
    try:
        yield sock.getsockname()
    finally:
        stop.set()
        thread.join(timeout=2)
        sock.close()


@contextlib.contextmanager
def worker_fleet():
    """Two in-thread workers with a hang-up address between them.

    Yields ``(workers, addrs)`` with ``addrs = [worker, dead, worker]``:
    a :class:`~repro.service.RemoteExecutor` over them stripes three
    shards, and the dead one's shard costs a retry, not a result.
    """
    from repro.service import WorkerServer

    workers = [WorkerServer(), WorkerServer()]
    live = [worker.start_in_thread() for worker in workers]
    try:
        with hang_up_address() as dead:
            yield workers, [live[0], dead, live[1]]
    finally:
        for worker in workers:
            worker.close()
