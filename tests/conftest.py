"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import pytest

from repro.tdf import Cluster, ms

# Make the shared test helpers importable from every test subdirectory.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from helpers import Accumulator, Doubler, Passthrough, worker_fleet  # noqa: E402,F401


@pytest.fixture(scope="session")
def fleet_addrs():
    """The addresses of one session-wide :func:`helpers.worker_fleet`."""
    with worker_fleet() as (_, addrs):
        yield addrs


@pytest.fixture(autouse=True)
def _fresh_static_cache():
    """Clear the process-wide static-analysis cache around every test.

    The default cache memoizes ``analyze_cluster`` by cluster
    fingerprint; without isolation a test's telemetry (e.g. the
    ``analysis.models_analyzed`` counter) would depend on which tests
    analyzed the same cluster earlier in the session.
    """
    from repro.analysis import get_default_cache

    get_default_cache().clear()
    yield
    get_default_cache().clear()


@pytest.fixture(autouse=True)
def _isolated_history(tmp_path, monkeypatch):
    """Point the default run-history ledger at a per-test directory.

    CLI invocations record history under the cache dir by default;
    without isolation, tests would append to (and read back from) the
    developer's real ledger.
    """
    import repro.obs.store as store

    monkeypatch.setattr(
        store,
        "default_history_dir",
        lambda cache_dir=None: str(tmp_path / "history"),
    )
    yield


@pytest.fixture
def passthrough_cluster():
    """source -> passthrough -> sink, 1 ms timestep."""
    from repro.tdf.library import CollectorSink, ConstantSource

    class Top(Cluster):
        def architecture(self):
            self.src = self.add(ConstantSource("src", 1.5, timestep=ms(1)))
            self.dut = self.add(Passthrough("dut"))
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.dut.ip)
            self.connect(self.dut.op, self.sink.ip)

    return Top("top")
