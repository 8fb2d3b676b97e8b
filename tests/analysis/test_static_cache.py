"""Memoized static analysis: fingerprints, hits, invalidation, disk."""

import importlib.util
import sys
import textwrap

import pytest

from repro.analysis import (
    StaticAnalysisCache,
    analyze_cluster,
    fingerprint_cluster,
    get_default_cache,
)
from repro.obs import telemetry_session
from repro.systems.sensor import SenseTop

MODEL_V1 = """
from repro.tdf import Cluster, TdfIn, TdfModule, TdfOut, ms
from repro.tdf.library import CollectorSink, ConstantSource


class Scaler(TdfModule):
    def __init__(self, name="scaler"):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def processing(self):
        value = self.ip.read()
        self.op.write(value * {gain})


class Top(Cluster):
    def architecture(self):
        self.src = self.add(ConstantSource("src", 1.0, timestep=ms(1)))
        self.dut = self.add(Scaler())
        self.sink = self.add(CollectorSink("sink"))
        self.connect(self.src.op, self.dut.ip)
        self.connect(self.dut.op, self.sink.ip)
"""


def _load_cluster_module(path, gain, name="cache_probe_model"):
    """(Re)write a model module with the given gain and import it fresh
    as module ``name``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(MODEL_V1).format(gain=gain))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        return module.Top("top")
    finally:
        sys.modules.pop(name, None)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert fingerprint_cluster(SenseTop()) == fingerprint_cluster(SenseTop())

    def test_differs_between_clusters(self):
        from repro.systems.buck_boost import BuckBoostTop

        assert fingerprint_cluster(SenseTop()) != fingerprint_cluster(
            BuckBoostTop()
        )

    def test_processing_source_change_invalidates(self, tmp_path):
        path = tmp_path / "model.py"
        fp_gain2 = fingerprint_cluster(_load_cluster_module(path, gain=2))
        fp_gain3 = fingerprint_cluster(_load_cluster_module(path, gain=3))
        fp_gain2_again = fingerprint_cluster(_load_cluster_module(path, gain=2))
        assert fp_gain2 != fp_gain3
        assert fp_gain2 == fp_gain2_again


    def test_independent_of_the_checkout_location(self, tmp_path):
        """Two copies of one source tree give one fingerprint (bind
        sites hash as module name and line, not as file path), and the
        association universe does not move; renaming the module still
        changes the fingerprint."""
        from repro.core.database import universe_fingerprint

        statics = [
            analyze_cluster(_load_cluster_module(path, 2, name), cache=None)
            for path, name in (
                (tmp_path / "a" / "model.py", "cache_probe_model"),
                (tmp_path / "b" / "model.py", "cache_probe_model"),
                (tmp_path / "a" / "model.py", "cache_probe_renamed"),
            )
        ]
        copy_a, copy_b, renamed = statics
        assert copy_a.fingerprint == copy_b.fingerprint
        assert renamed.fingerprint != copy_a.fingerprint
        assert len({universe_fingerprint(s) for s in statics}) == 1

    @pytest.mark.parametrize("system, universe", [
        ("buck_boost", "72fe19db52320703"),
        ("riscv_platform", "d4b0414c33ac98bf"),
        ("sensor", "6436be59ba8e4286"),
        ("window_lifter", "e8eb9937bed3633b"),
    ])
    def test_bundled_universes_are_pinned(self, system, universe):
        from repro.core.database import universe_fingerprint
        from repro.systems.registry import SYSTEMS

        static = analyze_cluster(SYSTEMS[system].factory()(), cache=None)
        assert universe_fingerprint(static) == universe


class TestStaticAnalysisCache:
    def test_second_analysis_is_a_hit(self):
        cache = StaticAnalysisCache()
        first = analyze_cluster(SenseTop(), cache=cache)
        second = analyze_cluster(SenseTop(), cache=cache)
        assert cache.hits == 1 and cache.misses == 1
        assert first.fingerprint == second.fingerprint
        assert {a.key for a in first.associations} == {
            a.key for a in second.associations
        }

    def test_hit_hands_out_independent_containers(self):
        cache = StaticAnalysisCache()
        analyze_cluster(SenseTop(), cache=cache)
        tampered = analyze_cluster(SenseTop(), cache=cache)
        expected = len(tampered.associations)
        tampered.associations.clear()
        clean = analyze_cluster(SenseTop(), cache=cache)
        assert len(clean.associations) == expected

    def test_cache_none_disables_memoization(self):
        default = get_default_cache()
        analyze_cluster(SenseTop(), cache=None)
        assert len(default) == 0

    def test_disabled_cache_never_hits(self):
        cache = StaticAnalysisCache()
        cache.enabled = False
        analyze_cluster(SenseTop(), cache=cache)
        analyze_cluster(SenseTop(), cache=cache)
        assert cache.hits == 0 and len(cache) == 0

    def test_telemetry_counters(self):
        cache = StaticAnalysisCache()
        with telemetry_session() as tel:
            analyze_cluster(SenseTop(), cache=cache)
            analyze_cluster(SenseTop(), cache=cache)
        counters = {c.name for c in tel.metrics.counters()}
        assert "analysis.cache_misses" in counters
        assert "analysis.cache_hits" in counters


class TestDiskCache:
    def test_round_trip_across_cache_instances(self, tmp_path):
        disk = str(tmp_path / "cache")
        writer = StaticAnalysisCache(disk_dir=disk)
        original = analyze_cluster(SenseTop(), cache=writer)
        reader = StaticAnalysisCache(disk_dir=disk)
        restored = analyze_cluster(SenseTop(), cache=reader)
        assert reader.disk_hits == 1
        assert {a.key for a in restored.associations} == {
            a.key for a in original.associations
        }

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        disk = tmp_path / "cache"
        writer = StaticAnalysisCache(disk_dir=str(disk))
        analyze_cluster(SenseTop(), cache=writer)
        for entry in disk.iterdir():
            entry.write_bytes(b"not a pickle")
        reader = StaticAnalysisCache(disk_dir=str(disk))
        result = analyze_cluster(SenseTop(), cache=reader)
        assert reader.disk_hits == 0 and reader.misses == 1
        assert result.associations

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import errno
        import pickle

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        disk = tmp_path / "cache"
        monkeypatch.setattr(pickle, "dump", full_disk)
        cache = StaticAnalysisCache(disk_dir=str(disk))
        result = analyze_cluster(SenseTop(), cache=cache)
        assert result.associations  # the disk level is best-effort
        assert list(disk.glob("*.tmp")) == []

    def test_invalidated_model_misses_on_disk(self, tmp_path):
        disk = str(tmp_path / "cache")
        path = tmp_path / "model.py"
        cache = StaticAnalysisCache(disk_dir=disk)
        analyze_cluster(_load_cluster_module(path, gain=2), cache=cache)
        analyze_cluster(_load_cluster_module(path, gain=3), cache=cache)
        assert cache.misses == 2 and cache.hits == 0
