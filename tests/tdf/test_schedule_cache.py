"""Kernel schedule cache for dynamic-TDF re-elaboration."""

from repro.obs import telemetry_session
from repro.tdf import Cluster, TdfIn, TdfModule, TdfOut, ms
from repro.tdf.library import CollectorSink, ConstantSource
from repro.tdf.simulator import Simulator


class TimestepFlipper(TdfModule):
    """Alternates between a coarse and a fine timestep every period."""

    def __init__(self, name="flipper", coarse=ms(2), fine=ms(1)):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_coarse = coarse
        self.m_fine = fine

    def set_attributes(self):
        self.set_timestep(self.m_coarse)

    def processing(self):
        self.op.write(self.ip.read())

    def change_attributes(self):
        target = self.m_fine if self.timestep == self.m_coarse else self.m_coarse
        self.request_timestep(target)


def _flipper_top():
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(ConstantSource("src", 1.0))
            self.dut = self.add(TimestepFlipper())
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.dut.ip)
            self.connect(self.dut.op, self.sink.ip)

    return Top("top")


class TestScheduleCache:
    def test_oscillation_hits_after_first_visit(self):
        sim = Simulator(_flipper_top())
        sim.run_periods(6)
        # Every period flips the timestep.  The initial (coarse)
        # schedule is seeded at elaboration, the fine one is built on
        # the first flip; every later flip is a cache hit.
        assert sim.reelaborations == 6
        assert sim.schedule_cache_misses == 1
        assert sim.schedule_cache_hits == 5

    def test_cached_schedule_restores_timesteps(self):
        sim = Simulator(_flipper_top())
        sim.run_periods(1)  # now on the fine schedule (fresh build)
        assert sim.schedule.module_timesteps["flipper"] == ms(1)
        sim.run_periods(1)  # back to coarse, served from the cache
        top = sim.cluster
        assert top.dut.timestep == ms(2)
        assert top.dut.ip.timestep == ms(2)
        assert top.dut.op.timestep == ms(2)
        sim.run_periods(1)  # fine again, also from the cache
        assert top.dut.timestep == ms(1)
        assert sim.schedule_cache_hits == 2

    def test_simulated_behaviour_unchanged_by_caching(self):
        # Compare against a simulator whose cache is defeated by
        # clearing it after every period: token streams must match.
        plain = Simulator(_flipper_top())
        cached = Simulator(_flipper_top())
        for _ in range(8):
            plain.run_period()
            plain._schedule_cache.clear()
        cached.run_periods(8)
        assert plain.schedule_cache_hits == 0
        assert cached.schedule_cache_hits > 0
        assert plain.now == cached.now
        # Sample timestamps come from module/port timesteps, so this
        # also proves apply_timesteps() restored them correctly.
        assert plain.cluster.sink.m_samples == cached.cluster.sink.m_samples

    def test_telemetry_counters(self):
        with telemetry_session() as tel:
            sim = Simulator(_flipper_top())
            sim.run_periods(4)
        counters = {
            c.name: c.value
            for c in tel.metrics.counters()
            if c.name.startswith("tdf.schedule_cache")
        }
        assert counters["tdf.schedule_cache_misses"] == 1
        assert counters["tdf.schedule_cache_hits"] == 3

    def test_new_configuration_still_reelaborates(self):
        class ThreeWay(TimestepFlipper):
            def __init__(self):
                super().__init__()
                self.m_calls = 0

            def change_attributes(self):
                # ms(2) (initial) -> ms(1) -> ms(4) -> ms(2) -> ...
                cycle = [ms(1), ms(4), ms(2)]
                self.request_timestep(cycle[self.m_calls % 3])
                self.m_calls += 1

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 1.0))
                self.dut = self.add(ThreeWay())
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.dut.ip)
                self.connect(self.dut.op, self.sink.ip)

        sim = Simulator(Top("top"))
        sim.run_periods(7)
        # Two configurations never seen before (ms(1), ms(4)) -> two
        # misses; every revisit is a hit.
        assert sim.reelaborations == 7
        assert sim.schedule_cache_misses == 2
        assert sim.schedule_cache_hits == 5
