"""Unit tests for the TDF module base class."""

import pytest

from repro.tdf import (
    Cluster,
    DynamicTdfError,
    Simulator,
    TdfError,
    TdfIn,
    TdfModule,
    TdfOut,
    ms,
    us,
)
from repro.tdf.library import CollectorSink, ConstantSource


class TestConstruction:
    def test_name_required(self):
        with pytest.raises(TdfError):
            TdfModule("")
        with pytest.raises(TdfError):
            TdfModule(None)

    def test_ports_registered_in_declaration_order(self):
        class M(TdfModule):
            def __init__(self):
                super().__init__("m")
                self.a = TdfIn()
                self.b = TdfOut()
                self.c = TdfIn()

            def processing(self):
                pass

        m = M()
        assert [p.name for p in m.ports()] == ["a", "b", "c"]
        assert [p.name for p in m.in_ports()] == ["a", "c"]
        assert [p.name for p in m.out_ports()] == ["b"]

    def test_port_lookup(self):
        class M(TdfModule):
            def __init__(self):
                super().__init__("m")
                self.ip = TdfIn()

            def processing(self):
                pass

        m = M()
        assert m.port("ip") is m.ip
        with pytest.raises(TdfError, match="no port"):
            m.port("nope")

    def test_non_port_attributes_unaffected(self):
        class M(TdfModule):
            def __init__(self):
                super().__init__("m")
                self.m_x = 5

            def processing(self):
                pass

        assert M().m_x == 5


class TestProcessingRegistration:
    def test_default_processing_raises_if_missing(self):
        m = TdfModule("m")
        with pytest.raises(NotImplementedError):
            m.processing()

    def test_register_processing_overrides(self):
        calls = []

        class M(TdfModule):
            def processing(self):
                calls.append("method")

        m = M("m")
        m.register_processing(lambda: calls.append("registered"))
        m.resolved_processing()()
        assert calls == ["registered"]

    def test_register_processing_rejects_non_callable(self):
        with pytest.raises(TdfError):
            TdfModule("m").register_processing(42)


class TestTimestepRequests:
    def test_set_timestep_validation(self):
        m = TdfModule("m")
        with pytest.raises(TdfError):
            m.set_timestep(ms(0))
        m.set_timestep(ms(2))
        assert m.requested_timestep == ms(2)

    def test_request_timestep_pends_until_consumed(self):
        m = TdfModule("m")
        m.request_timestep(us(100))
        assert m.has_pending_attribute_requests
        assert m.consume_attribute_requests()
        assert m.requested_timestep == us(100)
        assert not m.has_pending_attribute_requests

    def test_request_rate(self):
        class M(TdfModule):
            def __init__(self):
                super().__init__("m")
                self.ip = TdfIn()

            def processing(self):
                pass

        m = M()
        m.request_rate("ip", 4)
        m.consume_attribute_requests()
        assert m.ip.rate == 4

    def test_request_rate_unknown_port(self):
        m = TdfModule("m")
        with pytest.raises(DynamicTdfError, match="no port"):
            m.request_rate("ghost", 2)

    def test_attribute_changes_can_be_refused(self):
        class Frozen(TdfModule):
            ACCEPT_ATTRIBUTE_CHANGES = False

        with pytest.raises(DynamicTdfError, match="does not accept"):
            Frozen("m").request_timestep(ms(1))


class TestLifecycle:
    def test_activation_counts_and_times(self):
        class Probe(TdfModule):
            def __init__(self, name):
                super().__init__(name)
                self.ip = TdfIn()
                self.m_times = []

            def processing(self):
                self.ip.read()
                self.m_times.append(self.time)

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 0.0, timestep=ms(2)))
                self.probe = self.add(Probe("probe"))
                self.connect(self.src.op, self.probe.ip)

        top = Top("top")
        Simulator(top).run(ms(6))
        assert top.probe.activation_count == 3
        assert top.probe.m_times == [ms(0), ms(2), ms(4)]

    def test_local_time_offsets_by_sample(self):
        m = TdfModule("m")
        m.timestep = ms(2)
        m._time_fs = ms(10).femtoseconds
        assert m.local_time(0) == ms(10)
        assert m.local_time(3) == ms(16)

    def test_initialize_and_end_of_simulation_called(self):
        events = []

        class M(TdfModule):
            def __init__(self, name):
                super().__init__(name)
                self.op = TdfOut()

            def set_attributes(self):
                self.set_timestep(ms(1))

            def initialize(self):
                events.append("init")

            def processing(self):
                self.op.write(0.0)

            def end_of_simulation(self):
                events.append("end")

        class Top(Cluster):
            def architecture(self):
                self.m = self.add(M("m"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.m.op, self.sink.ip)

        sim = Simulator(Top("top"))
        sim.run(ms(2))
        sim.finish()
        assert events == ["init", "end"]
