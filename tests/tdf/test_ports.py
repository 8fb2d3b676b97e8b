"""Unit tests for TDF ports (rates, delays, hooks, access rules)."""

import pytest

from repro.tdf import (
    BindingError,
    Cluster,
    PortAccessError,
    Signal,
    Simulator,
    TdfIn,
    TdfModule,
    TdfOut,
    ms,
)
from repro.tdf.library import CollectorSink, ConstantSource


class TestAttributeSetters:
    def test_rate_must_be_positive_int(self):
        port = TdfIn("p")
        with pytest.raises(PortAccessError):
            port.set_rate(0)
        with pytest.raises(PortAccessError):
            port.set_rate(1.5)
        port.set_rate(3)
        assert port.rate == 3

    def test_delay_must_be_non_negative(self):
        port = TdfOut("p")
        with pytest.raises(PortAccessError):
            port.set_delay(-1)
        port.set_delay(0)
        port.set_delay(2)
        assert port.delay == 2

    def test_timestep_must_be_positive(self):
        port = TdfIn("p")
        with pytest.raises(PortAccessError):
            port.set_timestep(ms(0))
        port.set_timestep(ms(2))
        assert port.requested_timestep == ms(2)

    def test_set_initial_value_fills_delay(self):
        port = TdfIn("p")
        port.set_delay(3)
        port.set_initial_value(9.0)
        assert port.initial_values == [9.0, 9.0, 9.0]


class TestBinding:
    def test_double_bind_rejected(self):
        port = TdfIn("p")
        port.bind(Signal("a"))
        with pytest.raises(BindingError, match="already bound"):
            port.bind(Signal("b"))

    def test_rebind_same_signal_ok(self):
        port = TdfIn("p")
        sig = Signal("a")
        port.bind(sig)
        port.bind(sig)
        assert port.signal is sig

    def test_bind_site_points_at_caller(self):
        port = TdfOut("p")
        port.bind(Signal("s"))
        assert port.bind_site is not None
        assert port.bind_site.filename.endswith("test_ports.py")

    def test_port_naming_via_module_attribute(self):
        class M(TdfModule):
            def __init__(self):
                super().__init__("m")
                self.ip_foo = TdfIn()

            def processing(self):
                pass

        m = M()
        assert m.ip_foo.name == "ip_foo"
        assert m.ip_foo.module is m
        assert m.ip_foo.full_name() == "m.ip_foo"


class _MultiRateSum(TdfModule):
    """Consumes 3 samples per activation, emits their sum."""

    def __init__(self, name):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def set_attributes(self):
        self.ip.set_rate(3)

    def processing(self):
        total = self.ip.read(0) + self.ip.read(1) + self.ip.read(2)
        self.op.write(total)


class TestRates:
    def test_multirate_downsampling(self):
        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 2.0, timestep=ms(1)))
                self.dut = self.add(_MultiRateSum("dut"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.dut.ip)
                self.connect(self.dut.op, self.sink.ip)

        top = Top("top")
        Simulator(top).run(ms(6))
        assert top.sink.values() == [6.0, 6.0]

    def test_out_of_range_offset_rejected(self):
        class Bad(TdfModule):
            def __init__(self, name):
                super().__init__(name)
                self.ip = TdfIn()

            def processing(self):
                self.ip.read(1)  # rate is 1

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 0.0, timestep=ms(1)))
                self.bad = self.add(Bad("bad"))
                self.connect(self.src.op, self.bad.ip)

        with pytest.raises(PortAccessError, match="out of range"):
            Simulator(Top("top")).run(ms(1))


class TestAccessRules:
    def test_read_outside_activation_rejected(self, passthrough_cluster):
        top = passthrough_cluster
        Simulator(top).run(ms(1))
        with pytest.raises(PortAccessError, match="outside of processing"):
            top.dut.ip.read()

    def test_write_outside_activation_rejected(self, passthrough_cluster):
        top = passthrough_cluster
        Simulator(top).run(ms(1))
        with pytest.raises(PortAccessError, match="outside of processing"):
            top.dut.op.write(1.0)

    def test_unbound_read_rejected(self):
        port = TdfIn("p")
        with pytest.raises(PortAccessError, match="unbound"):
            port.read()

    def test_unbound_write_rejected(self):
        port = TdfOut("p")
        with pytest.raises(PortAccessError, match="unbound"):
            port.write(1.0)


class TestSampleAndHold:
    def test_unwritten_samples_repeat_last_value(self):
        class Sometimes(TdfModule):
            def __init__(self, name):
                super().__init__(name)
                self.op = TdfOut()
                self.m_count = 0

            def set_attributes(self):
                self.set_timestep(ms(1))

            def processing(self):
                if self.m_count == 0:
                    self.op.write(42.0)
                self.m_count += 1

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(Sometimes("src"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.sink.ip)

        top = Top("top")
        Simulator(top).run(ms(4))
        assert top.sink.values() == [42.0, 42.0, 42.0, 42.0]

    def test_before_first_write_uses_initial_value(self):
        class Late(TdfModule):
            def __init__(self, name):
                super().__init__(name)
                self.op = TdfOut()
                self.m_count = 0

            def set_attributes(self):
                self.set_timestep(ms(1))

            def processing(self):
                if self.m_count >= 2:
                    self.op.write(1.0)
                self.m_count += 1

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(Late("src"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.sink.ip, initial_value=-5.0)

        top = Top("top")
        Simulator(top).run(ms(4))
        assert top.sink.values() == [-5.0, -5.0, 1.0, 1.0]


class TestUndrivenRead:
    def test_undriven_signal_yields_initial_value(self):
        class Reader(TdfModule):
            def __init__(self, name):
                super().__init__(name)
                self.ip = TdfIn()
                self.m_seen = []

            def set_attributes(self):
                self.set_timestep(ms(1))

            def processing(self):
                self.m_seen.append(self.ip.read())

        class Top(Cluster):
            def architecture(self):
                self.r = self.add(Reader("r"))
                self.r.ip.bind(self.signal("floating", initial_value=3.3))

        top = Top("top")
        Simulator(top).run(ms(2))
        assert top.r.m_seen == [3.3, 3.3]

