"""Unit tests for the probe runtime (the online pairer)."""

import inspect

from repro.instrument import instrument_processing
from repro.instrument.probes import ProbeRuntime, _SignalWrites
from repro.tdf import Cluster, Simulator, TdfModule, ms
from repro.tdf.library import CollectorSink, ConstantSource


class _Holder(TdfModule):
    """Port-free module whose processing moves a member through a local."""

    def __init__(self, name="m"):
        super().__init__(name)
        self.m_in = object()
        self.m_out = None

    def processing(self):
        value = self.m_in
        self.m_out = value


def _instrumented(probe):
    holder = _Holder()
    instrument_processing(holder, probe)
    return holder


def _holder_lines():
    first = inspect.getsourcelines(_Holder.processing)[1] + 1
    return first, first + 1


class TestVarApi:
    def test_u_returns_value_unchanged(self):
        probe = ProbeRuntime("top")
        holder = _instrumented(probe)
        holder._processing_fn()
        assert holder.m_out is holder.m_in
        l1, l2 = _holder_lines()
        assert probe.last_def == {("m", "value"): l1, ("m", "m_out"): l2}
        assert probe.use_hits == {
            (("m_in", "m", l1), None),  # m_in is never defined in processing
            (("value", "m", l2), l1),
        }

    def test_repeated_activations_add_no_state(self):
        probe = ProbeRuntime("top")
        holder = _instrumented(probe)
        holder._processing_fn()
        hits = set(probe.use_hits)
        for _ in range(5):
            holder._processing_fn()
        assert probe.use_hits == hits


class TestPortApi:
    def _top(self, dut_cls=None):
        from helpers import Passthrough

        dut_cls = dut_cls or Passthrough

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 2.0, timestep=ms(1)))
                self.dut = self.add(dut_cls("dut"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.dut.ip)
                self.connect(self.dut.op, self.sink.ip)

        return Top("top")

    def test_accessors_perform_the_access(self):
        top = self._top()
        probe = ProbeRuntime("top")
        # A model write of token 0 on the read signal (the floor of
        # both reads).
        model_writes = probe.signal_writes[top.dut.ip.signal.name] = _SignalWrites()
        model_writes.add(0, ("op", "src", 7))
        read = probe.reader(top.dut.ip, "dut", ("dut", 101))
        write = probe.writer(top.dut.op, ("op", "dut", 102))

        def processing():
            write(read() * 3)

        top.dut.register_processing(processing)
        Simulator(top).run(ms(2))
        assert top.sink.values() == [6.0, 6.0]
        assert probe.read_hits == {("op", "src", 7, "dut", 101)}  # anchor line
        writes = probe.signal_writes[top.dut.op.signal.name]
        assert (writes.run_starts, writes.run_ends) == ([0], [1])
        assert writes.run_sites == [("op", "dut", 102)]

    def test_opaque_module_reads_anchor_at_bind_site(self):
        from helpers import Passthrough

        class Opaque(Passthrough):
            OPAQUE_USES = True

        top = self._top(Opaque)
        probe = ProbeRuntime("top")
        probe.static_sites[top.dut.ip.signal.name] = (top.src.op, ("op", "src", 7))
        instrument_processing(top.dut, probe)
        Simulator(top).run(ms(1))
        assert probe.read_hits == {
            ("op", "src", 7, "top", top.dut.ip.bind_site.lineno)
        }
