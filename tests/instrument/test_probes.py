"""Unit tests for the probe runtime (the online pairer)."""

import inspect

from repro.instrument import instrument_processing
from repro.instrument.probes import ProbeRuntime
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
    def _top(self):
        from helpers import Passthrough

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 2.0, timestep=ms(1)))
                self.dut = self.add(Passthrough("dut"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.dut.ip)
                self.connect(self.dut.op, self.sink.ip)

        return Top("top")

    def test_pr_and_pw_perform_the_access(self):
        top = self._top()
        probe = ProbeRuntime("top")

        def processing():
            value = probe.pr(top.dut, top.dut.ip, 101)
            probe.pw(top.dut, top.dut.op, 102, value * 3)

        top.dut.register_processing(processing)
        # A model write of token 0 on the read signal (the floor of
        # both reads).
        probe.record_write(top.dut.ip.signal.name, 0, "op", "src", 7)
        Simulator(top).run(ms(2))
        assert top.sink.values() == [6.0, 6.0]
        assert probe.read_hits == {("op", "src", 7, "dut", 101)}  # anchor line
        writes = probe.signal_writes[top.dut.op.signal.name]
        assert (writes.run_starts, writes.run_ends) == ([0], [1])
        assert writes.run_sites == [("op", "dut", 102)]

    def test_opaque_module_reads_anchor_at_bind_site(self):
        top = self._top()
        probe = ProbeRuntime("top")
        type(top.dut).OPAQUE_USES = True
        try:
            def processing():
                probe.pw(top.dut, top.dut.op, 102, probe.pr(top.dut, top.dut.ip, 101))

            top.dut.register_processing(processing)
            probe.record_write(top.dut.ip.signal.name, 0, "op", "src", 7)
            Simulator(top).run(ms(1))
            assert probe.read_hits == {
                ("op", "src", 7, "top", top.dut.ip.bind_site.lineno)
            }
        finally:
            type(top.dut).OPAQUE_USES = False
