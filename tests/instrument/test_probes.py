"""Unit tests for the probe runtime."""

from repro.instrument import instrument_processing
from repro.instrument.probes import (
    TAG_DEF,
    TAG_PR,
    TAG_PW,
    TAG_USE,
    ProbeRuntime,
    WriterKind,
)
from repro.tdf import Cluster, Simulator, TdfIn, TdfModule, TdfOut, ms
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


def _seqs(probe):
    return [int(line.split("\t")[0]) for line in probe.log_text().splitlines()]


class TestVarApi:
    def test_u_returns_value_unchanged(self):
        probe = ProbeRuntime("top")
        holder = _instrumented(probe)
        holder._processing_fn()
        assert holder.m_out is holder.m_in
        assert [ev[0] for ev in probe._buf] == [TAG_USE, TAG_DEF, TAG_USE, TAG_DEF]

    def test_sequence_numbers_monotonic(self):
        probe = ProbeRuntime("top")
        holder = _instrumented(probe)
        holder._processing_fn()
        holder._processing_fn()
        # The sequence number is the buffer position + 1.
        assert _seqs(probe) == list(range(1, len(probe._buf) + 1))
        assert len(probe._buf) == 8

    def test_clear_resets_everything(self):
        probe = ProbeRuntime("top")
        holder = _instrumented(probe)
        holder._processing_fn()
        probe.clear()
        assert probe._buf == []
        assert probe.event_counts() == (0, 0, 0)
        holder._processing_fn()  # the installed appends still record
        assert _seqs(probe) == [1, 2, 3, 4]


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
        Simulator(top).run(ms(2))
        assert top.sink.values() == [6.0, 6.0]
        reads = [ev for ev in probe._buf if ev[0] == TAG_PR]
        writes = [ev for ev in probe._buf if ev[0] == TAG_PW]
        assert [ev[6] for ev in reads] == [101, 101]  # anchor line
        assert [ev[5] for ev in writes] == [102, 102]
        assert all(ev[6] is WriterKind.MODEL for ev in writes)

    def test_opaque_module_reads_anchor_at_bind_site(self):
        top = self._top()
        probe = ProbeRuntime("top")
        type(top.dut).OPAQUE_USES = True
        try:
            def processing():
                probe.pw(top.dut, top.dut.op, 102, probe.pr(top.dut, top.dut.ip, 101))

            top.dut.register_processing(processing)
            Simulator(top).run(ms(1))
            event = next(ev for ev in probe._buf if ev[0] == TAG_PR)
            assert event[5:7] == ("top", top.dut.ip.bind_site.lineno)
        finally:
            type(top.dut).OPAQUE_USES = False


class TestLogDump:
    def test_log_contains_all_event_kinds(self):
        probe = ProbeRuntime("top")
        probe._buf.extend([
            (TAG_DEF, "x", "m", 1),
            (TAG_USE, "x", "m", 2),
            (TAG_PW, "s", 0, "op", "m", 3, WriterKind.MODEL),
            (TAG_PR, "s", 0, "ip", "r", "top", 4, False),
        ])
        assert probe.log_text() == (
            "1\tDEF\tx\tm:1\t\n"
            "2\tUSE\tx\tm:2\t\n"
            "3\tPW\top\tm:3\ts[0] model\n"
            "4\tPR\tip\ttop:4\ts[0]\n"
        )

    def test_log_ordered_by_sequence(self):
        probe = ProbeRuntime("top")
        probe._buf.extend([(TAG_DEF, "a", "m", 2), (TAG_DEF, "b", "m", 1)])
        lines = probe.log_text().splitlines()
        assert lines[0].split("\t")[2] == "a"
        assert lines[1].split("\t")[2] == "b"
