"""Unit tests for the AST instrumenter."""

import pytest

from repro.instrument.instrumenter import instrument_processing, restore_processing
from repro.instrument.probes import ProbeRuntime
from repro.tdf import Cluster, Simulator, TdfIn, TdfModule, TdfOut, ms
from repro.tdf.errors import PortAccessError
from repro.tdf.library import CollectorSink, ConstantSource


class Sample(TdfModule):
    def __init__(self, name="sample"):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_total = 0.0

    def processing(self):
        value = self.ip.read()
        if value > 0:
            self.m_total = self.m_total + value
        self.op.write(self.m_total)


class _DefLog(dict):
    """A last-def dict that also logs every def ``("def", var, line)``."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def __setitem__(self, key, line):
        self.log.append(("def", key[1], line))
        super().__setitem__(key, line)


class _UseLog(set):
    """A use-hit set that also logs every use ``("use", var, line)``."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def add(self, hit):
        (var, _model, line), _def_line = hit
        self.log.append(("use", var, line))
        super().add(hit)


def _run(module_cls=Sample, periods=3, src_value=2.0, engine="interp"):
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(ConstantSource("src", src_value, timestep=ms(1)))
            self.dut = self.add(module_cls())
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.dut.ip)
            self.connect(self.dut.op, self.sink.ip)

    top = Top("top")
    probe = ProbeRuntime("top")
    # Log every def/use the instrumented code executes (the pairer
    # itself keeps only distinct hits).
    probe.events = []
    probe.last_def = _DefLog(probe.events)
    probe.use_hits = _UseLog(probe.events)
    # Log the token index of every port read the instrumented code makes.
    probe.reads = []
    reader = probe.reader

    def logged_reader(port, model, anchor):
        read = reader(port, model, anchor)

        def logged(offset=0):
            probe.reads.append(port.global_index(offset))
            return read(offset)

        return logged

    probe.reader = logged_reader
    instrument_processing(top.dut, probe)
    Simulator(top, engine=engine).run_periods(periods)
    return top, probe


def _events(probe, kind, var=None):
    """Executed ``"def"``/``"use"`` events (only ``var``'s, if given)."""
    return [ev for ev in probe.events if ev[0] == kind and var in (None, ev[1])]


def _written_tokens(top, probe):
    """Token indices the probe recorded as written on ``dut.op``."""
    writes = probe.signal_writes[top.dut.op.signal.name]
    assert not writes.exceptions
    return [
        token
        for start, end in zip(writes.run_starts, writes.run_ends)
        for token in range(start, end + 1)
    ]


class TestBehaviourPreservation:
    def test_instrumented_output_identical(self):
        top, _ = _run()
        assert top.sink.values() == [2.0, 4.0, 6.0]

    def test_only_instance_affected(self):
        top, _ = _run()
        other = Sample("other")
        # The class method must be untouched.
        assert other._processing_fn is None

    def test_restore_processing(self):
        top, probe = _run()
        restore_processing(top.dut, None)
        assert top.dut._processing_fn is None


class TestEventCompleteness:
    def test_local_def_and_use_events(self):
        _, probe = _run()
        assert _events(probe, "def", "value")
        assert _events(probe, "use", "value")

    def test_member_events(self):
        _, probe = _run()
        member_defs = _events(probe, "def", "m_total")
        member_uses = _events(probe, "use", "m_total")
        assert len(member_defs) == 3     # one per activation (value > 0)
        # Used in the sum and in the write argument.
        assert len(member_uses) == 6

    def test_port_events_carry_token_indices(self):
        top, probe = _run()
        assert probe.reads == [0, 1, 2]
        assert _written_tokens(top, probe) == [0, 1, 2]

    def test_branch_not_taken_no_events(self):
        _, probe = _run(src_value=-1.0)
        assert not _events(probe, "def", "m_total")

    def test_lines_are_absolute(self):
        import inspect

        _, probe = _run()
        src_line = inspect.getsourcelines(Sample.processing)[1]
        var_events = _events(probe, "use") + _events(probe, "def")
        assert var_events
        for event in var_events:
            assert event[2] > src_line


class TestPortAccessChecks:
    """An instrumented access goes through the port's own checks."""

    def test_read_outside_processing_raises(self):
        top, _ = _run(periods=1)
        with pytest.raises(PortAccessError, match="read outside of processing"):
            top.dut._processing_fn()

    def test_write_outside_processing_raises(self):
        class WriteOnly(TdfModule):
            def __init__(self, name="wo"):
                super().__init__(name)
                self.ip = TdfIn()
                self.op = TdfOut()

            def processing(self):
                self.op.write(1.0)

        top, _ = _run(WriteOnly, periods=1)
        with pytest.raises(PortAccessError, match="written outside of processing"):
            top.dut._processing_fn()

    @pytest.mark.parametrize("engine", ["interp", "block"])
    def test_out_of_range_offset_raises(self, engine):
        class Far(TdfModule):
            def __init__(self, name="far"):
                super().__init__(name)
                self.ip = TdfIn()
                self.op = TdfOut()

            def processing(self):
                self.op.write(self.ip.read(1))

        with pytest.raises(PortAccessError, match="offset 1 out of range"):
            _run(Far, periods=1, engine=engine)


class TestConstructCoverage:
    def test_augassign_instrumented(self):
        class Aug(TdfModule):
            def __init__(self, name="aug"):
                super().__init__(name)
                self.ip = TdfIn()
                self.op = TdfOut()

            def processing(self):
                x = self.ip.read()
                x += 1
                self.op.write(x)

        top, probe = _run(Aug, periods=1)
        assert top.sink.values() == [3.0]
        x_events = _events(probe, "use", "x") + _events(probe, "def", "x")
        # def (assign), use+def (augassign), use (write arg).
        assert len(x_events) == 4

    def test_for_loop_instrumented(self):
        class Loop(TdfModule):
            def __init__(self, name="loop"):
                super().__init__(name)
                self.ip = TdfIn()
                self.op = TdfOut()

            def processing(self):
                total = 0.0
                items = [self.ip.read(), 1.0]
                for item in items:
                    total = total + item
                self.op.write(total)

        top, probe = _run(Loop, periods=1)
        assert top.sink.values() == [3.0]
        item_defs = _events(probe, "def", "item")
        assert len(item_defs) == 2  # one per iteration

    def test_while_condition_uses_fire_per_iteration(self):
        class Wh(TdfModule):
            def __init__(self, name="wh"):
                super().__init__(name)
                self.ip = TdfIn()
                self.op = TdfOut()

            def processing(self):
                n = int(self.ip.read())
                while n > 0:
                    n = n - 1
                self.op.write(n)

        top, probe = _run(Wh, periods=1, src_value=3.0)
        cond_uses = _events(probe, "use", "n")
        # 4 condition evaluations + 3 decrement uses + 1 write use.
        assert len(cond_uses) == 8

    def test_multirate_port_offsets(self):
        class Multi(TdfModule):
            def __init__(self, name="multi"):
                super().__init__(name)
                self.ip = TdfIn()
                self.op = TdfOut()

            def set_attributes(self):
                self.ip.set_rate(2)

            def processing(self):
                a = self.ip.read(0)
                b = self.ip.read(1)
                self.op.write(a + b)

        top, probe = _run(Multi, periods=1)
        assert top.sink.values() == [4.0]
        assert probe.reads == [0, 1]

    def test_ternary_expression(self):
        class Tern(TdfModule):
            def __init__(self, name="tern"):
                super().__init__(name)
                self.ip = TdfIn()
                self.op = TdfOut()

            def processing(self):
                v = self.ip.read()
                out = v if v > 0 else 0.0
                self.op.write(out)

        top, probe = _run(Tern, periods=1)
        assert top.sink.values() == [2.0]
