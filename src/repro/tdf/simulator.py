"""The TDF simulation kernel.

:class:`Simulator` drives a :class:`~repro.tdf.cluster.Cluster` through
time: it elaborates the cluster (computing the static schedule), calls
``initialize()`` once, then repeats the schedule period after period
until the requested stop time.  After every period each module's
``change_attributes()`` hook runs; if any module filed a dynamic-TDF
request (new timestep or port rate) the kernel applies the request and
re-elaborates before the next period — the SystemC-AMS *dynamic TDF*
behaviour the paper's window-lifter experiment exercises.

Dynamic-TDF workloads typically oscillate between a small set of
attribute configurations (the window lifter flips between a fine and a
coarse timestep every few periods).  Rebuilding the schedule from
scratch on every flip repeats the same rate-balance / timestep /
PASS computation, so the simulator memoizes each built
:class:`~repro.tdf.scheduler.Schedule` under a fingerprint of the
attribute configuration and reuses it on repeat visits
(:attr:`Simulator.schedule_cache_hits` /
:attr:`Simulator.schedule_cache_misses`, mirrored as the
``tdf.schedule_cache_hits`` / ``tdf.schedule_cache_misses`` telemetry
counters).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..obs import get_telemetry
from .cluster import Cluster
from .engine.executor import BlockEngine, resolve_engine
from .errors import SimulationError
from .module import TdfModule
from .scheduler import Schedule, elaborate
from .time import ScaTime


class Simulator:
    """Executes a TDF cluster.

    ``engine`` selects the execution strategy: ``"interp"`` (default)
    is the per-firing interpreter, the reference semantics of TDF;
    ``"block"`` compiles the schedule into a flattened program executed
    in multi-period windows (see :mod:`repro.tdf.engine`); ``"auto"``
    resolves to the block engine.  Both engines produce bit-identical results — the block
    engine falls back to interpreted firings per module where it must.
    """

    def __init__(self, cluster: Cluster, engine: str = "interp") -> None:
        self.cluster = cluster
        self.engine = engine if engine == "interp" else resolve_engine(engine)
        self._block_engine: Optional[BlockEngine] = None
        self.schedule: Optional[Schedule] = None
        #: Simulated time at the start of the next period.
        self.now = ScaTime.zero()
        self.periods_run = 0
        #: Number of schedule *changes* triggered by dynamic TDF —
        #: counted whether the new schedule was rebuilt or served from
        #: the cache.
        self.reelaborations = 0
        #: Schedules previously built for an attribute configuration,
        #: keyed by :meth:`_attribute_key`.
        self._schedule_cache: Dict[Tuple, Schedule] = {}
        self.schedule_cache_hits = 0
        self.schedule_cache_misses = 0
        self._initialized = False

    # -- lifecycle ----------------------------------------------------------

    def elaborate(self) -> Schedule:
        """(Re-)elaborate the cluster and return the fresh schedule."""
        self.schedule = elaborate(self.cluster)
        # Seed the schedule cache: the key must be computed *after*
        # elaboration because the initial pass runs set_attributes(),
        # which is what establishes the rates/timesteps the key covers.
        self._schedule_cache[self._attribute_key()] = self.schedule
        return self.schedule

    def initialize(self) -> None:
        """Elaborate (if needed), reset token buffers, run ``initialize()``."""
        if self.schedule is None:
            self.elaborate()
        self.cluster.reset_signals()
        self._anchor_signals()
        for module in self.cluster.modules:
            module.initialize()
        self._initialized = True

    def _anchor_signals(self) -> None:
        """Time every signal's next token at ``now`` (traces stamp their
        rows from this, see :mod:`repro.tdf.trace`): the schedule is
        static from here to the next swap."""
        now_fs = self.now.femtoseconds
        for signal in self.cluster.signals:
            signal.anchor(now_fs)

    # -- execution --------------------------------------------------------------

    def run_period(self) -> None:
        """Execute exactly one cluster period."""
        if not self._initialized:
            self.initialize()
        assert self.schedule is not None
        schedule = self.schedule
        base_fs = self.now.femtoseconds
        for module, offset_fs in schedule.timed_firings:
            module._activate(base_fs + offset_fs)
        self.now = ScaTime.from_femtoseconds(base_fs + schedule.period_fs)
        self.periods_run += 1
        self._handle_dynamic_tdf()

    def _attribute_key(self) -> Tuple:
        """Fingerprint of every attribute elaboration depends on.

        The schedule is a pure function of the cluster's bindings (fixed
        for a simulator's lifetime) plus, per module: the requested
        module timestep and each port's rate, delay and requested port
        timestep.  Dynamic TDF can only alter the requested timesteps
        and rates, so equal keys guarantee an identical schedule.
        """
        parts = []
        for module in self.cluster.modules:
            req = module.requested_timestep
            parts.append(
                (
                    module.name,
                    req.femtoseconds if req is not None else None,
                    tuple(
                        (
                            port.name,
                            port.rate,
                            port.delay,
                            port.requested_timestep.femtoseconds
                            if port.requested_timestep is not None
                            else None,
                        )
                        for port in module.ports()
                    ),
                )
            )
        return tuple(parts)

    def _handle_dynamic_tdf(self) -> None:
        """Run ``change_attributes()`` and swap schedules on request.

        A configuration seen before reuses its cached schedule (plus
        :meth:`Schedule.apply_timesteps` to restore the module/port
        timestep side effects of elaboration); only genuinely new
        configurations pay for a full re-elaboration.
        """
        changed = False
        for module in self.cluster.modules:
            module.change_attributes()
        for module in self.cluster.modules:
            if module.has_pending_attribute_requests:
                module.consume_attribute_requests()
                changed = True
        if not changed:
            return
        self._swap_schedule()

    def _swap_schedule(self) -> None:
        """Install the schedule for the (just-changed) attribute config.

        Shared by the interpreter's dynamic-TDF handler and the block
        engine's mid-window truncation path.
        """
        key = self._attribute_key()
        cached = self._schedule_cache.get(key)
        tel = get_telemetry()
        if cached is not None:
            cached.apply_timesteps()
            self.schedule = cached
            self.schedule_cache_hits += 1
            if tel.enabled:
                tel.metrics.counter(
                    "tdf.schedule_cache_hits", cluster=self.cluster.name
                ).inc()
        else:
            # Re-elaboration keeps all token buffers: dynamic TDF changes
            # timing, not data already in flight.  ``initial=False``
            # skips set_attributes() so the requests just applied stand.
            self.schedule = elaborate(self.cluster, initial=False)
            self._schedule_cache[key] = self.schedule
            self.schedule_cache_misses += 1
            if tel.enabled:
                tel.metrics.counter(
                    "tdf.schedule_cache_misses", cluster=self.cluster.name
                ).inc()
        self.reelaborations += 1
        self._anchor_signals()

    def run(
        self,
        duration: ScaTime,
        until: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run for (at least) ``duration`` of simulated time.

        Whole periods are executed; simulation stops at the first period
        boundary at or after ``start + duration``.

        ``until``, when given, is a zero-argument predicate polled at
        period boundaries — after every period on the interpreter, after
        every committed window on the block engine — and the run ends at
        the first boundary where it returns true.  The mutation executor
        uses it to stop a testcase at its first divergence.

        With telemetry enabled (:mod:`repro.obs`), the run is wrapped in
        a ``tdf.simulate`` span and the periods it ran are counted
        (``tdf.periods``); the loop itself is the same either way.
        """
        if not isinstance(duration, ScaTime) or duration.femtoseconds < 0:
            raise SimulationError(
                f"run() expects a non-negative ScaTime duration, got {duration!r}"
            )
        if not self._initialized:
            self.initialize()
        self._run(
            stop=self.now + duration,
            max_periods=None,
            span_attrs={"duration_fs": duration.femtoseconds},
            until=until,
        )

    def run_periods(self, count: int) -> None:
        """Run exactly ``count`` cluster periods.

        Shares :meth:`run`'s guarded loop: the zero-length-period check
        and the telemetry accounting apply to period-counted runs too.
        """
        if not isinstance(count, int) or count < 0:
            raise SimulationError(f"period count must be >= 0, got {count!r}")
        if count == 0:
            return
        if not self._initialized:
            self.initialize()
        self._run(stop=None, max_periods=count, span_attrs={"periods": count})

    def _run(
        self,
        stop: Optional[ScaTime],
        max_periods: Optional[int],
        span_attrs: Dict[str, int],
        until: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Shared driver for :meth:`run` and :meth:`run_periods`.

        ``tdf.periods`` is counted as a before/after delta, so repeated
        runs on one simulator accumulate, and is flushed even when a
        period raises.
        """
        tel = get_telemetry()
        if not tel.enabled:
            self._loop(stop, max_periods, until)
            return
        periods_before = self.periods_run
        with tel.span("tdf.simulate", cluster=self.cluster.name, **span_attrs):
            try:
                self._loop(stop, max_periods, until)
            finally:
                tel.metrics.counter("tdf.periods", cluster=self.cluster.name).inc(
                    self.periods_run - periods_before
                )

    def _loop(self, stop, max_periods, until) -> None:
        """The guarded period loop common to both execution modes."""
        if self.engine == "block":
            if self._block_engine is None:
                self._block_engine = BlockEngine(self)
            self._block_engine.run(stop, max_periods, until)
            return
        executed = 0
        while (stop is None or self.now < stop) and (
            max_periods is None or executed < max_periods
        ):
            before = self.now
            self.run_period()
            executed += 1
            if self.now == before:
                raise SimulationError(
                    f"cluster {self.cluster.name!r} has a zero-length period; "
                    f"check timestep assignments"
                )
            if until is not None and until():
                break

    def finish(self) -> None:
        """Signal end of simulation to every module."""
        for module in self.cluster.modules:
            module.end_of_simulation()

    def __repr__(self) -> str:
        return (
            f"Simulator({self.cluster.name!r}, now={self.now}, "
            f"periods={self.periods_run})"
        )
