"""Static scheduling of TDF clusters.

Elaboration of a TDF cluster follows the classic synchronous-data-flow
(SDF) recipe, extended with SystemC-AMS timestep propagation:

1. **Rate balance.**  For every signal with writer rate ``r_w`` and a
   reader with rate ``r_r``, the repetition vector ``q`` must satisfy
   ``q[writer] * r_w == q[reader] * r_r``.  The equations are solved
   exactly over rationals; an unsolvable system raises
   :class:`~repro.tdf.errors.RateConsistencyError`.

2. **Timestep propagation.**  Requested module/port timesteps are
   propagated through two kinds of constraints — ``port_ts * rate ==
   module_ts`` within a module, ``writer_ts == reader_ts`` across a
   signal — and checked for consistency.  Components with no timestep
   anywhere raise :class:`~repro.tdf.errors.TimestepError`.

3. **Schedule construction.**  A periodic admissible sequential
   schedule (PASS) is built by symbolically executing token counts;
   feedback loops without sufficient port delays deadlock and raise
   :class:`~repro.tdf.errors.SchedulingDeadlockError`.

The result is a :class:`Schedule`: an ordered list of module firings
covering one cluster period, with exact activation times.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cluster import Cluster
from .errors import (
    RateConsistencyError,
    SchedulingDeadlockError,
    TimestepError,
)
from .module import TdfModule
from .time import ScaTime


class Schedule:
    """A periodic admissible static schedule for one cluster period."""

    def __init__(
        self,
        cluster: Cluster,
        firings: List[Tuple[TdfModule, int]],
        repetitions: Dict[str, int],
        module_timesteps: Dict[str, ScaTime],
        period: ScaTime,
    ) -> None:
        self.cluster = cluster
        #: Ordered ``(module, firing_index)`` pairs for one period.
        self.firings = firings
        #: Repetition count per module name.
        self.repetitions = repetitions
        #: Derived timestep per module name.
        self.module_timesteps = module_timesteps
        #: Duration of one cluster period.
        self.period = period
        #: Integer femtosecond mirror of :attr:`period` for the hot loop.
        self.period_fs = period.femtoseconds
        #: Precomputed ``(module, femtosecond-offset-within-period)``
        #: pairs: the per-period hot loop turns each into an absolute
        #: activation time with one integer add — no ScaTime per firing.
        self.timed_firings = [
            (module, module_timesteps[module.name].femtoseconds * firing_index)
            for module, firing_index in firings
        ]

    def apply_timesteps(self) -> None:
        """Re-assign the derived module/port timesteps to the cluster.

        Elaboration sets ``module.timestep`` and ``port.timestep`` as a
        side effect; a cached schedule that is *reused* instead of
        rebuilt (see ``Simulator._handle_dynamic_tdf``) must restore
        those assignments, because the intervening configuration may
        have left different values behind.  The integer division is
        exact: this schedule was only cached under a key that pins every
        port rate, and elaboration verified divisibility when it was
        built.
        """
        for module in self.cluster.modules:
            ts = self.module_timesteps[module.name]
            module.timestep = ts
            ts_fs = ts.femtoseconds
            for port in module.ports():
                port.timestep = ScaTime.from_femtoseconds(ts_fs // port.rate)

    def __len__(self) -> int:
        return len(self.firings)

    def __repr__(self) -> str:
        order = ", ".join(f"{m.name}[{k}]" for m, k in self.firings)
        return f"Schedule(period={self.period}, firings=[{order}])"


def _solve_repetitions(cluster: Cluster) -> Dict[str, Fraction]:
    """Solve the SDF balance equations; returns a rational repetition
    vector (per connected component, anchored at 1)."""
    reps: Dict[str, Fraction] = {}
    # Adjacency over modules via signals.
    neighbours: Dict[str, List[Tuple[str, Fraction]]] = defaultdict(list)
    for sig, driver, readers in cluster.bindings():
        if driver is None:
            continue
        w = driver.module
        for reader in readers:
            r = reader.module
            # q[r] = q[w] * (w_rate / r_rate)
            ratio = Fraction(driver.rate, reader.rate)
            neighbours[w.name].append((r.name, ratio))
            neighbours[r.name].append((w.name, 1 / ratio))
    for module in cluster.modules:
        if module.name in reps:
            continue
        reps[module.name] = Fraction(1)
        stack = [module.name]
        while stack:
            current = stack.pop()
            for other, ratio in neighbours[current]:
                expected = reps[current] * ratio
                if other in reps:
                    if reps[other] != expected:
                        raise RateConsistencyError(
                            f"inconsistent port rates around module {other!r}: "
                            f"repetition {reps[other]} vs {expected} required "
                            f"by its connection to {current!r}"
                        )
                else:
                    reps[other] = expected
                    stack.append(other)
    return reps


def _normalise_repetitions(reps: Dict[str, Fraction]) -> Dict[str, int]:
    """Scale a rational repetition vector to the smallest integer one."""
    if not reps:
        return {}
    denominator_lcm = math.lcm(*(f.denominator for f in reps.values()))
    scaled = {name: int(f * denominator_lcm) for name, f in reps.items()}
    common = math.gcd(*scaled.values())
    return {name: value // common for name, value in scaled.items()}


def _propagate_timesteps(
    cluster: Cluster, repetitions: Dict[str, int]
) -> Dict[str, Fraction]:
    """Derive an exact (rational femtoseconds) timestep per module.

    Constraint graph nodes are modules; an edge between writer and
    reader of a signal relates their timesteps through the port rates:
    ``writer_ts / writer_rate == reader_ts / reader_rate`` (both equal
    the shared port/sample timestep of the signal).
    """
    ts: Dict[str, Fraction] = {}
    anchors: Dict[str, Fraction] = {}
    for module in cluster.modules:
        candidates: List[Fraction] = []
        if module.requested_timestep is not None:
            candidates.append(Fraction(module.requested_timestep.femtoseconds))
        for port in module.ports():
            if port.requested_timestep is not None:
                candidates.append(
                    Fraction(port.requested_timestep.femtoseconds) * port.rate
                )
        unique = set(candidates)
        if len(unique) > 1:
            raise TimestepError(
                f"module {module.name!r} has contradictory timestep requests: "
                f"{sorted(float(c) for c in unique)} fs"
            )
        if unique:
            anchors[module.name] = unique.pop()

    neighbours: Dict[str, List[Tuple[str, Fraction]]] = defaultdict(list)
    for sig, driver, readers in cluster.bindings():
        if driver is None:
            continue
        for reader in readers:
            # reader_ts = writer_ts * reader_rate / writer_rate
            ratio = Fraction(reader.rate, driver.rate)
            neighbours[driver.module.name].append((reader.module.name, ratio))
            neighbours[reader.module.name].append((driver.module.name, 1 / ratio))

    for start, value in anchors.items():
        if start in ts:
            if ts[start] != value:
                raise TimestepError(
                    f"module {start!r} timestep request {float(value)} fs "
                    f"contradicts propagated value {float(ts[start])} fs"
                )
            continue
        ts[start] = value
        stack = [start]
        while stack:
            current = stack.pop()
            for other, ratio in neighbours[current]:
                expected = ts[current] * ratio
                if other in ts:
                    if ts[other] != expected:
                        raise TimestepError(
                            f"inconsistent timesteps around module {other!r}: "
                            f"{float(ts[other])} fs vs {float(expected)} fs"
                        )
                elif other in anchors and anchors[other] != expected:
                    raise TimestepError(
                        f"module {other!r} requests timestep "
                        f"{float(anchors[other])} fs but its connection to "
                        f"{current!r} implies {float(expected)} fs"
                    )
                else:
                    ts[other] = expected
                    stack.append(other)

    missing = [m.name for m in cluster.modules if m.name not in ts]
    if missing:
        raise TimestepError(
            f"no timestep assigned or derivable for module(s) {missing}; "
            f"assign set_timestep() somewhere in each connected component"
        )
    for name, value in ts.items():
        if value <= 0 or value.denominator != 1:
            raise TimestepError(
                f"derived timestep for module {name!r} is {float(value)} fs; "
                f"must be a positive whole number of femtoseconds"
            )
    return ts


def _build_pass(
    cluster: Cluster, repetitions: Dict[str, int]
) -> List[Tuple[TdfModule, int]]:
    """Construct a periodic admissible sequential schedule.

    Symbolically executes token counts: a module may fire when every
    bound input port has at least ``rate`` tokens available (port delays
    provide initial tokens).  Deterministic module order keeps the
    schedule reproducible.
    """
    # tokens[signal_name][reader_port_id] available before consumption.
    tokens: Dict[str, Dict[int, int]] = {}
    for sig, driver, readers in cluster.bindings():
        per_reader: Dict[int, int] = {}
        out_delay = driver.delay if driver is not None else 0
        for reader in readers:
            per_reader[id(reader)] = out_delay + reader.delay
        tokens[sig.name] = per_reader

    fired = {m.name: 0 for m in cluster.modules}
    firings: List[Tuple[TdfModule, int]] = []
    total = sum(repetitions.values())

    def can_fire(module: TdfModule) -> bool:
        if fired[module.name] >= repetitions[module.name]:
            return False
        for port in module.in_ports():
            if port.signal is None:
                continue
            if port.signal.driver is None:
                continue  # undriven: reads initial values, never blocks
            if tokens[port.signal.name][id(port)] < port.rate:
                return False
        return True

    def fire(module: TdfModule) -> None:
        for port in module.in_ports():
            if port.signal is not None and port.signal.driver is not None:
                tokens[port.signal.name][id(port)] -= port.rate
        for port in module.out_ports():
            if port.signal is not None:
                for reader in port.signal.readers:
                    tokens[port.signal.name][id(reader)] += port.rate
        firings.append((module, fired[module.name]))
        fired[module.name] += 1

    while len(firings) < total:
        progressed = False
        for module in cluster.modules:
            while can_fire(module):
                fire(module)
                progressed = True
        if not progressed:
            blocked = [
                name
                for name, count in fired.items()
                if count < repetitions[name]
            ]
            raise SchedulingDeadlockError(
                f"cluster {cluster.name!r} deadlocks: modules {blocked} "
                f"cannot fire; add port delays to break the feedback loop"
            )
    return firings


def elaborate(cluster: Cluster, initial: bool = True) -> Schedule:
    """Run full elaboration: attributes, balance, timesteps, PASS.

    On the *initial* elaboration every module's ``set_attributes()``
    runs first; dynamic-TDF re-elaborations (``initial=False``) must
    skip it — ``set_attributes`` describes the static configuration and
    would overwrite the timestep/rate a module just requested through
    ``change_attributes`` (SystemC-AMS calls it exactly once, too).
    """
    if initial:
        for module in cluster.modules:
            module.set_attributes()
    cluster.check_bindings()
    rational = _solve_repetitions(cluster)
    repetitions = _normalise_repetitions(rational)
    timesteps_fs = _propagate_timesteps(cluster, repetitions)

    # Cluster period: q[m] * ts[m] must agree for all modules in a
    # connected component; across components take the LCM.
    periods = {
        name: repetitions[name] * timesteps_fs[name] for name in repetitions
    }
    period_fs = math.lcm(*(int(p) for p in periods.values())) if periods else 0
    for name, p in periods.items():
        if period_fs % int(p) != 0:
            raise TimestepError(
                f"module {name!r} period {float(p)} fs does not divide the "
                f"cluster period {period_fs} fs"
            )
        if int(p) != period_fs:
            # Scale the module's repetitions so one schedule period covers
            # the full cluster period (multi-component clusters).
            repetitions[name] *= period_fs // int(p)

    module_timesteps = {
        name: ScaTime.from_femtoseconds(int(value))
        for name, value in timesteps_fs.items()
    }
    for module in cluster.modules:
        module.timestep = module_timesteps[module.name]
        for port in module.ports():
            port_fs = timesteps_fs[module.name] / port.rate
            if port_fs.denominator != 1:
                raise TimestepError(
                    f"port {port.full_name()} would get a fractional "
                    f"timestep of {float(port_fs)} fs; refine the module "
                    f"timestep so it divides evenly by the port rate"
                )
            port.timestep = ScaTime.from_femtoseconds(int(port_fs))
    firings = _build_pass(cluster, repetitions)
    return Schedule(
        cluster,
        firings,
        repetitions,
        module_timesteps,
        ScaTime.from_femtoseconds(period_fs),
    )
