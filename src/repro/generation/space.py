"""Stimulus parameter spaces for coverage-guided testcase synthesis.

The paper's refinement loop adds testcases by hand, guided by the
ranked missed-association report.  To automate that last mile the
search needs a *parameter space*: a small vector of numbers (levels,
switch times, load resistances, button codes, obstacle positions) that
deterministically maps onto one :class:`~repro.testing.TestCase` built
from the :mod:`repro.testing.stimuli` generators.  Search strategies
(:mod:`repro.generation.search`) sample and mutate these vectors; the
generation loop (:mod:`repro.generation.generate`) evaluates the
resulting testcases.

Everything is picklable-by-value: a candidate travels to worker
processes as its ``(name, ((param, value), ...))`` encoding, and
:func:`decode_candidates` — an importable ``"module:attr"`` reference —
rebuilds the testcase objects on the other side (the same scheme
:mod:`repro.exec.refs` uses for whole suites, stretched to synthesized
suites whose closures cannot be pickled).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..tdf.errors import TdfError
from ..tdf.time import ScaTime, ms, sec
from ..testing.stimuli import Pwl, Step
from ..testing.testcase import TestCase

#: Canonical candidate-parameter encoding: sorted ``(name, value)`` pairs.
EncodedParams = Tuple[Tuple[str, float], ...]

#: Decimal places parameter values are rounded to.  Sampling, mutation
#: and the name digest all go through this quantisation, so a candidate's
#: identity is a pure function of its (rounded) parameter vector.
_ROUND = 9


@dataclass(frozen=True)
class Param:
    """One searchable dimension of a stimulus space.

    ``kind``:

    * ``"float"`` — uniform in ``[lo, hi]``;
    * ``"int"`` — integer-uniform in ``[lo, hi]`` (button codes, step
      counts); values are stored as integral floats;
    * ``"log"`` — log-uniform in ``[lo, hi]`` (load resistances and
      other dimensions spanning decades).
    """

    name: str
    lo: float
    hi: float
    kind: str = "float"

    def __post_init__(self) -> None:
        if self.kind not in ("float", "int", "log"):
            raise ValueError(f"unknown param kind {self.kind!r}")
        if not self.lo <= self.hi:
            raise ValueError(f"param {self.name!r}: lo {self.lo} > hi {self.hi}")
        if self.kind == "log" and self.lo <= 0:
            raise ValueError(f"param {self.name!r}: log range needs lo > 0")

    def sample(self, rng) -> float:
        """One uniform draw from the range."""
        if self.kind == "int":
            return float(rng.randint(int(self.lo), int(self.hi)))
        if self.kind == "log":
            return self.quantize(
                math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
            )
        return self.quantize(rng.uniform(self.lo, self.hi))

    def mutate(self, rng, value: float, scale: float) -> float:
        """A gaussian perturbation of ``value``, clamped into range.

        ``scale`` is the relative step size (fraction of the range, or
        of the log-range for ``"log"`` params).  Integer params move by
        at least one step or resample outright — a +-0.3 nudge on a
        button code would otherwise always round back.
        """
        if self.kind == "int":
            if rng.random() < 0.5:
                return float(rng.randint(int(self.lo), int(self.hi)))
            step = max(1, round(abs(rng.gauss(0.0, scale * (self.hi - self.lo)))))
            value += step if rng.random() < 0.5 else -step
            return float(min(max(value, self.lo), self.hi))
        if self.kind == "log":
            span = math.log(self.hi) - math.log(self.lo)
            moved = math.exp(math.log(value) + rng.gauss(0.0, scale * span))
        else:
            moved = value + rng.gauss(0.0, scale * (self.hi - self.lo))
        return self.quantize(min(max(moved, self.lo), self.hi))

    def quantize(self, value: float) -> float:
        """Round to the canonical precision (candidate identity)."""
        return round(float(value), _ROUND)


@dataclass(frozen=True)
class ParameterSpace:
    """A system's searchable stimulus space.

    ``builder`` must be a module-level callable
    ``(name, params) -> TestCase`` so worker processes can rebuild
    candidates; ``version`` participates in candidate names (and the
    report), so changing a space invalidates memoized results.
    """

    system: str
    params: Tuple[Param, ...]
    builder: Callable[[str, Dict[str, float]], TestCase]
    version: int = 1

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate param names in space {self.system!r}")

    def sample(self, rng) -> Dict[str, float]:
        """One uniform draw of the full parameter vector."""
        return {p.name: p.sample(rng) for p in self.params}

    def mutate(self, rng, params: Mapping[str, float], scale: float) -> Dict[str, float]:
        """Perturb a subset of dimensions of ``params``.

        Each dimension mutates with probability ``1/n`` (at least one
        always does), the classic per-gene mutation rate of a (1+λ) EA.
        """
        n = len(self.params)
        while True:
            out = dict(params)
            mutated = False
            for p in self.params:
                if rng.random() < 1.0 / n:
                    out[p.name] = p.mutate(rng, out[p.name], scale)
                    mutated = True
            if mutated:
                return out

    def encode(self, params: Mapping[str, float]) -> EncodedParams:
        """The canonical ``((name, value), ...)`` encoding (sorted)."""
        missing = {p.name for p in self.params} - set(params)
        if missing:
            raise ValueError(
                f"space {self.system!r}: missing param(s) {sorted(missing)}"
            )
        return tuple(sorted((p.name, p.quantize(params[p.name])) for p in self.params))

    def candidate_name(self, params: Mapping[str, float]) -> str:
        """Deterministic testcase name: a digest of the encoded vector.

        The name doubles as the memoization key suffix (see
        :class:`~repro.exec.DynamicResultCache`), so re-proposals of an
        already-evaluated vector cost no simulation.
        """
        blob = repr((self.system, self.version, self.encode(params)))
        digest = hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]
        return f"gen_{self.system}_{digest}"

    def build(self, params: Mapping[str, float]) -> TestCase:
        """The testcase for one parameter vector."""
        encoded = self.encode(params)
        return self.builder(self.candidate_name(params), dict(encoded))


# ---------------------------------------------------------------------------
# Bundled spaces
# ---------------------------------------------------------------------------

def build_buck_boost(name: str, params: Dict[str, float]) -> TestCase:
    """Buck-boost candidate: stepped target/vin/load waveforms.

    One step per knob covers the scenarios the hand-written refinement
    batches need (retargets across the buck/boost boundary, battery
    sag/recovery, load steps into and out of PFM) while keeping the
    space nine-dimensional.
    """
    target = Step(params["target0"], params["target1"], params["t_target"])
    vin = Step(params["vin0"], params["vin1"], params["t_vin"])
    load = Step(params["load0"], params["load1"], params["t_load"])
    duration = ms(int(params["duration_ms"]))

    def setup(cluster) -> None:
        cluster.apply_target(target)
        cluster.apply_vin(vin)
        cluster.apply_load(load)

    return TestCase(
        name, duration, setup, description="synthesized (coverage-guided)"
    )


def buck_boost_space() -> ParameterSpace:
    """Target/input/load step space for the buck-boost converter VP."""
    return ParameterSpace(
        system="buck_boost",
        builder=build_buck_boost,
        params=(
            Param("target0", 0.0, 12.0),
            Param("target1", 0.0, 12.0),
            Param("t_target", 0.0005, 0.02),
            Param("vin0", 0.3, 4.5),
            Param("vin1", 0.3, 4.5),
            Param("t_vin", 0.0005, 0.02),
            Param("load0", 0.05, 5000.0, kind="log"),
            Param("load1", 0.05, 5000.0, kind="log"),
            Param("t_load", 0.0005, 0.02),
            Param("duration_ms", 40, 160, kind="int"),
        ),
    )


def build_window_lifter(name: str, params: Dict[str, float]) -> TestCase:
    """Window-lifter candidate: two button presses plus an obstacle window."""
    code1 = int(params["btn1"])
    code2 = int(params["btn2"])
    t1_start, t1_stop = params["t1_start"], params["t1_start"] + params["t1_len"]
    t2_start, t2_stop = params["t2_start"], params["t2_start"] + params["t2_len"]
    obstacle_pos = params["obstacle_pos"]
    obst_in, obst_out = params["obst_in"], params["obst_in"] + params["obst_len"]

    def buttons(t: float) -> int:
        if t1_start <= t < t1_stop:
            return code1
        if t2_start <= t < t2_stop:
            return code2
        return 0

    def obstacle(t: float) -> float:
        return obstacle_pos if obst_in <= t < obst_out else 0.0

    def setup(cluster) -> None:
        cluster.apply_buttons(buttons)
        cluster.apply_obstacle(obstacle)

    return TestCase(
        name,
        sec(int(params["duration_ds"]) / 10.0),
        setup,
        description="synthesized (coverage-guided)",
    )


def window_lifter_space() -> ParameterSpace:
    """Button-sequence + obstacle space for the window-lifter VP."""
    return ParameterSpace(
        system="window_lifter",
        builder=build_window_lifter,
        params=(
            Param("btn1", 0, 3, kind="int"),
            Param("t1_start", 0.0, 1.5),
            Param("t1_len", 0.1, 2.0),
            Param("btn2", 0, 3, kind="int"),
            Param("t2_start", 1.5, 3.0),
            Param("t2_len", 0.1, 2.0),
            Param("obstacle_pos", 0.0, 100.0),
            Param("obst_in", 0.0, 2.0),
            Param("obst_len", 0.2, 4.0),
            Param("duration_ds", 20, 50, kind="int"),  # deciseconds: 2.0-5.0 s
        ),
    )


def build_sensor(name: str, params: Dict[str, float]) -> TestCase:
    """Sensor candidate: a three-point PWL on TS plus a constant HS level."""
    pwl = Pwl(
        [
            (0.0, params["ts0"]),
            (params["t_mid"], params["ts1"]),
            (params["t_end"], params["ts2"]),
        ]
    )
    hs_level = params["hs"]

    def setup(cluster) -> None:
        cluster.apply_ts_waveform(pwl)
        cluster.apply_hs_waveform(lambda t: hs_level)

    return TestCase(
        name, ms(int(params["duration_ms"])), setup,
        description="synthesized (coverage-guided)",
    )


def sensor_space() -> ParameterSpace:
    """TS/HS input space for the paper's Fig. 1/2 sensor system."""
    return ParameterSpace(
        system="sensor",
        builder=build_sensor,
        params=(
            Param("ts0", -0.2, 0.8),
            Param("ts1", -0.2, 0.8),
            Param("ts2", -0.2, 0.8),
            Param("t_mid", 0.002, 0.02),
            Param("t_end", 0.02, 0.05),
            Param("hs", -0.2, 0.6),
            Param("duration_ms", 20, 60, kind="int"),
        ),
    )


#: Registry of bundled spaces: system name -> space factory.
SPACES: Dict[str, Callable[[], ParameterSpace]] = {
    "buck_boost": buck_boost_space,
    "window_lifter": window_lifter_space,
    "sensor": sensor_space,
}


def space_for(system: str) -> ParameterSpace:
    """The bundled space for ``system`` (one-line error otherwise)."""
    try:
        return SPACES[system]()
    except KeyError:
        raise TdfError(
            f"no stimulus parameter space defined for system {system!r} "
            f"(available: {', '.join(sorted(SPACES))})"
        ) from None


def decode_candidates(
    system: str, encoded: Sequence[EncodedParams]
) -> List[TestCase]:
    """Rebuild candidate testcases from their parameter encodings.

    The worker-side entry point (importable as
    ``"repro.generation.space:decode_candidates"``): the parent ships
    each evaluation batch as plain vectors in the shard tasks'
    ``suite_args`` (see :mod:`repro.exec.task`), and both sides derive
    identical names from identical vectors.
    """
    space = space_for(system)
    return [space.build(dict(vector)) for vector in encoded]
