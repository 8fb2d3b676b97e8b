"""Testsuites and refinement campaigns for the case-study VPs (§VI).

Each campaign mirrors the paper's Table II protocol: an initial
testbench (window lifter: 17 testcases, buck-boost: 10), then three
iterations of additional testcases targeted at the missed associations
the ranked report surfaces (window lifter: +3/+3/+3 to 26; buck-boost:
+5/+5/+4 to 24).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.config import DftConfig
from ..core.workflow import IterativeCampaign
from ..tdf import ms, sec
from ..testing import Pulse, Pwl, Step, TestCase
from .registry import SYSTEMS
from .window_lifter import BTN_BOTH, BTN_DOWN, BTN_NONE, BTN_UP


# ---------------------------------------------------------------------------
# Car window lifter
# ---------------------------------------------------------------------------

def _wl(name, duration, buttons, obstacle=None, description=""):
    def setup(cluster):
        cluster.apply_buttons(buttons)
        if obstacle is not None:
            cluster.apply_obstacle(obstacle)

    return TestCase(name, duration, setup, description)


def _press(code: int, start: float, stop: float) -> Callable[[float], int]:
    return lambda t: code if start <= t < stop else BTN_NONE


def _press_seq(*segments) -> Callable[[float], int]:
    """``segments``: (code, start, stop) triples, first match wins."""

    def waveform(t: float) -> int:
        for code, start, stop in segments:
            if start <= t < stop:
                return code
        return BTN_NONE

    return waveform


def window_lifter_base_suite() -> List[TestCase]:
    """The initial 17-testcase window-lifter testbench.

    Pure button-driven movement scenarios: the initial testbench
    verifies the motion control but never inserts an obstacle and never
    drains the battery, so the anti-pinch, obstacle-load and
    low-battery associations stay uncovered until the refinement
    iterations (paper §VI-A: obstacles are then "inserted (and removed)
    at different times, and different window positions").
    """
    tests = [
        _wl("wl_close_full", sec(2), _press(BTN_UP, 0.0, 1.8),
            description="full close, no obstacle"),
        _wl("wl_close_short", ms(400), _press(BTN_UP, 0.0, 0.3),
            description="short up pulse, barely moves"),
        _wl("wl_close_half", sec(1), _press(BTN_UP, 0.0, 0.7),
            description="close to about half travel"),
        _wl("wl_idle", sec(1), _press(BTN_NONE, 0.0, 1.0),
            description="no buttons at all"),
        _wl("wl_down_from_open", sec(1), _press(BTN_DOWN, 0.0, 0.8),
            description="down while already open"),
        _wl("wl_up_down_seq", sec(3),
            _press_seq((BTN_UP, 0.0, 1.2), (BTN_DOWN, 1.5, 2.8)),
            description="close half-way, then open again"),
        _wl("wl_both_buttons", sec(2), _press(BTN_BOTH, 0.0, 1.5),
            description="mechanical interlock: both buttons"),
        _wl("wl_glitch", sec(2),
            lambda t: BTN_UP if (0.2 <= t < 1.0 and int(t * 1000) % 2 == 0) else BTN_NONE,
            description="1-sample button glitches (debounce)"),
        _wl("wl_dir_change", sec(3),
            _press_seq((BTN_UP, 0.0, 1.0), (BTN_DOWN, 1.0, 2.0), (BTN_UP, 2.0, 2.8)),
            description="direction changes without release"),
        _wl("wl_tap_up", sec(2),
            lambda t: BTN_UP if (t % 0.5) < 0.25 else BTN_NONE,
            description="repeated short taps"),
        _wl("wl_close_open_close", sec(5),
            _press_seq((BTN_UP, 0.0, 1.6), (BTN_DOWN, 2.0, 3.6), (BTN_UP, 4.0, 4.8)),
            description="full cycle close/open/close"),
        _wl("wl_hold_at_top", sec(3), _press(BTN_UP, 0.0, 2.8),
            description="keep pressing up at the end stop"),
        _wl("wl_open_from_closed", sec(5),
            _press_seq((BTN_UP, 0.0, 1.6), (BTN_DOWN, 2.0, 4.5)),
            description="full open starting from fully closed"),
        _wl("wl_glitch_down", sec(2),
            lambda t: BTN_DOWN if (0.2 <= t < 1.5 and int(t * 1000) % 3 == 0) else BTN_NONE,
            description="down-button glitches"),
        _wl("wl_both_during_move", sec(3),
            _press_seq((BTN_UP, 0.0, 0.8), (BTN_BOTH, 0.8, 1.6), (BTN_UP, 1.6, 2.4)),
            description="both buttons during a movement"),
        _wl("wl_tap_down", sec(2),
            _press_seq((BTN_UP, 0.0, 0.8), (BTN_DOWN, 1.0, 1.1), (BTN_DOWN, 1.4, 1.5)),
            description="short opening taps after closing"),
        _wl("wl_long_idle_then_close", sec(3),
            _press(BTN_UP, 1.5, 2.8),
            description="late movement start"),
    ]
    assert len(tests) == 17
    return tests


def window_lifter_iteration_batches() -> List[List[TestCase]]:
    """Three batches of three targeted testcases (17 -> 20 -> 23 -> 26).

    Batch 1 inserts obstacles in the coarse-timestep zone (anti-pinch
    coverage); batch 2 drains the battery, covering the refusal branch
    and the position-history PWeak path; batch 3 probes the
    fine-timestep zone, where the seeded dynamic-TDF detector bug keeps
    the anti-pinch pairs unexercised — coverage stops improving, which
    is exactly how the paper's authors discovered their
    current-feedback failures.
    """
    batch1 = [
        _wl("wl_obst_mid", sec(2), _press(BTN_UP, 0.0, 1.8), lambda t: 50.0,
            description="obstacle at mid travel"),
        _wl("wl_obst_late_insert", sec(2), _press(BTN_UP, 0.0, 1.8),
            lambda t: 50.0 if t > 0.4 else 0.0,
            description="obstacle inserted at t=0.4s"),
        _wl("wl_obst_removed", sec(2.5), _press(BTN_UP, 0.0, 2.3),
            lambda t: 40.0 if t < 0.8 else 0.0,
            description="obstacle removed after first pinch, close completes"),
    ]
    batch2 = [
        _wl("wl_battery_wearout", sec(10),
            lambda t: BTN_UP if (t % 1.6) < 0.8 else BTN_DOWN,
            description="cycle until the battery monitor trips"),
        _wl("wl_battery_refuse", sec(12),
            lambda t: (BTN_UP if (t % 1.6) < 0.8 else BTN_DOWN) if t < 8.0
            else (BTN_UP if 8.5 <= t < 10.0 else BTN_NONE),
            description="movement attempt after low-battery warning"),
        _wl("wl_obst_while_open", sec(3),
            _press_seq((BTN_UP, 0.0, 1.0), (BTN_DOWN, 1.4, 2.6)),
            lambda t: 30.0,
            description="obstacle present while opening (must not trip)"),
    ]
    batch3 = [
        _wl("wl_obst_fine_zone", sec(2), _press(BTN_UP, 0.0, 1.9), lambda t: 90.0,
            description="obstacle inside the fine-timestep zone (dynamic-TDF bug)"),
        _wl("wl_obst_fine_edge", sec(2), _press(BTN_UP, 0.0, 1.9), lambda t: 83.0,
            description="obstacle just past the timestep switch"),
        _wl("wl_obst_at_99", sec(2.5), _press(BTN_UP, 0.0, 2.3), lambda t: 98.0,
            description="obstacle just below the end-stop guard"),
    ]
    return [batch1, batch2, batch3]


def window_lifter_all_testcases() -> List[TestCase]:
    """Every window-lifter testcase (base suite + all three batches).

    The flat list worker processes rebuild suites from
    (:mod:`repro.exec.refs` cannot pickle the testcase closures, so
    workers re-create them by name from this importable function).
    """
    tests = window_lifter_base_suite()
    for batch in window_lifter_iteration_batches():
        tests.extend(batch)
    return tests


def window_lifter_campaign(config: Optional[DftConfig] = None) -> IterativeCampaign:
    """The full §VI-A campaign (Table II, upper half).

    ``config`` (see :class:`repro.DftConfig`; default ``DftConfig()``)
    carries the run knobs; ``workers > 1`` fans the dynamic stage out
    across a process pool.  The reported rows are identical for any
    worker count and either engine.
    """
    return _build_campaign(
        config, "window_lifter", window_lifter_base_suite(),
        window_lifter_iteration_batches(),
    )


def _build_campaign(
    config: Optional[DftConfig],
    name: str,
    base_suite: List[TestCase],
    batches: List[List[TestCase]],
) -> IterativeCampaign:
    """Assemble system ``name``'s campaign (shared by both case studies);
    a process pool or fleet rebuilds it from the registry's refs."""
    cfg = config if config is not None else DftConfig()
    entry = SYSTEMS[name]
    suite_len = len(base_suite) + sum(len(b) for b in batches)
    executor = cfg.make_executor(
        entry.factory_ref, entry.all_suite_ref, suite_len
    )
    campaign = IterativeCampaign(
        entry.factory(), base_suite, name=name,
        config=cfg.replace(executor=executor),
    )
    for batch in batches:
        campaign.add_iteration(batch)
    return campaign


# ---------------------------------------------------------------------------
# Buck-boost converter
# ---------------------------------------------------------------------------

def _bb(name, duration, target, vin=None, load=None, description=""):
    def setup(cluster):
        cluster.apply_target(target)
        if vin is not None:
            cluster.apply_vin(vin)
        if load is not None:
            cluster.apply_load(load)

    return TestCase(name, duration, setup, description)


def buck_boost_base_suite() -> List[TestCase]:
    """The initial 10-testcase buck-boost testbench.

    Each test programs a target voltage and checks settling from a
    3.6 V battery (the paper's protocol: apply an input voltage,
    program a target, observe speed and stability of regulation).  The
    base suite exercises plain regulation only; soft-start edge cases,
    the OVP latch, PFM mode and thermal back-off stay uncovered until
    the refinement iterations add targeted tests.
    """
    tests = [
        _bb("bb_buck_0v9", ms(40), lambda t: 0.9, description="buck to 0.9 V"),
        _bb("bb_buck_1v2", ms(40), lambda t: 1.2, description="buck to 1.2 V"),
        _bb("bb_buck_1v8", ms(40), lambda t: 1.8, description="buck to 1.8 V"),
        _bb("bb_buck_2v5", ms(40), lambda t: 2.5, description="buck to 2.5 V"),
        _bb("bb_buck_3v0", ms(40), lambda t: 3.0, description="buck to 3.0 V"),
        _bb("bb_boost_4v2", ms(40), lambda t: 4.2, description="boost to 4.2 V"),
        _bb("bb_boost_5v0", ms(40), lambda t: 5.0, description="boost to 5.0 V"),
        _bb("bb_boost_6v0", ms(40), lambda t: 6.0, description="boost to 6.0 V"),
        _bb("bb_boost_7v0", ms(40), lambda t: 7.0, description="boost to 7.0 V"),
        _bb("bb_boost_8v0", ms(40), lambda t: 8.0, description="boost to 8.0 V"),
    ]
    assert len(tests) == 10
    return tests


def buck_boost_iteration_batches() -> List[List[TestCase]]:
    """Batches of +5, +5, +4 testcases (10 -> 15 -> 20 -> 24).

    Each batch targets associations the ranked missed-pair report of
    the previous iteration surfaces, like the paper's manual refinement
    loop.  Not every association ends up covered — e.g. nothing drives
    the duty cycle into the upper boost clamp — mirroring the paper's
    final coverage staying below 100 %.
    """
    batch1 = [
        _bb("bb_step_up", ms(80), lambda t: 1.8 if t < 0.002 else 5.0,
            description="runtime retarget buck -> boost"),
        _bb("bb_step_down_ovp", ms(80), lambda t: 6.0 if t < 0.002 else 1.2,
            description="hard retarget down overshoots and latches the OVP"),
        _bb("bb_near_vin", ms(40), lambda t: 3.6,
            description="target == vin (hysteresis band)"),
        _bb("bb_zero_target", ms(40), lambda t: 0.0, description="target 0 V"),
        _bb("bb_limit_recover", ms(80), lambda t: 12.0 if t < 0.002 else 2.5,
            description="current limit engages, then normal regulation"),
    ]
    batch2 = [
        _bb("bb_vin_sag", ms(80), lambda t: 3.0,
            vin=Pwl([(0.0, 4.2), (0.0015, 4.2), (0.0025, 2.4)]),
            description="battery sag forces buck -> boost mid-run"),
        _bb("bb_vin_recover", ms(80), lambda t: 3.0,
            vin=Pwl([(0.0, 2.4), (0.002, 2.4), (0.003, 4.2)]),
            description="battery recovery forces boost -> buck"),
        _bb("bb_pfm_light_load", ms(80), lambda t: 1.8, load=lambda t: 5000.0,
            description="light load enters PFM pulse skipping"),
        _bb("bb_pfm_exit", ms(80), lambda t: 1.8,
            load=lambda t: 5000.0 if t < 0.002 else 8.0,
            description="load step pulls the converter out of PFM"),
        _bb("bb_negative_target", ms(40), lambda t: -1.0,
            description="negative target is clamped to zero"),
    ]
    batch3 = [
        _bb("bb_thermal", ms(160), lambda t: 9.0, load=lambda t: 4.0,
            description="sustained boost into a heavy load heats the switch"),
        _bb("bb_ovp_clear", ms(120), lambda t: 6.0 if t < 0.002 else (1.2 if t < 0.004 else 4.0),
            description="OVP latches, clears, regulation resumes"),
        _bb("bb_brownout", ms(60), lambda t: 3.0, vin=Step(3.6, 0.5, 0.002),
            description="input brownout to 0.5 V"),
        _bb("bb_load_short", ms(60), lambda t: 2.5, load=Step(10.0, 0.05, 0.002),
            description="near-short load clamps at the minimum resistance"),
    ]
    return [batch1, batch2, batch3]


def buck_boost_all_testcases() -> List[TestCase]:
    """Every buck-boost testcase (base suite + all three batches)."""
    tests = buck_boost_base_suite()
    for batch in buck_boost_iteration_batches():
        tests.extend(batch)
    return tests


def buck_boost_campaign(config: Optional[DftConfig] = None) -> IterativeCampaign:
    """The full §VI-B campaign (Table II, lower half); ``config`` as for
    :func:`window_lifter_campaign`."""
    return _build_campaign(
        config, "buck_boost", buck_boost_base_suite(),
        buck_boost_iteration_batches(),
    )
