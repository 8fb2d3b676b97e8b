"""The bundled systems by name, as importable references.

Every front end (the CLI, the job server, the shard workers) names a
system's cluster factory and testsuites through these references (see
:mod:`repro.exec.refs`), so one entry serves the in-process run and the
worker that rebuilds the same objects in another process or on another
host.  Importing this module imports no system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..exec.refs import resolve_ref
from ..testing.testcase import TestSuite


@dataclass(frozen=True)
class SystemEntry:
    """One bundled system: its factory, suites and campaign."""

    #: The cluster class; calling it builds a fresh cluster.
    factory_ref: str
    #: The base testsuite (``run``, ``generate``, ``list``).
    base_suite_ref: str
    #: Every testcase of the system, campaign batches included: the
    #: suite shard tasks pick their testcases from, and the suite
    #: ``mutate`` scores.
    all_suite_ref: str
    #: The Table-II refinement campaign, called with ``config=``.
    campaign_ref: Optional[str] = None

    def factory(self) -> Callable:
        """The in-process cluster factory."""
        return resolve_ref(self.factory_ref)

    def base_suite(self, name: str) -> TestSuite:
        """The base testsuite, named ``name``."""
        return TestSuite(name, resolve_ref(self.base_suite_ref)())


SYSTEMS: Dict[str, SystemEntry] = {
    "sensor": SystemEntry(
        factory_ref="repro.systems.sensor:SenseTop",
        base_suite_ref="repro.systems.sensor:paper_testcases",
        all_suite_ref="repro.systems.sensor:paper_testcases",
    ),
    "window_lifter": SystemEntry(
        factory_ref="repro.systems.window_lifter:WindowLifterTop",
        base_suite_ref="repro.systems.campaigns:window_lifter_base_suite",
        all_suite_ref="repro.systems.campaigns:window_lifter_all_testcases",
        campaign_ref="repro.systems.campaigns:window_lifter_campaign",
    ),
    "buck_boost": SystemEntry(
        factory_ref="repro.systems.buck_boost:BuckBoostTop",
        base_suite_ref="repro.systems.campaigns:buck_boost_base_suite",
        all_suite_ref="repro.systems.campaigns:buck_boost_all_testcases",
        campaign_ref="repro.systems.campaigns:buck_boost_campaign",
    ),
    "riscv_platform": SystemEntry(
        factory_ref="repro.systems.riscv_platform:RiscvPlatformTop",
        base_suite_ref="repro.systems.riscv_platform:paper_style_testcases",
        all_suite_ref="repro.systems.riscv_platform:paper_style_testcases",
    ),
}

#: The systems with a refinement campaign.
CAMPAIGN_SYSTEMS = tuple(
    sorted(name for name, entry in SYSTEMS.items() if entry.campaign_ref)
)


def system_entry(name: str) -> SystemEntry:
    """The registry entry of ``name`` (one-line :class:`ValueError`
    naming the known systems otherwise)."""
    try:
        return SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r} "
            f"(available: {', '.join(sorted(SYSTEMS))})"
        ) from None
