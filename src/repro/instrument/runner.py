"""The dynamic-analysis runner (paper Fig. 3, right side).

For every testcase the runner builds a fresh cluster (testcases must
not contaminate each other's member state), registers the static def
site of every signal an uninstrumented module drives (testbench
sources, redefining library elements), instruments every analysed
model's ``processing()`` (its port accessors bind those sites),
applies the testcase's stimuli, simulates, and collects the def-use
pairs the probe paired along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..analysis.cluster_analysis import StaticAnalysisResult
from ..analysis.netlist import origin_of
from ..obs import get_telemetry
from ..tdf.cluster import Cluster
from ..tdf.engine.executor import resolve_engine
from ..tdf.module import TdfModule
from ..tdf.ports import TdfOut
from ..tdf.simulator import Simulator
from ..testing.testcase import TestCase, TestSuite
from .instrumenter import instrument_processing
from .matching import MatchResult, match_events
from .probes import TESTBENCH_SITE, ProbeRuntime

#: A nullary callable producing a **fresh** cluster instance per call.
#:
#: The fresh-instance contract is load-bearing: the dynamic analysis
#: runs every testcase on its own cluster so module member state,
#: signal buffers and instrumentation can never leak between
#: testcases, and the pipeline builds one more instance for the static
#: stage.  Returning a cached/shared cluster breaks testcase isolation
#: and double-instruments ``processing()``.  Telemetry records how many
#: builds one pipeline run pays (``pipeline.cluster_builds``).
ClusterFactory = Callable[[], Cluster]


@dataclass
class DynamicResult:
    """Per-testcase exercised pairs for one suite execution."""

    per_testcase: Dict[str, MatchResult] = field(default_factory=dict)

    def exercised_keys(self) -> set:
        """Union of exercised pair keys over all testcases."""
        keys = set()
        for match in self.per_testcase.values():
            keys |= match.pairs
        return keys

    def use_without_def(self) -> List[str]:
        """All distinct use-without-def findings across testcases.

        First-occurrence order (testcase order, then event order within
        a testcase); deduplicated with a seen-set so large suites do not
        pay quadratic list membership scans.
        """
        found: List[str] = []
        seen: set = set()
        for match in self.per_testcase.values():
            for desc in match.use_without_def:
                if desc not in seen:
                    seen.add(desc)
                    found.append(desc)
        return found


class DynamicAnalyzer:
    """Executes a testsuite against an instrumented cluster."""

    def __init__(
        self,
        cluster_factory: ClusterFactory,
        static: StaticAnalysisResult,
        warn: bool = False,
        telemetry=None,
        engine: Optional[str] = "auto",
    ) -> None:
        self.cluster_factory = cluster_factory
        self.static = static
        self.warn = warn
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        #: Resolved TDF engine for the simulations ("interp" or "block").
        self.engine = resolve_engine(engine)

    # -- single testcase ------------------------------------------------------

    def run_testcase(self, testcase: TestCase) -> MatchResult:
        """Run one testcase and return its exercised pairs.

        Each testcase gets a ``dynamic.testcase[<name>]`` telemetry span
        with ``dynamic.simulate`` / ``dynamic.match`` children; the
        number of exercised pairs is attached as a span attribute.
        """
        tel = self.telemetry
        with tel.span(
            f"dynamic.testcase[{testcase.name}]", testcase=testcase.name
        ) as tc_span:
            cluster = self.cluster_factory()
            probe = ProbeRuntime(cluster.name)
            self._register_static_sites(cluster, probe)
            self._instrument(cluster, probe)
            testcase.apply(cluster)
            simulator = Simulator(cluster, engine=self.engine)
            with tel.span("dynamic.simulate", testcase=testcase.name):
                simulator.run(testcase.duration)
                simulator.finish()
            with tel.span("dynamic.match", testcase=testcase.name):
                match = match_events(
                    probe,
                    testcase.name,
                    self.static.model_start_lines,
                    warn=self.warn,
                )
            if tel.enabled:
                tc_span.set_attribute("exercised_pairs", len(match.pairs))
            return match

    def run_suite(self, suite: TestSuite) -> DynamicResult:
        """Run every testcase of ``suite`` in order."""
        result = DynamicResult()
        for testcase in suite:
            result.per_testcase[testcase.name] = self.run_testcase(testcase)
        return result

    # -- plumbing -----------------------------------------------------------------

    def _instrument(self, cluster: Cluster, probe: ProbeRuntime) -> None:
        for module in cluster.modules:
            if module.TESTBENCH or module.REDEFINING:
                continue
            instrument_processing(module, probe)

    def _register_static_sites(self, cluster: Cluster, probe: ProbeRuntime) -> None:
        for module in cluster.modules:
            if not (module.TESTBENCH or module.REDEFINING):
                continue
            for port in module.out_ports():
                if port.signal is None:
                    continue
                if module.TESTBENCH:
                    site = TESTBENCH_SITE
                else:
                    site = self._redef_site(cluster, module, port)
                probe.static_sites[port.signal.name] = (port, site)

    def _redef_site(
        self, cluster: Cluster, module: TdfModule, port: TdfOut
    ) -> tuple:
        """Definition site of the tokens leaving a redefining element.

        The variable is the originating (non-redefining) output port's
        name; the anchor is this element's output bind statement, and
        the defining "model" is the cluster (netlist) — matching the
        static PFirm/PWeak anchors.  Chains that originate at the
        testbench (or are undriven) degrade to testbench semantics: the
        reader pairs with its own placeholder definition.
        """
        ins = module.in_ports()
        origin = origin_of(ins[0]) if ins else None
        if origin is None:
            return TESTBENCH_SITE
        driver, _redefined, _anchor = origin
        if driver.module is not None and driver.module.TESTBENCH:
            return TESTBENCH_SITE
        line = port.bind_site.lineno if port.bind_site is not None else 0
        return (driver.name, cluster.name, line)
