"""The in-process workloads: inputs, the timed op and its output check.

Each workload is built in three steps that the benchmark keeps apart:

* :meth:`Workload.setup` — imports and resolves references; what a
  fresh process pays before its first op (``setup_s``);
* :meth:`Workload.op` — the user-visible operation, timed, run with
  the default :class:`repro.DftConfig` (block engine, one worker, no
  batching, scan matcher on the memory store);
* :meth:`Workload.digests` — canonical digests of the op's output,
  computed after the timer stops and compared with ``reference.json``,
  which :mod:`reference` writes from the reference configuration
  (interp engine, scan matcher, serial unbatched mutation).

The inputs are fixed, and each op is a few seconds of work so that a
run measures several.  ``pipeline`` runs the ``repro-dft run`` suites
except that window_lifter keeps its first four testcases (which still
re-elaborate the dynamic TDF schedule).  ``mutation`` runs seed
1123's six buck-boost mutants against the base suite.  The sample mixes
AST and netlist operators, one nonviable mutant, and the SISO netlist
mutants ``gain:000:i_vout_delay`` and ``drop:001:i_sense_gain``.  The
serial path kills those two in 5 and 1 testcases, but mutant screening
(``batch_size``) reports them as survivors.  The reference kill matrix
is the serial one, so putting screening on the default path fails the
``mutation`` check.  ``directed`` runs the guided search with search
seed 0 and a budget of 8 simulations.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: ``repro-dft run`` systems, the suites the CLI runs them with, and how
#: many of the suite's testcases an op keeps (``None``: all).
PIPELINE_SYSTEMS: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    ("sensor", "repro.systems.sensor:SenseTop",
     "repro.systems.sensor:paper_testcases", None),
    ("window_lifter", "repro.systems.window_lifter:WindowLifterTop",
     "repro.systems.campaigns:window_lifter_base_suite", 4),
    ("buck_boost", "repro.systems.buck_boost:BuckBoostTop",
     "repro.systems.campaigns:buck_boost_base_suite", None),
    ("riscv_platform", "repro.systems.riscv_platform:RiscvPlatformTop",
     "repro.systems.riscv_platform:paper_style_testcases", None),
)

BUCK_BOOST = "repro.systems.buck_boost:BuckBoostTop"
BASE_SUITE = "repro.systems.campaigns:buck_boost_base_suite"
MUTATION_SEED = 1123
MUTATION_MAX_MUTANTS = 6
SEARCH_SEED = 0
DIRECTED_BUDGET = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_digest(coverage: Any) -> str:
    """Digest of the canonical coverage summary (the history-record slice)."""
    from repro.obs.store.history import coverage_summary

    return sha256(
        json.dumps(coverage_summary(coverage), sort_keys=True).encode()
    )


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def compare(expected: Mapping[str, str], got: Mapping[str, str]) -> List[str]:
    """One line per digest that differs from (or is missing in) ``got``."""
    return [
        f"{key}: expected {want[:12]}, got {str(got.get(key))[:12]}"
        for key, want in sorted(expected.items())
        if got.get(key) != want
    ]


class Workload:
    """One workload of the benchmark; subclasses define the three steps."""

    name = ""

    def __init__(self, config: Any = None) -> None:
        from repro import DftConfig

        #: ``None`` -> the default configuration users get.
        self.config = config if config is not None else DftConfig()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> Any:
        raise NotImplementedError

    def digests(self, output: Any) -> Dict[str, str]:
        raise NotImplementedError

    def shape_problems(self, output: Any) -> List[str]:
        """Paper-shape checks beyond the digests (none by default)."""
        return []

    def extras(self, output: Any) -> Dict[str, float]:
        """Per-layer metrics read off the op's result (traced runs)."""
        return {}


class Pipeline(Workload):
    """``run_dft`` + the text report on the four bundled systems."""

    name = "pipeline"

    def setup(self) -> None:
        from repro import TestSuite, format_summary, run_dft
        from repro.exec.refs import resolve_ref

        self._run_dft = run_dft
        self._format_summary = format_summary
        self.cases = [
            (name, resolve_ref(factory),
             TestSuite(name, resolve_ref(suite)()[:keep]))
            for name, factory, suite, keep in PIPELINE_SYSTEMS
        ]

    def op(self) -> Dict[str, Any]:
        results = {}
        for name, factory, suite in self.cases:
            result = self._run_dft(factory, suite, self.config)
            self._format_summary(result.coverage)
            results[name] = result
        return results

    def digests(self, output: Dict[str, Any]) -> Dict[str, str]:
        return {
            f"pipeline.{name}": summary_digest(result.coverage)
            for name, result in output.items()
        }

    def shape_problems(self, output: Dict[str, Any]) -> List[str]:
        from repro import AssocClass

        problems = []
        wl = output["window_lifter"].coverage.class_coverage()
        if wl[AssocClass.PFIRM].total != 0:
            problems.append("window_lifter has PFirm associations")
        bb = output["buck_boost"].coverage.class_coverage()
        for klass in (AssocClass.PFIRM, AssocClass.PWEAK):
            if not bb[klass].total or bb[klass].covered != bb[klass].total:
                problems.append(f"buck_boost base suite misses {klass.value}")
        return problems


class Mutation(Workload):
    """``run_mutation`` on buck_boost: the kill matrix of a mutant sample."""

    name = "mutation"

    def setup(self) -> None:
        from repro.exec.refs import resolve_ref
        from repro.mutation import kill_matrix_bytes, run_mutation

        resolve_ref(BUCK_BOOST)
        resolve_ref(BASE_SUITE)
        self._run_mutation = run_mutation
        self._kill_matrix_bytes = kill_matrix_bytes
        self.config = self.config.replace(seed=MUTATION_SEED)

    def op(self) -> Any:
        return self._run_mutation(
            BUCK_BOOST, BASE_SUITE, self.config,
            max_mutants=MUTATION_MAX_MUTANTS,
        )

    def digests(self, output: Any) -> Dict[str, str]:
        return {"mutation.kill_matrix": sha256(self._kill_matrix_bytes(output))}

    def extras(self, output: Any) -> Dict[str, float]:
        return {"mutation.viable_ratio": output.viable / len(output.specs)}


class Directed(Workload):
    """``generate_suite``: frontier targets, guided search, 8 simulations."""

    name = "directed"

    def setup(self) -> None:
        from repro import TestSuite, generate_suite
        from repro.exec.refs import resolve_ref
        from repro.generation.report import suite_bytes

        self._generate_suite = generate_suite
        self._suite_bytes = suite_bytes
        self.factory = resolve_ref(BUCK_BOOST)
        self.base = TestSuite("buck_boost", resolve_ref(BASE_SUITE)())
        self.config = self.config.replace(
            seed=SEARCH_SEED, budget_simulations=DIRECTED_BUDGET
        )

    def op(self) -> Any:
        return self._generate_suite(
            self.factory, self.base, "buck_boost", self.config,
            strategy="guided", target_mode="frontier",
        )

    def digests(self, output: Any) -> Dict[str, str]:
        return {
            "directed.suite": sha256(self._suite_bytes(output)),
            "directed.coverage_after": summary_digest(output.coverage_after),
        }

    def extras(self, output: Any) -> Dict[str, float]:
        sims = output.simulations
        closed = len(output.closed) + output.subsumed_closed
        return {
            "generation.closed_per_sim": closed / sims if sims else 0.0,
            "generation.memo_hit_ratio": (
                output.memo_hits / (output.memo_hits + sims)
                if output.memo_hits + sims else 0.0
            ),
        }


WORKLOADS = {cls.name: cls for cls in (Pipeline, Mutation, Directed)}


def check(workload: Workload, output: Any, reference: Mapping[str, Any]) -> List[str]:
    """Every problem with one op's output; empty when it is correct."""
    expected = {
        key: digest for key, digest in reference["digests"].items()
        if key.split(".")[0] == workload.name
    }
    return compare(expected, workload.digests(output)) + workload.shape_problems(output)
