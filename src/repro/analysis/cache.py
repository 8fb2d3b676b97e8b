"""Memoized static analysis.

Static analysis is purely structural — it reads each analysable model's
``processing()`` source and the cluster netlist, never simulation state
— so its result is fully determined by a **fingerprint** of those
inputs.  Campaigns re-analyse the same models (sensor / buck-boost /
window-lifter run repeatedly across growing testsuites); with the cache
they pay static analysis once per distinct fingerprint.

Two storage levels:

* **in-process** — a dict on :class:`StaticAnalysisCache`, always on
  for the process-wide default cache;
* **on disk** (optional) — pickled results under a cache directory
  (``--cache-dir`` on the CLI, default ``~/.cache/repro-dft/``), so
  repeated CLI invocations skip the analysis too.

Cache hits hand out a shallow *clone* of the stored result: the
container lists/dicts are fresh (so a caller appending diagnostics
cannot corrupt the cache) while the records themselves — frozen
dataclasses throughout — are shared.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import pickle
import tempfile
from typing import TYPE_CHECKING, Dict, Optional

from ..tdf.cluster import Cluster

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid a cycle
    from .cluster_analysis import StaticAnalysisResult
    from .subsume import SubsumptionResult

#: Bump when the analysis output format changes so stale disk entries
#: are never deserialised into the new code.
#: v2: ModelAnalysis carries its processing() CFG (and DefUse records
#: carry conditional-occurrence sets) for the subsumption pass.
CACHE_FORMAT_VERSION = 2

#: Default on-disk location (used when a cache dir is requested without
#: an explicit path).
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro-dft")


def _processing_source(module) -> str:
    """Source text of the model's processing callable (best effort).

    Falls back to a stable identity marker when the source is not
    retrievable (interactively defined models); such models are then
    distinguished by class identity only, which is the best available
    signal.
    """
    fn = module.resolved_processing()
    try:
        return inspect.getsource(fn)
    except (OSError, TypeError):
        return f"<no-source:{getattr(fn, '__qualname__', repr(fn))}>"


def fingerprint_cluster(cluster: Cluster) -> str:
    """SHA-256 over everything the static analysis depends on.

    Covered: cluster identity, per-module class/flags and the
    ``processing()`` source of every analysable model, and the netlist
    (signal topology plus the bind sites that anchor opaque-use and
    redefinition associations, each as its module name and line, so
    the fingerprint does not depend on where the checkout lives).
    Anything else — port rates, timesteps, stimuli — is invisible to
    the static stage and deliberately left out, so dynamic-TDF
    configuration flips do not defeat the cache.
    """
    h = hashlib.sha256()

    def put(*parts: object) -> None:
        for part in parts:
            h.update(str(part).encode())
            h.update(b"\x1f")

    put("repro-static", CACHE_FORMAT_VERSION, cluster.name, type(cluster).__qualname__)
    for module in cluster.modules:
        cls = type(module)
        put("module", module.name, cls.__module__, cls.__qualname__,
            module.TESTBENCH, module.REDEFINING, module.OPAQUE_USES)
        if not module.TESTBENCH and not module.REDEFINING:
            put(_processing_source(module))
        for port in module.ports():
            put("port", port.name, port.direction)
    for sig, driver, readers in cluster.bindings():
        put("signal", sig.name)
        for port in ([driver] if driver is not None else []) + readers:
            site = port.bind_site
            put(port.direction, port.full_name(),
                site.module if site else "", site.lineno if site else 0)
    return h.hexdigest()


def _clone_result(result: "StaticAnalysisResult") -> "StaticAnalysisResult":
    """Fresh containers, shared (frozen) records."""
    from .cluster_analysis import StaticAnalysisResult

    return StaticAnalysisResult(
        cluster=result.cluster,
        associations=list(result.associations),
        definitions=list(result.definitions),
        models=dict(result.models),
        dead_port_writes=list(result.dead_port_writes),
        undriven_input_ports=list(result.undriven_input_ports),
        model_start_lines=dict(result.model_start_lines),
        fingerprint=result.fingerprint,
    )


class StaticAnalysisCache:
    """In-process (and optionally on-disk) memo of static analyses."""

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self._memory: Dict[str, "StaticAnalysisResult"] = {}
        self._disk_dir = os.path.expanduser(disk_dir) if disk_dir else None
        #: ``False`` turns every lookup into a silent miss and every
        #: store into a no-op (the CLI's ``--no-static-cache``).
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        #: :func:`~repro.analysis.subsume.analyze_subsumption` results
        #: (immutable, so shared) by fingerprint; memory only.
        self.subsumptions: Dict[str, "SubsumptionResult"] = {}

    # -- configuration ----------------------------------------------------

    @property
    def disk_dir(self) -> Optional[str]:
        return self._disk_dir

    def set_disk_dir(self, disk_dir: Optional[str]) -> None:
        """Enable (or disable, with ``None``) the on-disk level."""
        self._disk_dir = os.path.expanduser(disk_dir) if disk_dir else None

    def clear(self) -> None:
        """Drop the in-memory level and reset the statistics.

        Disk entries are left alone; delete the directory to purge them.
        """
        self._memory.clear()
        self.subsumptions.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._memory)

    # -- storage ----------------------------------------------------------

    def _disk_path(self, fingerprint: str) -> str:
        assert self._disk_dir is not None
        return os.path.join(self._disk_dir, f"{fingerprint}.v{CACHE_FORMAT_VERSION}.pkl")

    def get(self, fingerprint: str) -> Optional["StaticAnalysisResult"]:
        """Look the fingerprint up in memory, then on disk."""
        if not self.enabled:
            return None
        cached = self._memory.get(fingerprint)
        if cached is not None:
            self.hits += 1
            return _clone_result(cached)
        if self._disk_dir is not None:
            try:
                with open(self._disk_path(fingerprint), "rb") as fh:
                    cached = pickle.load(fh)
            except (OSError, pickle.PickleError, EOFError, AttributeError):
                cached = None  # absent or stale/corrupt: treat as a miss
            if cached is not None:
                self._memory[fingerprint] = cached
                self.hits += 1
                self.disk_hits += 1
                return _clone_result(cached)
        self.misses += 1
        return None

    def put(self, fingerprint: str, result: "StaticAnalysisResult") -> None:
        """Store a freshly computed result under its fingerprint."""
        if not self.enabled:
            return
        self._memory[fingerprint] = _clone_result(result)
        if self._disk_dir is None:
            return
        tmp = None
        try:
            os.makedirs(self._disk_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self._disk_dir, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._disk_path(fingerprint))
            tmp = None
        except OSError:
            pass  # disk level is best-effort; memory level already holds it
        finally:
            if tmp is not None:  # the write failed: drop the partial file
                try:
                    os.unlink(tmp)
                except OSError:
                    pass


#: The process-wide default cache :func:`repro.analysis.analyze_cluster`
#: uses unless told otherwise.
_default_cache = StaticAnalysisCache()


def get_default_cache() -> StaticAnalysisCache:
    """The process-wide static-analysis cache."""
    return _default_cache
