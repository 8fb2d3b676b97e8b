"""TDF module base class.

A TDF module is the unit of behaviour in a TDF cluster, mirroring
``sca_tdf::sca_module``:

* ``set_attributes()`` — declare port rates/delays and timesteps;
* ``initialize()`` — set initial values after elaboration;
* ``processing()`` — the per-activation behaviour (the subject of the
  paper's data-flow analysis);
* ``change_attributes()`` — dynamic TDF: invoked once per cluster
  period, may request a new timestep/rate which takes effect at the
  next period boundary after re-elaboration.

Ports are declared as plain attribute assignments::

    class Gain(TdfModule):
        def __init__(self, name, k):
            super().__init__(name)
            self.ip = TdfIn()
            self.op = TdfOut()
            self.m_k = k

        def processing(self):
            self.op.write(self.ip.read() * self.m_k)

The module's ``__setattr__`` captures :class:`~repro.tdf.ports.Port`
instances and names them after the attribute, so the static analysis
can refer to ports by the same identifiers that appear in the source.

Class-level flags consumed by the analysis layer:

``REDEFINING``
    The module is a single-input single-output library element that
    *redefines* the signal flowing through it (gain, delay, buffer).
    Paper §IV-B: data flowing through such an element counts as
    redefined, which drives the PFirm/PWeak classification.
``OPAQUE_USES``
    Input-port uses of this module are anchored at the netlist bind
    site instead of inside its source (library components whose source
    the user did not write).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .errors import DynamicTdfError, TdfError
from .ports import Port, TdfIn, TdfOut
from .time import ScaTime


class TdfModule:
    """Base class for all TDF modules."""

    #: See module docstring.
    REDEFINING = False
    #: See module docstring.
    OPAQUE_USES = False
    #: Testbench modules (stimulus sources, monitors, LEDs) sit outside
    #: the design under verification: the static analysis skips them, so
    #: DUV input ports they drive keep their placeholder definition at
    #: the model start (paper §V) and DUV outputs they consume produce
    #: no use anchors.
    TESTBENCH = False
    #: Whether the module accepts dynamic attribute changes at runtime.
    ACCEPT_ATTRIBUTE_CHANGES = True
    #: Block-engine hint: the module is stateless across firings (its
    #: output samples depend only on its input samples and declared
    #: attributes), so the compiled engine may hoist its firings across
    #: period boundaries inside an execution window.  Stateful modules
    #: (filters, triggers) must leave this False; they still block-fire,
    #: but only within a single period.
    BLOCK_WINDOWABLE = False

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise TdfError(f"module name must be a non-empty string, got {name!r}")
        # Assign via object.__setattr__ so port capture below can rely on
        # self._ports existing.
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_ports", {})
        self._processing_fn: Optional[Callable[[], None]] = None
        self.activation_count = 0
        #: Time of the current (or last) activation, in femtoseconds;
        #: :attr:`time` builds the :class:`ScaTime` only when read.
        self._time_fs = 0
        self._module_timestep_request: Optional[ScaTime] = None
        self.timestep: Optional[ScaTime] = None
        self._pending_timestep: Optional[ScaTime] = None
        self._pending_rates: Dict[str, int] = {}
        self.cluster = None  # set at registration

    # -- port capture ---------------------------------------------------------

    def __setattr__(self, key: str, value: Any) -> None:
        if isinstance(value, Port):
            value.name = value.name or key
            value.module = self
            self._ports[key] = value
        object.__setattr__(self, key, value)

    def ports(self) -> Iterator[Port]:
        """All ports in declaration order."""
        return iter(self._ports.values())

    def in_ports(self) -> List[TdfIn]:
        """All input ports in declaration order.

        Cached after first call: ports are declared in ``__init__`` and
        the set never changes afterwards.
        """
        cached = self.__dict__.get("_in_ports_cache")
        if cached is None or len(cached[1]) != len(self._ports):
            ins = [p for p in self._ports.values() if isinstance(p, TdfIn)]
            object.__setattr__(self, "_in_ports_cache", (ins, dict(self._ports)))
            return ins
        return cached[0]

    def out_ports(self) -> List[TdfOut]:
        """All output ports in declaration order (cached like in_ports)."""
        cached = self.__dict__.get("_out_ports_cache")
        if cached is None or len(cached[1]) != len(self._ports):
            outs = [p for p in self._ports.values() if isinstance(p, TdfOut)]
            object.__setattr__(self, "_out_ports_cache", (outs, dict(self._ports)))
            return outs
        return cached[0]

    def port(self, name: str) -> Port:
        """Look up a port by attribute name."""
        try:
            return self._ports[name]
        except KeyError:
            raise TdfError(f"module {self.name!r} has no port {name!r}") from None

    # -- lifecycle callbacks (override in subclasses) ---------------------------

    def set_attributes(self) -> None:
        """Declare rates, delays and timesteps.  Default: single-rate."""

    def initialize(self) -> None:
        """Initialise state after elaboration, before the first activation."""

    def processing(self) -> None:
        """Per-activation behaviour; must be overridden (or registered)."""
        raise NotImplementedError(
            f"module {self.name!r} defines no processing() and registered none"
        )

    def change_attributes(self) -> None:
        """Dynamic TDF hook, called once per cluster period."""

    def processing_block(self, block) -> None:
        """Block-mode behaviour: process ``block.n`` firings in one call.

        Overriding this method declares the module *block-capable*: the
        compiled execution engine (:mod:`repro.tdf.engine`) may replace
        ``block.n`` consecutive per-sample activations with a single
        call, passing a :class:`~repro.tdf.engine.blocks.FiringBlock`
        that exposes whole sample blocks (``block.read(port)`` returns a
        list of ``block.n`` samples, ``block.write(port, values)``
        expects exactly ``block.n``).  Implementations must produce
        bit-identical samples and leave module state exactly as ``n``
        sequential :meth:`processing` calls would.  The base class does
        not implement it; the engine falls back to interpreted firing.
        """
        raise NotImplementedError(
            f"module {self.name!r} does not implement processing_block()"
        )

    def end_of_simulation(self) -> None:
        """Called once when the simulation finishes."""

    # -- register_processing (paper §V) -----------------------------------------

    def register_processing(self, fn: Callable[[], None]) -> None:
        """Use ``fn`` as the processing callback instead of ``processing()``.

        Mirrors SystemC-AMS's ``register_processing``; the static
        analysis resolves the registered callable when extracting the
        model's source (see
        :meth:`repro.analysis.model_analysis.resolve_processing`).
        """
        if not callable(fn):
            raise TdfError(f"register_processing expects a callable, got {fn!r}")
        self._processing_fn = fn

    def resolved_processing(self) -> Callable[[], None]:
        """The callable actually executed per activation."""
        return self._processing_fn if self._processing_fn is not None else self.processing

    # -- attribute requests -------------------------------------------------------

    def set_timestep(self, timestep: ScaTime) -> None:
        """Assign the module timestep (legal inside ``set_attributes``)."""
        if not isinstance(timestep, ScaTime) or timestep.femtoseconds <= 0:
            raise TdfError(
                f"module timestep must be a positive ScaTime, got {timestep!r}"
            )
        self._module_timestep_request = timestep

    @property
    def requested_timestep(self) -> Optional[ScaTime]:
        """Timestep assigned via :meth:`set_timestep` (None = derived)."""
        return self._module_timestep_request

    # -- dynamic TDF ----------------------------------------------------------------

    def request_timestep(self, timestep: ScaTime) -> None:
        """Request a new module timestep (dynamic TDF).

        Legal inside ``processing()`` or ``change_attributes()``; takes
        effect at the next cluster-period boundary, after the kernel
        re-runs elaboration.
        """
        if not self.ACCEPT_ATTRIBUTE_CHANGES:
            raise DynamicTdfError(
                f"module {self.name!r} does not accept attribute changes"
            )
        if not isinstance(timestep, ScaTime) or timestep.femtoseconds <= 0:
            raise DynamicTdfError(
                f"requested timestep must be a positive ScaTime, got {timestep!r}"
            )
        self._pending_timestep = timestep

    def request_rate(self, port_name: str, rate: int) -> None:
        """Request a new rate for ``port_name`` (dynamic TDF)."""
        if not self.ACCEPT_ATTRIBUTE_CHANGES:
            raise DynamicTdfError(
                f"module {self.name!r} does not accept attribute changes"
            )
        if port_name not in self._ports:
            raise DynamicTdfError(f"module {self.name!r} has no port {port_name!r}")
        if not isinstance(rate, int) or rate < 1:
            raise DynamicTdfError(f"requested rate must be a positive int, got {rate!r}")
        self._pending_rates[port_name] = rate

    def consume_attribute_requests(self) -> bool:
        """Apply pending dynamic-TDF requests; returns True if any applied."""
        changed = False
        if self._pending_timestep is not None:
            self._module_timestep_request = self._pending_timestep
            self._pending_timestep = None
            changed = True
        for port_name, rate in self._pending_rates.items():
            self._ports[port_name].set_rate(rate)
            changed = True
        self._pending_rates.clear()
        return changed

    @property
    def has_pending_attribute_requests(self) -> bool:
        """Whether a dynamic-TDF request is waiting for the period boundary."""
        return self._pending_timestep is not None or bool(self._pending_rates)

    # -- simulation-time helpers -----------------------------------------------------

    @property
    def time(self) -> ScaTime:
        """Time of the current activation's first sample."""
        return ScaTime.from_femtoseconds(self._time_fs)

    def local_time(self, sample: int = 0) -> ScaTime:
        """Time of sample ``sample`` of the current activation."""
        if self.timestep is None:
            return self.time
        return self.time + self.timestep * sample

    # -- kernel hooks -----------------------------------------------------------------

    def _activate(self, time_fs: int) -> None:
        """Run one activation at ``time_fs`` femtoseconds (kernel use only).

        Bypasses :meth:`__setattr__` (its port-capture check is pure
        overhead for plain state) and resolves the port lists once per
        activation instead of once per loop.
        """
        object.__setattr__(self, "_time_fs", time_fs)
        ins = self.in_ports()
        outs = self.out_ports()
        for port in ins:
            port._begin_activation()
        for port in outs:
            port._begin_activation()
        try:
            self.resolved_processing()()
        finally:
            for port in ins:
                port._end_activation()
            for port in outs:
                port._end_activation()
        object.__setattr__(self, "activation_count", self.activation_count + 1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
