"""TDF ports.

Ports are the interface between a TDF module's ``processing()`` callback
and the token streams (:class:`~repro.tdf.signal.Signal`) of the
cluster.  Following the SystemC-AMS TDF port semantics:

* an input port with *rate* ``R`` delivers ``R`` samples per module
  activation, addressed as ``port.read(0) .. port.read(R - 1)``;
* an output port with rate ``R`` accepts ``R`` samples per activation
  via ``port.write(value, i)``; samples never written default to the
  signal's initial value;
* a *delay* of ``d`` on an input port makes the reader consume ``d``
  initial values before the first real token (breaking feedback loops);
  a delay on an output port emits ``d`` initial samples ahead of the
  first computed one;
* a *timestep* may be assigned to a port (or to the whole module); the
  elaboration propagates timesteps through the cluster and checks
  consistency (see :mod:`repro.tdf.scheduler`).

Every ``bind()`` call records the source location of the call site.
These *bind sites* are the netlist anchors used by the static data-flow
analysis to attribute definitions/uses that happen inside opaque library
components (paper §V, "Binding Info. Extraction").
"""

from __future__ import annotations

import inspect
from typing import Any, List, Optional, Tuple, TYPE_CHECKING

from .errors import BindingError, PortAccessError
from .signal import Signal
from .time import ScaTime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import TdfModule

class BindSite:
    """Source location of a ``bind()`` call (the netlist anchor).

    ``module`` is the ``__name__`` of the calling module: unlike
    ``filename``, it does not depend on where the source tree lives.
    """

    __slots__ = ("filename", "lineno", "function", "module")

    def __init__(
        self, filename: str, lineno: int, function: str, module: str
    ) -> None:
        self.filename = filename
        self.lineno = lineno
        self.function = function
        self.module = module

    def __repr__(self) -> str:
        return f"BindSite({self.filename}:{self.lineno} in {self.function})"


#: Directory of this package; frames inside it are kernel-internal and
#: skipped when locating the user's bind statement.
import os as _os

_KERNEL_DIR = _os.path.dirname(_os.path.abspath(__file__))


def _capture_bind_site() -> Optional[BindSite]:
    """Record the file/line of the nearest caller outside the kernel.

    ``bind()`` may be reached directly from user netlist code or through
    convenience wrappers like :meth:`repro.tdf.cluster.Cluster.connect`;
    either way the *user's* statement is the anchor the analysis needs,
    so internal frames are skipped.
    """
    frame = inspect.currentframe()
    try:
        while frame is not None:
            filename = frame.f_code.co_filename
            if not _os.path.abspath(filename).startswith(_KERNEL_DIR):
                return BindSite(
                    filename, frame.f_lineno, frame.f_code.co_name,
                    frame.f_globals.get("__name__", ""),
                )
            frame = frame.f_back
        return None
    finally:
        del frame


class Port:
    """Common state shared by input and output TDF ports."""

    __slots__ = (
        "name",
        "module",
        "signal",
        "rate",
        "delay",
        "initial_values",
        "requested_timestep",
        "timestep",
        "bind_site",
    )

    direction = "?"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.module: Optional["TdfModule"] = None
        self.signal: Optional[Signal] = None
        self.rate = 1
        self.delay = 0
        #: Per-port initial values consumed during the delay phase.
        self.initial_values: List[Any] = []
        #: Timestep requested via :meth:`set_timestep` (None = derived).
        self.requested_timestep: Optional[ScaTime] = None
        #: Timestep derived by elaboration.
        self.timestep: Optional[ScaTime] = None
        self.bind_site: Optional[BindSite] = None

    # -- attribute setters (legal inside ``set_attributes``) ---------------

    def set_rate(self, rate: int) -> None:
        """Declare how many samples this port produces/consumes per
        module activation."""
        if not isinstance(rate, int) or rate < 1:
            raise PortAccessError(f"port rate must be a positive int, got {rate!r}")
        self.rate = rate

    def set_delay(self, delay: int) -> None:
        """Declare the number of initial (delay) samples on this port."""
        if not isinstance(delay, int) or delay < 0:
            raise PortAccessError(f"port delay must be a non-negative int, got {delay!r}")
        self.delay = delay

    def set_timestep(self, timestep: ScaTime) -> None:
        """Pin the sample period of this port."""
        if not isinstance(timestep, ScaTime) or timestep.femtoseconds <= 0:
            raise PortAccessError(f"port timestep must be a positive ScaTime, got {timestep!r}")
        self.requested_timestep = timestep

    def set_initial_value(self, value: Any) -> None:
        """Set the value returned for all delay samples of this port."""
        self.initial_values = [value] * max(self.delay, 1)

    def set_initial_values(self, values: List[Any]) -> None:
        """Set per-sample delay values (in production order)."""
        self.initial_values = list(values)

    # -- binding -----------------------------------------------------------

    def bind(self, signal: Signal) -> None:
        """Connect this port to ``signal``; records the call site."""
        if self.signal is not None and self.signal is not signal:
            raise BindingError(
                f"port {self.full_name()} already bound to signal "
                f"{self.signal.name!r}"
            )
        self.signal = signal
        self.bind_site = _capture_bind_site()
        self._attach(signal)

    def _attach(self, signal: Signal) -> None:
        raise NotImplementedError

    @property
    def bound(self) -> bool:
        """Whether the port has been bound to a signal."""
        return self.signal is not None

    def full_name(self) -> str:
        """Hierarchical ``module.port`` name."""
        owner = self.module.name if self.module is not None else "<unbound>"
        return f"{owner}.{self.name or '<anon>'}"

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.full_name()}, rate={self.rate}, "
            f"delay={self.delay})"
        )


class TdfIn(Port):
    """TDF input port (``sca_tdf::sca_in`` analogue)."""

    __slots__ = ("_in_activation", "_cursor")

    direction = "in"

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._in_activation = False
        #: Global index of the next token this reader consumes; negative
        #: cursors address initial (delay) values.  Set by the signal.
        self._cursor = 0

    def _attach(self, signal: Signal) -> None:
        signal.attach_reader(self)

    # -- kernel interface ---------------------------------------------------

    def _begin_activation(self) -> None:
        self._in_activation = True

    def _end_activation(self) -> None:
        """Advance past this activation's samples."""
        self._in_activation = False
        assert self.signal is not None
        self._cursor += self.rate
        self.signal._collect_garbage()

    def global_index(self, offset: int = 0) -> int:
        """Global token index of sample ``offset`` of the current activation."""
        return self._cursor + offset

    # -- user interface -------------------------------------------------------

    def read(self, offset: int = 0) -> Any:
        """Read sample ``offset`` (``0 .. rate-1``) of the current activation.

        Reading is non-destructive within the activation: the same
        sample may be read any number of times.
        """
        sig = self.signal
        if sig is None:
            raise PortAccessError(f"read from unbound port {self.full_name()}")
        if not self._in_activation:
            raise PortAccessError(
                f"port {self.full_name()} read outside of processing()"
            )
        if offset and not 0 <= offset < self.rate:
            raise PortAccessError(
                f"sample offset {offset} out of range for port "
                f"{self.full_name()} with rate {self.rate}"
            )
        if sig.driver is None:
            # Undriven signal: undefined behaviour per the SystemC-AMS
            # standard.  The kernel yields the signal's initial value so
            # the simulation proceeds; the dynamic analysis reports the
            # read as a use-without-def.
            return sig.initial_value
        index = self._cursor + offset
        # The in-buffer fast path; the delay region and the bounds
        # diagnostics take _value_at.
        i = index - sig._base_index
        if i >= 0:
            try:
                return sig._tokens[i]
            except IndexError:
                pass
        return sig._value_at(index, self)

    def __call__(self, offset: int = 0) -> Any:
        """Alias for :meth:`read` (matches ``port.read()`` shorthand)."""
        return self.read(offset)


class TdfOut(Port):
    """TDF output port (``sca_tdf::sca_out`` analogue)."""

    __slots__ = (
        "_pending",
        "_flushed",
        "_in_activation",
        "_last_value",
    )

    direction = "out"

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._pending: List[Tuple[int, Any]] = []
        self._flushed = 0
        self._in_activation = False
        self._last_value: Any = None

    def _attach(self, signal: Signal) -> None:
        signal.attach_driver(self)

    # -- kernel interface ---------------------------------------------------

    def _reset(self) -> None:
        self._pending.clear()
        self._flushed = 0
        if self.signal is not None:
            self._last_value = self.signal.initial_value
            if self.delay > 0:
                self.signal.prime_output_delay(self.delay, self.initial_values)
                self._flushed = self.delay
                if self.initial_values:
                    self._last_value = self.initial_values[-1]

    def _begin_activation(self) -> None:
        self._in_activation = True
        self._pending.clear()

    def _end_activation(self) -> None:
        """Flush this activation's samples to the signal in index order.

        Samples the module did not write repeat the most recent written
        value (sample-and-hold) — this is what lets a TDF model "halt"
        its output by skipping the write, as the paper's temperature
        sensor does while held (Fig. 2, line 7).
        """
        self._in_activation = False
        assert self.signal is not None
        values = dict(self._pending)  # the last write of an offset wins
        for i in range(self.rate):
            value = values.get(i, self._last_value)
            self._last_value = value
            self.signal.write(value)
        self._flushed += self.rate
        self._pending.clear()

    # -- user interface -------------------------------------------------------

    def write(self, value: Any, offset: int = 0) -> int:
        """Write sample ``offset`` of the current activation.

        Returns the global token index the sample will occupy.  Writing
        the same offset twice overwrites the earlier value.
        """
        if self.signal is None:
            raise PortAccessError(f"write to unbound port {self.full_name()}")
        if not self._in_activation:
            raise PortAccessError(
                f"port {self.full_name()} written outside of processing()"
            )
        if offset and not 0 <= offset < self.rate:
            raise PortAccessError(
                f"sample offset {offset} out of range for port "
                f"{self.full_name()} with rate {self.rate}"
            )
        self._pending.append((offset, value))
        return self._flushed + offset
