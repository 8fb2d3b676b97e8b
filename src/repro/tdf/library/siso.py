"""Redefining single-input single-output library elements.

Paper §IV-B limits signal *redefinition* to SystemC-AMS library SISO
components: a **delay** element outputs an earlier sample instead of the
current one, and a **gain**/**buffer** element amplifies or regenerates
the signal.  Data flowing through any of these counts as redefined,
which is what turns a port-level association into *PFirm* (original and
redefined branch meet in the same model) or *PWeak* (only redefined
branches arrive).

All three classes set ``REDEFINING = True`` and ``OPAQUE_USES = True``:
the static analysis does not look inside them; their definition/use
anchors are the netlist bind sites of their ports (paper §V).
"""

from __future__ import annotations

from ..module import TdfModule
from ..ports import TdfIn, TdfOut


class GainTdf(TdfModule):
    """Amplifies the input by a constant factor (``sca_tdf::sca_gain``)."""

    REDEFINING = True
    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str, gain: float = 1.0) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_gain = float(gain)

    def processing(self) -> None:
        self.op.write(self.ip.read() * self.m_gain)

    def processing_block(self, block) -> None:
        gain = self.m_gain
        block.write(self.op, [v * gain for v in block.read(self.ip)])


class DelayTdf(TdfModule):
    """Delays the input by ``delay`` samples (the ``Z^-1`` element).

    Implemented with an output-port delay: the port emits ``delay``
    initial samples (``initial_value``) before the first computed one,
    which also makes the element usable to break feedback loops.
    """

    REDEFINING = True
    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str, delay: int = 1, initial_value: float = 0.0) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_delay = int(delay)
        self.m_initial = float(initial_value)

    def set_attributes(self) -> None:
        self.op.set_delay(self.m_delay)
        self.op.set_initial_value(self.m_initial)

    def processing(self) -> None:
        self.op.write(self.ip.read())

    def processing_block(self, block) -> None:
        block.write(self.op, block.read(self.ip))


class BufferTdf(TdfModule):
    """Regenerates the input signal unchanged (unit buffer)."""

    REDEFINING = True
    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def processing(self) -> None:
        self.op.write(self.ip.read())

    def processing_block(self, block) -> None:
        block.write(self.op, block.read(self.ip))
