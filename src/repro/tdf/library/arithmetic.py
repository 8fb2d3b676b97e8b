"""Arithmetic and threshold library models.

These are *analyzable* library components (their defs/uses participate
in the data-flow analysis like any user model) with input uses anchored
at the netlist (``OPAQUE_USES``).  None of them is a redefining SISO
element in the paper's sense — redefinition is reserved for
gain/delay/buffer (see :mod:`repro.tdf.library.siso`).
"""

from __future__ import annotations

from ..module import TdfModule
from ..ports import TdfIn, TdfOut


class AdderTdf(TdfModule):
    """Writes ``a + b``."""

    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ip_a = TdfIn()
        self.ip_b = TdfIn()
        self.op = TdfOut()

    def processing(self) -> None:
        total = self.ip_a.read() + self.ip_b.read()
        self.op.write(total)

    def processing_block(self, block) -> None:
        a, b = block.read(self.ip_a), block.read(self.ip_b)
        block.write(self.op, [x + y for x, y in zip(a, b)])


class SubtractorTdf(TdfModule):
    """Writes ``a - b``."""

    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ip_a = TdfIn()
        self.ip_b = TdfIn()
        self.op = TdfOut()

    def processing(self) -> None:
        diff = self.ip_a.read() - self.ip_b.read()
        self.op.write(diff)

    def processing_block(self, block) -> None:
        a, b = block.read(self.ip_a), block.read(self.ip_b)
        block.write(self.op, [x - y for x, y in zip(a, b)])


class MultiplierTdf(TdfModule):
    """Writes ``a * b``."""

    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ip_a = TdfIn()
        self.ip_b = TdfIn()
        self.op = TdfOut()

    def processing(self) -> None:
        product = self.ip_a.read() * self.ip_b.read()
        self.op.write(product)

    def processing_block(self, block) -> None:
        a, b = block.read(self.ip_a), block.read(self.ip_b)
        block.write(self.op, [x * y for x, y in zip(a, b)])


class OffsetTdf(TdfModule):
    """Adds a constant offset to the input."""

    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str, offset: float) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_offset = float(offset)

    def processing(self) -> None:
        shifted = self.ip.read() + self.m_offset
        self.op.write(shifted)

    def processing_block(self, block) -> None:
        offset = self.m_offset
        block.write(self.op, [v + offset for v in block.read(self.ip)])


class SaturatorTdf(TdfModule):
    """Clamps the input into ``[lo, hi]``."""

    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str, lo: float, hi: float) -> None:
        super().__init__(name)
        if lo > hi:
            raise ValueError(f"saturator bounds inverted: lo={lo} > hi={hi}")
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_lo = float(lo)
        self.m_hi = float(hi)

    def processing(self) -> None:
        value = self.ip.read()
        if value < self.m_lo:
            value = self.m_lo
        elif value > self.m_hi:
            value = self.m_hi
        self.op.write(value)

    def processing_block(self, block) -> None:
        lo, hi = self.m_lo, self.m_hi
        out = []
        for value in block.read(self.ip):
            if value < lo:
                value = lo
            elif value > hi:
                value = hi
            out.append(value)
        block.write(self.op, out)


class ComparatorTdf(TdfModule):
    """Writes ``True`` when the input exceeds a threshold."""

    OPAQUE_USES = True
    BLOCK_WINDOWABLE = True

    def __init__(self, name: str, threshold: float) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_threshold = float(threshold)

    def processing(self) -> None:
        above = self.ip.read() > self.m_threshold
        self.op.write(above)

    def processing_block(self, block) -> None:
        threshold = self.m_threshold
        block.write(self.op, [v > threshold for v in block.read(self.ip)])


class SchmittTriggerTdf(TdfModule):
    """Comparator with hysteresis: output latches between thresholds."""

    OPAQUE_USES = True

    def __init__(self, name: str, low: float, high: float) -> None:
        super().__init__(name)
        if low >= high:
            raise ValueError(f"Schmitt thresholds inverted: low={low} >= high={high}")
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_low = float(low)
        self.m_high = float(high)
        self.m_state = False

    def processing(self) -> None:
        value = self.ip.read()
        if value >= self.m_high:
            self.m_state = True
        elif value <= self.m_low:
            self.m_state = False
        self.op.write(self.m_state)

    def processing_block(self, block) -> None:
        # Stateful: keep BLOCK_WINDOWABLE False, replay per sample.
        low, high, state = self.m_low, self.m_high, self.m_state
        out = []
        for value in block.read(self.ip):
            if value >= high:
                state = True
            elif value <= low:
                state = False
            out.append(state)
        self.m_state = state
        block.write(self.op, out)
