"""Run-time accuracy selection of the reconfigurable MAC.

A three-bit selection code picks one of five multiplier bit-widths; every
stage of the DCT/IDCT pipeline truncates its samples and quantizes its
coefficients to the selected width.
"""

from __future__ import annotations

from dataclasses import dataclass

# Selectable magnitude widths, largest (most accurate) first.
BITWIDTHS = (10, 9, 8, 7, 6)


@dataclass(frozen=True)
class AccuracySelect:
    """Run-time accuracy selection code; 0 -> 10 bits .. 4 -> 6 bits.

    Five states, so three signal bits suffice in hardware.
    """

    code: int

    def __post_init__(self):
        if not 0 <= self.code <= 4:
            raise ValueError(f"selection code {self.code} out of range 0..4")

    @property
    def bitwidth(self) -> int:
        return BITWIDTHS[self.code]

    @classmethod
    def from_bitwidth(cls, bitwidth: int) -> "AccuracySelect":
        if bitwidth not in BITWIDTHS:
            raise ValueError(f"bitwidth {bitwidth} not in {BITWIDTHS}")
        return cls(BITWIDTHS.index(bitwidth))
