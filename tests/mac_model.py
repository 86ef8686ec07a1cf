"""Scalar model of the accuracy-reconfigurable multiply-accumulate unit.

The tests' oracle for the batched band engine in `arsc.dct`. The MAC
truncates its inputs to the selected run-time bit-width, feeds
magnitudes through the counter-based multiplier, resolves signs with an
XOR, accumulates exactly in a wide signed register, and finally pads the
result back to the input width so downstream stages see a constant
format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from arsc.mac import AccuracySelect
from arsc.sc_core import UnsignedFixed, cbsc_multiply


@dataclass(frozen=True, eq=False)
class SignMagnitude:
    """Signed fixed-point sample: value = sign * mag.raw / 2**width.

    Negative zero is permitted and compares equal to positive zero.
    Magnitude raw = 2**width (value exactly +-1.0) is legal only for
    unit-weight coefficients, never for data samples.
    """

    sign: int
    mag: UnsignedFixed

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def width(self) -> int:
        return self.mag.width

    @property
    def value(self) -> float:
        return self.sign * (self.mag.raw / (1 << self.mag.width))

    @classmethod
    def from_float(cls, v: float, width: int = 10) -> "SignMagnitude":
        """Round-to-nearest encoding (ties away from zero)."""
        sign = 1 if v >= 0 else -1
        raw = int(abs(v) * (1 << width) + 0.5)
        if raw > (1 << width):
            raise ValueError(f"{v} out of representable range [-1, 1]")
        return cls(sign, UnsignedFixed(width, raw))

    def __eq__(self, other):
        if not isinstance(other, SignMagnitude):
            return NotImplemented
        if self.width != other.width or self.mag.raw != other.mag.raw:
            return False
        return self.mag.raw == 0 or self.sign == other.sign

    def __hash__(self):
        return hash((self.width, self.mag.raw, self.sign if self.mag.raw else 1))

    def __neg__(self) -> "SignMagnitude":
        return SignMagnitude(-self.sign, self.mag)

    def __repr__(self):
        return f"SignMagnitude({'+' if self.sign > 0 else '-'}{self.mag.raw}/2^{self.width})"


@dataclass(frozen=True)
class MacResult:
    """MAC output plus cycle accounting.

    cycles_data is the data-dependent count (weights actually consumed);
    cycles_fixed is the worst-case schedule n_terms * 2**b charged by
    the timing model. cycles_data <= cycles_fixed always.
    """

    value: SignMagnitude
    cycles_data: int
    cycles_fixed: int
    clamped: bool


def truncate(x: SignMagnitude, sel: AccuracySelect) -> SignMagnitude:
    """Drop least-significant magnitude bits down to the selected width.

    The sign bit is kept; the value error is below 2**-b.
    """
    b = sel.bitwidth
    if b > x.width:
        raise ValueError(f"cannot truncate {x.width}-bit sample to {b} bits")
    return SignMagnitude(x.sign, UnsignedFixed(b, x.mag.raw >> (x.width - b)))


def restore_width(p: SignMagnitude, m: int) -> SignMagnitude:
    """Append zeros on the LSB side to widen back to m bits; value unchanged."""
    if p.width > m:
        raise ValueError(f"cannot restore {p.width}-bit value to narrower width {m}")
    return SignMagnitude(p.sign, UnsignedFixed(m, p.mag.raw << (m - p.width)))


class SignedProduct(NamedTuple):
    value: int
    cycles: int


def signed_product(x: SignMagnitude, c: SignMagnitude) -> SignedProduct:
    """One multiplier lane: counter-based magnitude product, XOR'd signs.

    The coefficient magnitude raw is consumed directly as the scaled
    weight, so c.mag.raw == 2**b (unit weight) is accepted.
    """
    if x.width != c.width:
        raise ValueError(f"width mismatch: {x.width} vs {c.width}")
    product, cycles = cbsc_multiply(x.mag, c.mag.raw)
    return SignedProduct((x.sign * c.sign) * product, cycles)


def _quantize_weight(c: SignMagnitude, b: int) -> int:
    # round(|c| * 2**b) in exact integer arithmetic, ties away from zero
    num = c.mag.raw << (b + 1)
    den = 1 << (c.width + 1)
    return (num + (den >> 1)) // den


def mac(
    xs: Sequence[SignMagnitude],
    cs: Sequence[SignMagnitude],
    sel: AccuracySelect,
    result_shift: int = 0,
) -> MacResult:
    """Multiply-accumulate a sample vector against a coefficient vector.

    Each sample is truncated to the selected width b, each coefficient
    magnitude is quantized to w_s = round(|c| * 2**b), and the signed
    counter-based products are summed in an exact accumulator. The sum,
    renormalized by 2**b, is clamped to (-1, 1) (clamped flag reports
    saturation) and padded back to the input width.

    result_shift scales the accumulated value by 2**-result_shift
    before clamping (floor on the magnitude); the DCT stages use it for
    their inter-stage range management. Zero-magnitude lanes consume no
    data cycles, matching a down-counter that finishes immediately.
    """
    if len(xs) == 0:
        raise ValueError("MAC needs at least one term")
    if len(xs) != len(cs):
        raise ValueError(f"term count mismatch: {len(xs)} samples vs {len(cs)} coefficients")
    m = xs[0].width
    if any(x.width != m for x in xs):
        raise ValueError("all samples must share one width")
    b = sel.bitwidth

    acc = 0
    cycles_data = 0
    for x, c in zip(xs, cs):
        xt = truncate(x, sel)
        w_s = _quantize_weight(c, b)
        coeff_b = SignMagnitude(c.sign, UnsignedFixed(b, w_s))
        p, cycles = signed_product(xt, coeff_b)
        acc += p
        if xt.mag.raw != 0 and w_s != 0:
            cycles_data += cycles

    sign = 1 if acc >= 0 else -1
    mag = abs(acc)
    if result_shift >= 0:
        mag >>= result_shift
    else:
        mag <<= -result_shift
    clamped = mag >= (1 << b)
    if clamped:
        mag = (1 << b) - 1
    value = restore_width(SignMagnitude(sign, UnsignedFixed(b, mag)), m)
    return MacResult(value, cycles_data, len(xs) * (1 << b), clamped)
