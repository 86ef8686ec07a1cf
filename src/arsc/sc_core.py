"""Bit-exact stochastic number generation and arithmetic.

Models the two multiplier families used by the reconfigurable DCT
pipeline: the conventional stochastic multiplier (LFSR stream
generation, AND gate, counter readout) and the counter-based
multiplier, which pairs a deterministically generated bitstream with
a unary weight stream and counts ones only while the weight
down-counter runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Maximal-length Fibonacci taps, one primitive polynomial per register
# width. The full period 2**width - 1 is verified exhaustively for every
# entry by the test suite.
MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
}

# Alternate primitive polynomials for the same widths, used when two
# decorrelated generators are needed at once (one per operand of the
# conventional multiplier). Periods verified alongside MAXIMAL_TAPS.
ALTERNATE_TAPS: dict[int, tuple[int, ...]] = {
    3: (3, 1),
    4: (4, 1),
    5: (5, 2),
    6: (6, 1),
    7: (7, 1),
    8: (8, 4, 3, 2),
    9: (9, 4),
    10: (10, 3),
}


@dataclass(frozen=True)
class UnsignedFixed:
    """n-bit fixed-point magnitude representing ``raw / 2**width``.

    ``raw == 2**width`` (value exactly 1.0) is legal only for scaled
    weights; stream generation rejects it.
    """

    width: int
    raw: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.raw <= (1 << self.width):
            raise ValueError(
                f"raw {self.raw} out of range for {self.width}-bit magnitude"
            )


@dataclass(frozen=True)
class LfsrConfig:
    """Fibonacci LFSR parameters: register width, feedback taps, seed.

    Taps are polynomial degrees (1-indexed, the width itself included);
    an empty tap tuple selects the bundled maximal-length set.
    """

    width: int
    taps: tuple[int, ...] = ()
    seed: int = 1

    def __post_init__(self):
        if self.width not in MAXIMAL_TAPS:
            raise ValueError(f"unsupported LFSR width {self.width}; "
                             f"supported {min(MAXIMAL_TAPS)}..{max(MAXIMAL_TAPS)}")
        taps = tuple(self.taps) or MAXIMAL_TAPS[self.width]
        taps = tuple(sorted(set(taps), reverse=True))
        if min(taps) < 1 or max(taps) != self.width:
            raise ValueError("taps must be degrees 1..width and include the width")
        object.__setattr__(self, "taps", taps)
        if not 0 < self.seed < (1 << self.width):
            raise ValueError(
                f"seed must satisfy 0 < seed < 2**{self.width} (zero locks up)"
            )


def lfsr_states_array(cfg: LfsrConfig, count: int) -> np.ndarray:
    """The first ``count`` register states from the seed, as an intp array: the
    next-state table of every register value (the tap bits' XOR shifted in),
    built at once, walked by doubling. States [k, 2k) are the k-step successors
    of states [0, k), and the k-step table composed with itself steps 2k."""
    state = np.arange(1 << cfg.width)
    feedback = sum((state >> (tap - 1)) & 1 for tap in cfg.taps) & 1
    jump = ((state << 1) | feedback) & ((1 << cfg.width) - 1)
    out = np.full(count, cfg.seed, dtype=np.intp)
    k = 1
    while k < count:
        out[k:2 * k] = jump[out[:min(k, count - k)]]
        jump, k = jump[jump], 2 * k
    return out


@dataclass(frozen=True)
class BitStream:
    """Ordered bit sequence encoding a stochastic number.

    Bit i of the stream (0-indexed from the first emitted bit) is
    ``(word >> i) & 1``. Length is a power of two. The stream is
    unipolar: it encodes popcount/length in [0, 1].
    """

    length: int
    word: int

    def __post_init__(self):
        if self.length < 2 or self.length & (self.length - 1):
            raise ValueError(f"stream length must be a power of two >= 2, got {self.length}")
        if not 0 <= self.word < (1 << self.length):
            raise ValueError("stream word has bits beyond the stated length")

    @property
    def popcount(self) -> int:
        return self.word.bit_count()


def _pack(bits: np.ndarray) -> BitStream:
    """The stream whose bit i is bits[i] != 0."""
    return BitStream(bits.size, int.from_bytes(np.packbits(bits, bitorder="little"), "little"))


def sng_conventional(x: UnsignedFixed, length: int, cfg: LfsrConfig) -> BitStream:
    """LFSR-plus-comparator stream generator.

    Bit i is 1 iff the i-th LFSR state (starting at the seed) is below
    x.raw. Deterministic for a given seed.
    """
    if x.width != cfg.width:
        raise ValueError(f"operand width {x.width} != LFSR width {cfg.width}")
    return _pack(lfsr_states_array(cfg, length) < x.raw)


def _placement_shifts(n: int) -> np.ndarray:
    """At cycle c = 1..2**n the deterministic stream of an n-bit x emits
    ``x >> shift[c-1] & 1``: x_{n-1-ctz(c)}, and 0 at c = 2**n, where the shift is n."""
    shift = np.full(1 << n, n, dtype=np.int16)
    for j in range(n):  # the cycles c with ctz(c) = j
        shift[(1 << j) - 1::2 << j] = n - 1 - j
    return shift


def sng_deterministic(x: UnsignedFixed) -> BitStream:
    """Deterministic placement-rule stream generator.

    For cycle c = 1..2**n the emitted bit is x_{n-1-ctz(c)} (ctz = count
    of trailing zeros of c); the final cycle, where ctz(c) = n, emits 0
    so the encoded value stays below one. Consequently input bit
    x_{n-i} occupies exactly the 1-indexed positions 2**(i-1) + k*2**i
    and the stream popcount equals x.raw.
    """
    n = x.width
    if x.raw >= (1 << n):
        raise ValueError("operand must be < 1.0 for deterministic generation")
    return _pack(x.raw >> _placement_shifts(n).astype(np.int64) & 1)  # raw may pass int16


def unary_gen(w_s: int, length: int) -> BitStream:
    """Unary weight stream: w_s ones followed by zeros.

    Models the weight generator built from a down-counter and a
    comparator.
    """
    if not 0 <= w_s <= length:
        raise ValueError(f"unary weight {w_s} out of range 0..{length}")
    return BitStream(length, (1 << w_s) - 1)


def and_multiply(a: BitStream, b: BitStream) -> BitStream:
    """Elementwise AND; multiplies two unipolar streams."""
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    return BitStream(a.length, a.word & b.word)


def stream_to_binary(s: BitStream) -> int:
    """Counter readout: the popcount of the stream."""
    return s.popcount


def prefix_ones(raw: int, width: int, count: int) -> int:
    """Ones among the first ``count`` bits of the deterministic stream.

    Closed form of the placement rule: input bit j (weight 2**j) lands
    every 2**(width-j) positions starting at 2**(width-1-j), so its
    occurrences within a prefix of length w number
    (w + 2**(width-1-j)) >> (width-j).
    """
    total = 0
    for j in range(width):
        if (raw >> j) & 1:
            total += (count + (1 << (width - 1 - j))) >> (width - j)
    return total


def prefix_ones_table(width: int, count) -> np.ndarray:
    """``prefix_ones`` of every raw value 0..2**width-1 at each ``count``.

    Entry [raw, *idx] of the ``(2**width, *count.shape)`` int16 result equals
    ``prefix_ones(raw, width, count[idx])`` for counts in 0..2**width; int16
    holds them up to width 14, and wider tables are refused. Built by doubling:
    rows [2**j, 2**(j+1)) are rows [0, 2**j) plus input bit j's closed-form term.
    """
    if width > 14:
        raise ValueError(f"prefix_ones_table width {width} above 14")
    count = np.asarray(count)
    table = np.zeros((1 << width, *count.shape), dtype=np.int16)
    for j in range(width):  # each term fits int16, so no wider temporary
        term = ((count + (1 << (width - 1 - j))) >> (width - j)).astype(np.int16)
        np.add(table[:1 << j], term, out=table[1 << j:2 << j])
    return table


# operand rows per verify_multiplier block, a power of two. At width 10 on a 2-vCPU Xeon
# (best of 150 calls; tracemalloc peak beside the 2.1 MB product table): 32 rows took 5.4 ms
# in 0.7 MB, 64 rows 4.6 ms in 1.3 MB, 128 rows 6.4 ms in 2.5 MB, 256 rows 6.9 ms in 5.0 MB
VERIFY_ROWS = 64


class MultiplierCheck(NamedTuple):
    """Exhaustive check of one operand width n; errors in units of 4**-n."""

    pairs: int  # (x, w) pairs of the counter-based multiplier: x < 2**n, w <= 2**n
    mismatches: int  # pairs whose gate-level count differs from prefix_ones_table
    cbsc_max_err: int  # max of |p * 2**n - x * w|
    cbsc_err_sum: int  # sum of |p * 2**n - x * w| over every pair
    conv_err_sum: int  # sum of |c * 2**n - x * w| over every x, w < 2**n


def verify_multiplier(cfg_x: LfsrConfig, cfg_w: LfsrConfig) -> MultiplierCheck:
    """Check both multipliers on each operand pair at the LFSR width n, exactly.

    The count of each ``sng_deterministic`` stream ANDed with ``unary_gen(w)`` must
    equal the product p, ``prefix_ones_table``. The conventional count c[x, w] =
    #{i : sx_i < x and sw_i < w} is that of two ANDed ``sng_conventional`` streams.
    The kernel and those generators read one LFSR walk, ``lfsr_states_array``, and one
    placement rule, ``_placement_shifts``. Operands run in blocks of VERIFY_ROWS, with
    streams and counts in int16 and errors in int32, summed by int32 rows (int64 rows
    where a block's errors could overflow).
    """
    if (n := cfg_x.width) != cfg_w.width:
        raise ValueError(f"LFSR widths {n}, {cfg_w.width} differ")
    size, rows = 1 << n, min(VERIFY_ROWS, 1 << n)
    w = np.arange(size + 1, dtype=np.int32)
    w16 = w.astype(np.int16)  # every operand and LFSR state is at most 2**10
    product = prefix_ones_table(n, w)
    shift = _placement_shifts(n)
    # samples sorted by x-state: c[x] counts sw_i < w over the first k[x] of them
    sx = lfsr_states_array(cfg_x, size)
    order = np.argsort(sx, kind="stable")
    sw, k = lfsr_states_array(cfg_w, size)[order].astype(np.int16), np.searchsorted(sx[order], w)
    most = int(np.diff(k[::rows]).max())  # rows + 1 where the seed state repeats

    streams, counts, step = np.empty((3, rows, size), dtype=np.int16)
    xw, err = np.multiply.outer(w[:rows], w), np.empty((rows, size + 1), dtype=np.int32)
    scan, spare = np.zeros((2, most + 1, size), dtype=np.int16)  # row 0: c[k[x0]]
    conv = err.reshape(-1)[:rows * size].reshape(rows, size)  # contiguous, unlike err[:, :size]
    mismatches = cbsc_max = cbsc_sum = conv_sum = 0
    for x0 in range(0, size, rows):
        x1 = x0 + rows
        np.bitwise_and(np.right_shift(w16[x0:x1, None], shift, out=streams), 1, out=streams)
        # P[x, w] counts stream x's first w bits for all w iff P[x, 0] = 0 and each increment
        # is the emitted bit. Increments may wrap in int16, but P and every count (0..2**10)
        # then agree mod 2**16 within one int16 range, so are equal; failing rows get counted
        block = product[x0:x1]
        np.subtract(block[:, 1:], block[:, :-1], out=step)
        bad = np.flatnonzero((step != streams).any(axis=1) | (block[:, 0] != 0))
        if bad.size:
            gate = np.cumsum(streams[bad], axis=1, dtype=np.int16)
            mismatches += int(np.count_nonzero(block[bad, 0]))
            mismatches += int(np.count_nonzero(block[bad, 1:] != gate))
        np.left_shift(block, n, out=err, dtype=np.int32)
        np.abs(np.subtract(err, xw, out=err), out=err)
        # int32 sums a row of size + 1 errors <= top below 2**31; edited tables reach ~2**25
        top = int(err.max())
        row_sums = err.sum(axis=1, dtype=np.int32 if top * (size + 1) < 1 << 31 else np.int64)
        cbsc_max, cbsc_sum = max(cbsc_max, top), cbsc_sum + int(row_sums.sum(dtype=np.int64))
        # the block's samples, scanned by doubling from the carried row 0
        m, d = k[x1] - k[x0], 1
        np.less(sw[k[x0]:k[x1], None], w16[:size], out=scan[1:m + 1])
        while d <= m:
            spare[:d] = scan[:d]
            np.add(scan[d:m + 1], scan[:m + 1 - d], out=spare[d:m + 1])
            scan, spare, d = spare, scan, 2 * d
        np.take(scan, k[x0:x1] - k[x0], axis=0, out=counts, mode="clip")
        scan[0] = scan[m]
        np.left_shift(counts, n, out=conv, dtype=np.int32)
        np.abs(np.subtract(conv, xw[:, :size], out=conv), out=conv)
        # counts <= 2**n and x·w < 4**n, so for n <= 10 each row sums below 2**31 in int32
        conv_sum += int(conv.sum(axis=1, dtype=np.int32).sum(dtype=np.int64))
        xw += rows * w  # the next block's x·w
    return MultiplierCheck(size * (size + 1), mismatches, cbsc_max, cbsc_sum, conv_sum)


class CbscResult(NamedTuple):
    product: int
    cycles: int


def cbsc_multiply(x: UnsignedFixed, w_s: int) -> CbscResult:
    """Counter-based multiply: count stream ones while the weight runs.

    Product is the popcount of the first w_s bits of the deterministic
    stream of x, so product / 2**n approximates (x.raw / 2**n) *
    (w_s / 2**n). Cycles reports the data-dependent count w_s; the
    fixed worst-case schedule 2**n per multiply is charged separately
    by the platform timing model.
    """
    n = x.width
    if not 0 <= w_s <= (1 << n):
        raise ValueError(f"scaled weight {w_s} out of range 0..{1 << n}")
    if x.raw >= (1 << n):
        raise ValueError("operand must be < 1.0")
    return CbscResult(prefix_ones(x.raw, n, w_s), w_s)
