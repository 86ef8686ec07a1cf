"""8-point DCT/IDCT image pipeline on the reconfigurable MAC.

band_pass is the one pipeline entry point: one pass over raster bands of
whole block rows, shared by every bit-width, returns exact integer cycles,
clamps and squared errors per width. The fixed-point path reproduces the
sign-magnitude MAC unit bit for bit (its scalar model is the tests' oracle,
tests/mac_model.py). Each 1D stage reads its lanes as the leading axis of a
view of the band and sums, in int16, one gathered row of counter-based
products per sample and lane, next stage's lanes first. A stage's cached
table (_stage_rows) is indexed by the raw pixel, the sample trunc(sum / 4) of the
last stage's sum (_samples) or, into stage 4, that sum offset in place, saturation
folded in; stage 4's sums become pixels by exact arithmetic. Stages run only the
coefficient rows and columns holding a kept one of the frequency mask, and
only inverse sums count clamps (see _fixed_band). A float64 path of the same
structure, one GEMM per matrix product over pieces of whole block rows in scratch of
its own, is the accuracy reference; with every coefficient kept it returns its input, so
an all-pass band_pass runs none.
Every 1D stage output is scaled by 1/4 before buffering (and re-amplified by
4 in the inverse stages) so that all multiplier operands stay inside [0, 1);
the net gain is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mac import AccuracySelect
from .sc_core import prefix_ones_table

N = 8
SAMPLE_WIDTH = 10          # m: buffer width of every pipeline stage
INTER_STAGE_SHIFT = 2      # divide by 4 between 1D stages
PIXEL_SHIFT = SAMPLE_WIDTH - 8  # pixel p maps to raw p << PIXEL_SHIFT (p/256)
PARALLELISM = 8            # pixels fed to the transform block per cycle


@lru_cache(maxsize=None)
def dct_basis() -> np.ndarray:
    """Orthonormal 8-point DCT-II matrix C.

    Row 0 is 1/sqrt(8); row k >= 1 is sqrt(2/8) * cos((2i+1) k pi / 16).
    The inverse transform is C transposed.
    """
    c = np.zeros((N, N))
    c[0, :] = 1.0 / math.sqrt(N)
    for k in range(1, N):
        for i in range(N):
            c[k, i] = math.sqrt(2.0 / N) * math.cos((2 * i + 1) * k * math.pi / (2 * N))
    c.setflags(write=False)
    return c


# dct_basis() transposed, C-contiguous: a GEMM multiplies by it faster than by the .T view
_BASIS_T = np.ascontiguousarray(dct_basis().T)


def dct1d_ref(a) -> np.ndarray:
    """Reference forward 1D transform (float64)."""
    return dct_basis() @ np.asarray(a, dtype=np.float64)


def idct1d_ref(f) -> np.ndarray:
    """Reference inverse 1D transform (float64)."""
    return dct_basis().T @ np.asarray(f, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class FrequencyMask:
    """Binary 8x8 frequency-domain mask: 1 keeps a coefficient, 0 zeroes it.

    kept_rows and kept_cols list the rows (vertical frequencies) and columns
    (horizontal frequencies) holding a 1; kept_block is the mask on them."""

    m: np.ndarray  # (8, 8) read-only int16; given as any numbers equal to 0 or 1
    kept_rows: tuple[int, ...] = field(init=False, repr=False)
    kept_cols: tuple[int, ...] = field(init=False, repr=False)
    kept_block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.m)
        if m.shape != (N, N):
            raise ValueError(f"mask must be 8x8, got {m.shape}")
        if m.dtype.kind not in "biuf" or not np.all((m == 0) | (m == 1)):
            raise ValueError("mask entries must be 0 or 1")
        m = m.astype(np.int16)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
        object.__setattr__(self, "kept_rows", tuple(rows.tolist()))
        object.__setattr__(self, "kept_cols", tuple(cols.tolist()))
        object.__setattr__(self, "kept_block", m[np.ix_(rows, cols)])
        self.kept_block.setflags(write=False)

    @classmethod
    def allpass(cls) -> "FrequencyMask":
        return cls(np.ones((N, N), dtype=np.int64))

    @classmethod
    def lowpass(cls, k: int) -> "FrequencyMask":
        """Zonal low-pass: keep coefficients with both indices below k."""
        if not 1 <= k <= N:
            raise ValueError(f"lowpass corner {k} out of range 1..8")
        m = np.zeros((N, N), dtype=np.int64)
        m[:k, :k] = 1
        return cls(m)

    def __eq__(self, other):
        if not isinstance(other, FrequencyMask):
            return NotImplemented
        return bool(np.array_equal(self.m, other.m))


# multiplier slots of one 2D transform (2 stages x 8 vectors x 8 MACs x
# 8 terms), each charged the fixed 2**b-cycle schedule
_TRANSFORM_SLOTS = 2 * N * N * N
_ALL = tuple(range(N))  # every lane or output of a stage
# blocks per band of whole block rows: ≈0.6 KB of fixed-point temporaries per block, and
# 0.5 KB of float scratch (reference pieces of half as many blocks) freed before them.
# 1024 beat 512 with both masks at 256² and 1024²
CHUNK_BLOCKS = 1024


def _product_rows(b: int, inverse: bool, outs: tuple[int, ...]) -> np.ndarray:
    """Counter-based product rows of outputs `outs` of one direction at width b.

    Row sv + 2**b - 1 of lane i is one void scalar of the int16 products
    sign(sv) * sign(c[k, i]) * prefix_ones(|sv|, b, round(|c[k, i]| * 2**b)) of a
    signed b-bit sample sv for k in `outs`, in that order, zero-padded to 1, 2, 4 or 8
    products, the row sizes that ndarray.take copies fastest; c is the basis, transposed
    if inverse. Uncached: see _stage_rows."""
    c = dct_basis().T if inverse else dct_basis()
    coeffs = np.zeros((1 << (len(outs) - 1).bit_length(), N))  # padding weighs 0
    coeffs[:len(outs)] = c[list(outs)]
    # round(|c| * 2**b), ties away from zero
    weights = np.floor(np.abs(coeffs) * (1 << b) + 0.5).astype(np.int64)
    prod = prefix_ones_table(b, weights.T) * np.where(coeffs.T < 0, np.int16(-1), np.int16(1))
    signed = np.concatenate([-prod[:0:-1], prod])  # int16 [sv, lane i, k]
    rows = signed.swapaxes(0, 1).copy().view(np.dtype((np.void, 2 * len(coeffs))))  # lane-major
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _stage_rows(b: int, stage: int, outs: tuple[int, ...] = _ALL):
    """(table, lo) of MAC stage 1 to 4 at width b for outputs outs: _product_rows (forward,
    inverse from stage 3) in row acc - lo at the sample of acc, which is a pixel, sampled
    (acc << 2) >> (10 - b), a sample (stages 2, 3: _samples) or a sum, saturated:
    sign(acc) * min(|acc| << 2, 2**b - 1). The rows span [0, 255], the samples of the
    all-pass last stage's reach, which holds every mask's, or |acc| <= 2**(b-2), clipping."""
    lo, hi = (0, 255) if stage == 1 else (-(1 << (b - 2)), 1 << (b - 2))
    if stage in (2, 3):  # uncached: a lowpass-only run keeps no all-pass table
        p = _stage_rows.__wrapped__(b, stage - 1, _ALL)[0].view(np.int16)  # [lane, row, output]
        lo, hi = int(p.min(axis=1).sum(axis=0).min()), int(p.max(axis=1).sum(axis=0).max())
        lo, hi = -(-lo >> INTER_STAGE_SHIFT), hi >> INTER_STAGE_SHIFT  # trunc: lo <= 0 <= hi
    acc = np.arange(lo, hi + 1)
    sv = ((acc << PIXEL_SHIFT) >> (SAMPLE_WIDTH - b) if stage == 1 else acc if stage < 4
          else np.sign(acc) * np.minimum(np.abs(acc) << INTER_STAGE_SHIFT, (1 << b) - 1))
    table = _product_rows(b, stage > 2, outs)[:, sv + (1 << b) - 1]
    table.setflags(write=False)
    return table, lo


def _clamps(acc: np.ndarray, b: int) -> int:
    """Inverse-stage sums of acc that saturate: |acc| > 2**(b-2) - 1."""
    return int(np.count_nonzero(np.abs(acc) > (1 << (b - 2)) - 1))


def _samples(acc: np.ndarray, lo: int) -> np.ndarray:
    """Row indices trunc(acc / 4) - lo of int16 sums acc, |acc| < 2**14, in a new array:
    (acc + 3) >> 2 where acc < 0, acc >> 2 elsewhere, in four whole-array passes."""
    idx = np.right_shift(acc.view(np.uint16), 14).view(np.int16)  # 3 where acc < 0
    np.right_shift(np.add(idx, acc, out=idx), INTER_STAGE_SHIFT, out=idx)
    return np.subtract(idx, lo, out=idx)


def _to_pixels(acc: np.ndarray, b: int) -> np.ndarray:
    """Pixels of stage-4 sums acc, in place: clip(acc << (10-b), 0, ((2**b-1) << (10-b)) >> 2)."""
    np.left_shift(acc, SAMPLE_WIDTH - b, out=acc)
    return np.clip(acc, 0, ((1 << b) - 1 << (SAMPLE_WIDTH - b)) >> PIXEL_SHIFT, out=acc)


def _stage(idx: np.ndarray, rows: np.ndarray, lanes: tuple[int, ...]) -> np.ndarray:
    """int16 [*idx.shape[1:], product] sums of one 1D MAC stage: the product rows of
    lane lanes[p] gathered at row indices idx[p], clipped to the table (only stage 4's
    pass its ends), and added over p, exactly: |sum| <= 8 * 2**b <= 8192."""
    acc = rows[lanes[0]].take(idx[0], mode="clip").view(np.int16)
    for p in range(1, len(lanes)):
        acc += rows[lanes[p]].take(idx[p], mode="clip").view(np.int16)
    return acc.reshape(*idx.shape[1:], -1)


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale image."""

    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("image must be a nonempty 2D pixel array")
        if self.pixels.dtype != np.uint8:
            raise ValueError("image pixels must be uint8")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))


def _sse(a: np.ndarray, b: np.ndarray) -> int:
    """Exact integer sum of squared differences of two uint8 arrays."""
    d = (np.maximum(a, b) - np.minimum(a, b)).astype(np.uint16).ravel()
    np.multiply(d, d, out=d)  # <= 255**2: exact in uint16
    # 2**16 squares sum to less than 2**32: exact in uint32
    return sum(int(d[i:i + (1 << 16)].sum(dtype=np.uint32)) for i in range(0, d.size, 1 << 16))


def _psnr_db(sse: int, pixels: int) -> float:
    """PSNR in dB of a summed squared error over a pixel count; 0 gives inf."""
    return math.inf if sse == 0 else 10.0 * math.log10(255.0 * 255.0 / (sse / pixels))


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; identical images report inf."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(f"dimension mismatch: {a.pixels.shape} vs {b.pixels.shape}")
    return _psnr_db(_sse(a.pixels, b.pixels), a.pixels.size)


@dataclass(frozen=True)
class WidthReport:
    """One bit-width's run over an image in exact integers: fixed MAC cycles over
    PARALLELISM pixels a cycle, clamps, and the output's summed squared errors."""

    bitwidth: int
    pixels: int
    total_cycles_fixed: int
    clamp_count: int
    sse_input: int
    sse_reference: int  # against the float reference
    psnr_vs_input = property(lambda self: _psnr_db(self.sse_input, self.pixels))
    psnr_vs_reference = property(lambda self: _psnr_db(self.sse_reference, self.pixels))


@dataclass(frozen=True)
class PipelineReport(WidthReport):
    output: GrayImage  # the WidthReport's output image


def _pad(pixels: np.ndarray) -> np.ndarray:
    """The raster edge-padded to whole 8x8 blocks; a block-aligned one as it is."""
    h, w = pixels.shape
    if h % N or w % N:  # np.pad copies even when there is nothing to pad
        return np.pad(pixels, ((0, -h % N), (0, -w % N)), mode="edge")
    return pixels


def _band_rows(width: int, blocks: int) -> int:
    """Rows of a piece of about `blocks` blocks at this width, whole block rows, at least one."""
    return N * max(1, blocks // -(-width // N))


def _bands(pixels: np.ndarray):
    """bands(rows) of an in-memory raster, as pgm_reader's: its bands of `rows` rows."""
    return lambda rows: (pixels[y:y + rows] for y in range(0, len(pixels), rows))


def _fixed_band(band: np.ndarray, b: int, mask: FrequencyMask):
    """Fixed-point pipeline of a padded raster band at width b: (its pixels, clamps).

    Forward stage 2 runs only the kept rows' vectors, and the inverse stages
    skip the lanes that zeroed coefficients and vectors feed, which add 0.
    Stages 2 and 3 gather at the samples of the last sums (_samples), on tables over
    the samples of the all-pass stage-1 and stage-2 reaches ([-361, 722] and [-384, 512]
    at b=10), which hold every mask's; stage 4 at the sums offset in place, over
    |sum| <= 2**(b-2), clipped: a larger |sum| saturates. Pixels are
    clip(sum << (10 - b), 0, ((2**b - 1) << (10 - b)) >> 2). Only inverse sums
    count clamps, |sum| > 2**(b-2) - 1: no forward |sum| passes 2896 * 2**(b-10).
    """
    rows, cols = mask.kept_rows, mask.kept_cols
    if not rows:
        return np.zeros(band.shape, dtype=np.uint8), 0
    second, lo2 = _stage_rows(b, 2, cols)
    (third, lo3), (fourth, lo4) = _stage_rows(b, 3), _stage_rows(b, 4)
    # pixel [r, i, c, j] of the band is sample i of the vector [j, r, c]
    acc = _stage(band.reshape(-1, N, band.shape[1] // N, N).transpose(1, 3, 0, 2),
                 _stage_rows(b, 1, rows)[0], _ALL)  # [j, r, c, row k]
    acc = _stage(_samples(acc[..., :len(rows)], lo2), second, _ALL)  # [r, c, k, column l]
    x = _samples(acc[..., :len(cols)], lo3).transpose(3, 2, 0, 1)  # [l, k, r, c]
    if not mask.kept_block.all():  # a zeroed coefficient is the sample 0
        np.copyto(x, -lo3, where=mask.kept_block.T[..., None, None] == 0)
    acc = _stage(x, third, cols)  # [k, r, c, pixel column j]
    clamps = _clamps(acc, b)
    acc -= lo4
    acc = _stage(acc, fourth, rows)  # [r, c, j, pixel row i]
    clamps += _clamps(acc, b)
    pixels = _to_pixels(acc, b).transpose(0, 3, 1, 2).astype(np.uint8)
    return pixels.reshape(band.shape), clamps


def _reference_band(band: np.ndarray, mask: FrequencyMask) -> np.ndarray:
    """Float64 pipeline of a padded raster of any height: its pixels. It runs over pieces
    of _band_rows(width, CHUNK_BLOCKS // 2) rows (half-band pieces took no longer than
    whole bands, quarters 1 to 4 % longer), in float64 scratch of one piece for the
    products, freed on return: its memory beyond its output is bounded at any height."""
    c, m = dct_basis(), mask.m.astype(np.float64)[:, None, :]
    width, rows = band.shape[1], min(len(band), _band_rows(band.shape[1], CHUNK_BLOCKS // 2))
    work = np.empty(2 * rows * width)
    out = np.empty_like(band)
    for top in range(0, len(band), rows):
        piece = band[top:top + rows]
        # x and y take turns as the input and the output of one GEMM per product over
        # [row, block, column]; p/256 is exact, so left out
        x, y = work[:2 * piece.size].reshape(2, N, -1)
        raster = x.reshape(N, -1, width)  # [pixel row of a block, block row, column]
        np.copyto(raster, piece.reshape(-1, N, width).swapaxes(0, 1))
        np.matmul(c, x, out=y)
        np.matmul(y.reshape(-1, N), _BASIS_T, out=x.reshape(-1, N))
        x.reshape(N, -1, N)[...] *= m
        np.matmul(_BASIS_T, x, out=y)
        np.matmul(y.reshape(-1, N), c, out=x.reshape(-1, N))
        # negatives clip to 0 and the cast truncates, so x + 0.5 rounds to nearest. At an
        # exact k + 1/2 the last bit of the GEMM chain decides, so the BLAS kernel does
        np.clip(np.add(x, 0.5, out=x), 0, 255, out=x)
        np.copyto(out[top:top + rows].reshape(-1, N, width).swapaxes(0, 1), raster,
                  casting="unsafe")
    return out


def reference_pipeline(img: GrayImage, mask: FrequencyMask) -> GrayImage:
    """Float64 pipeline with the same blocks and mask; the accuracy baseline."""
    return GrayImage(_reference_band(_pad(img.pixels), mask)[:img.height, :img.width])


def band_pass(width: int, bands, widths, mask: FrequencyMask, sink=None) -> list[WidthReport]:
    """One WidthReport per bit-width in `widths` of one pass over a raster `width` pixels
    wide, which bands(rows) yields top to bottom in bands of `rows` rows (pgm_reader's
    contract); the pass picks the rows and holds no buffer from band to band. Each band
    is edge-padded to 8x8 blocks and run through the float reference once, then through
    the fixed-point pipeline at each width, whose output rows from image row y go to
    sink(k, y, rows) (k indexes `widths`) if given, valid only during the call. With
    every coefficient kept, the float pipeline returns its input (|error| < 1e-12
    against 0.5), so all-pass runs no reference and its SSE against the reference is
    the SSE against the input."""
    h, allpass = 0, bool(mask.m.all())
    totals = np.zeros((len(widths), 3), dtype=np.int64)  # clamps, SSE vs input, vs reference
    for band in bands(_band_rows(width, CHUNK_BLOCKS)):
        padded = _pad(band)
        if not allpass:
            ref = _reference_band(padded, mask)[:len(band), :width]
        for k, b in enumerate(widths):
            pixels, count = _fixed_band(padded, b, mask)
            got = pixels[:len(band), :width]
            if sink:
                sink(k, h, got)
            sse = _sse(got, band)
            totals[k] += count, sse, sse if allpass else _sse(got, ref)
        h += len(band)
    slots = -(-h // N) * -(-width // N) * 2 * _TRANSFORM_SLOTS  # forward + inverse
    return [WidthReport(b, h * width, (slots << b) // PARALLELISM, *t)
            for b, t in zip(widths, totals.tolist())]


def process_image(img: GrayImage, sel: AccuracySelect, mask: FrequencyMask) -> PipelineReport:
    """band_pass over a whole image at one width, into one output image."""
    out = np.empty_like(img.pixels)
    [report] = band_pass(img.width, _bands(img.pixels), [sel.bitwidth], mask,
                         lambda k, y, rows: np.copyto(out[y:y + len(rows)], rows))
    return PipelineReport(**vars(report), output=GrayImage(out))
