"""8-point DCT/IDCT image pipeline on the reconfigurable MAC.

The fixed-point path reproduces the sign-magnitude MAC unit bit for bit (its
scalar model is the tests' oracle, tests/mac_model.py), over raster bands of
whole block rows that every bit-width shares. Each 1D stage reads its lanes
as the leading axis of a view of the band and sums, in int16, one gathered
row of counter-based products per sample and lane, next stage's lanes first.
Cached tables fold in every elementwise pass: stage 1's rows take the raw
pixel, and saturation tables take each signed sum to the next stage's row
index or to the de-normalised pixel. Stages run only the coefficient rows
and columns that hold a kept one of the frequency mask. Only inverse sums
count clamps: no forward sum can reach the clamp (see _fixed_band). A
float64 path of the same structure, one GEMM per matrix product, is the
accuracy reference. Every 1D stage output is scaled by 1/4 before buffering
(and re-amplified by 4 in the inverse stages) so that all multiplier
operands stay inside [0, 1); the net gain is exactly 1.
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
    def lowpass(cls, k: int = 4) -> "FrequencyMask":
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
_ROW_TYPES = {1: np.int16, 2: np.int32, 4: np.int64, 8: np.complex128}  # by products per row
# blocks per band of whole block rows. Each stage holds about 1.5 KB of
# temporaries per block: smaller bands pay more per-band overhead, larger
# ones outgrow a 2 MB L2 cache (512 beat 256 and 1024 at 256² and 1024²)
CHUNK_BLOCKS = 512


@lru_cache(maxsize=None)
def _product_rows(b: int, inverse: bool, outs: tuple[int, ...]) -> np.ndarray:
    """Counter-based product rows of outputs `outs` of one direction at width b.

    Row sv + 2**b - 1 of lane i is one _ROW_TYPES scalar: the int16 products
    sign(sv) * sign(c[k, i]) * prefix_ones(|sv|, b, round(|c[k, i]| * 2**b)) of a
    signed b-bit sample sv for k in `outs`, in that order, zero-padded to 1, 2, 4
    or 8 products; c is the basis, transposed if inverse."""
    c = dct_basis().T if inverse else dct_basis()
    coeffs = np.zeros((1 << (len(outs) - 1).bit_length(), N))  # padding weighs 0
    coeffs[:len(outs)] = c[list(outs)]
    # round(|c| * 2**b), ties away from zero
    weights = np.floor(np.abs(coeffs) * (1 << b) + 0.5).astype(np.int64)
    prod = prefix_ones_table(b, weights.T) * np.where(coeffs < 0, -1, 1).T  # [|sv|, lane i, k]
    signed = np.concatenate([-prod[:0:-1], prod]).astype(np.int16)
    rows = signed.swapaxes(0, 1).copy().view(_ROW_TYPES[len(coeffs)])  # C order: lanes contiguous
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _pixel_rows(b: int, outs: tuple[int, ...]) -> np.ndarray:
    """_product_rows of forward outputs `outs` at width b, indexed by the raw pixel
    p: a pixel is the 10-bit sample p << PIXEL_SHIFT, truncated to b bits."""
    sv = (np.arange(256) << PIXEL_SHIFT) >> (SAMPLE_WIDTH - b)
    rows = _product_rows(b, False, outs)[:, sv + (1 << b) - 1]
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _saturation(b: int, inverse: bool, pixels: bool = False) -> tuple[np.ndarray, int]:
    """Post table of one direction at width b and the largest |sum| it leaves unclamped.

    Entry acc is the intp row index sv + 2**b - 1 of sv = |acc| >> 2 (<< 2 if
    inverse) clamped to 2**b - 1 and signed as acc, or with `pixels` the uint8
    pixel sv de-normalises to. Every sum in [-8 * 2**b, 8 * 2**b] indexes it."""
    acc = np.arange(-N << b, (N << b) + 1)
    mag = np.abs(acc) << INTER_STAGE_SHIFT if inverse else np.abs(acc) >> INTER_STAGE_SHIFT
    sv = np.sign(acc) * np.minimum(mag, (1 << b) - 1)
    # a pixel step is 4 raw units: the last inverse stage's << 2 makes every
    # unsaturated sample one, and a saturated one clips to 0 or 255 unrounded
    table = (np.clip((sv << (SAMPLE_WIDTH - b)) >> PIXEL_SHIFT, 0, 255).astype(np.uint8)
             if pixels else (sv + (1 << b) - 1).astype(np.intp))
    table = np.roll(table, -(N << b))
    table.setflags(write=False)
    return table, int(np.abs(acc[mag < 1 << b]).max())


def _stage(idx: np.ndarray, rows: np.ndarray, lanes: tuple[int, ...]) -> np.ndarray:
    """int16 [*idx.shape[1:], product] sums of one 1D MAC stage: the product rows of
    lane lanes[p] gathered at row indices idx[p] (contiguous intp, or pixels) and
    added over p, exactly: |sum| <= 8 * 2**b <= 8192."""
    acc = np.take(rows[lanes[0]], idx[0]).view(np.int16)
    for p in range(1, len(lanes)):
        acc += np.take(rows[lanes[p]], idx[p]).view(np.int16)
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
    d = (np.maximum(a, b) - np.minimum(a, b)).astype(np.uint16)
    return int(np.sum(d * d, dtype=np.uint64))  # d * d <= 255**2: exact in uint16


def _psnr_db(sse: int, pixels: int) -> float:
    """PSNR in dB of a summed squared error over a pixel count; 0 gives inf."""
    return math.inf if sse == 0 else 10.0 * math.log10(255.0 * 255.0 / (sse / pixels))


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; identical images report inf."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(f"dimension mismatch: {a.pixels.shape} vs {b.pixels.shape}")
    return _psnr_db(_sse(a.pixels, b.pixels), a.pixels.size)


@dataclass(frozen=True)
class PipelineReport:
    """Whole-image run summary."""

    output: GrayImage
    total_cycles_fixed: int
    clamp_count: int
    psnr_vs_input: float
    psnr_vs_reference: float


def _pad(pixels: np.ndarray) -> np.ndarray:
    """The raster edge-padded to whole 8x8 blocks; a block-aligned one as it is."""
    h, w = pixels.shape
    if h % N or w % N:  # np.pad copies even when there is nothing to pad
        return np.pad(pixels, ((0, -h % N), (0, -w % N)), mode="edge")
    return pixels


def _band_rows(width: int) -> int:
    """Rows of a band of whole block rows at this width: about CHUNK_BLOCKS blocks."""
    return N * max(1, CHUNK_BLOCKS // -(-width // N))


def _bands(pixels: np.ndarray):
    """The raster's bands of _band_rows rows; only the last one is short."""
    step = _band_rows(pixels.shape[1])
    return (pixels[y:y + step] for y in range(0, pixels.shape[0], step))


def _fixed_band(band: np.ndarray, b: int, mask: FrequencyMask):
    """Fixed-point pipeline of a padded raster band at width b: (its pixels, clamps).

    Forward stage 2 runs only the kept rows' vectors, and the inverse stages
    skip the lanes that zeroed coefficients and vectors feed, which add 0.
    Only inverse sums count clamps: a forward sum is at most 2896 * 2**(b-10)
    in magnitude, inside the unclamped 4 * 2**b - 1.
    """
    rows, cols = mask.kept_rows, mask.kept_cols
    if not rows:
        return np.zeros(band.shape, dtype=np.uint8), 0
    forward, inverse = _saturation(b, False)[0], _product_rows(b, True, _ALL)
    post, bound = _saturation(b, True)
    # pixel [r, i, c, j] of the band is sample i of the vector [j, r, c]
    acc = _stage(band.reshape(-1, N, band.shape[1] // N, N).transpose(1, 3, 0, 2),
                 _pixel_rows(b, rows), _ALL)  # [j, r, c, row k]
    acc = _stage(np.take(forward, acc[..., :len(rows)]),
                 _product_rows(b, False, cols), _ALL)  # [r, c, k, column l]
    x = np.take(forward, acc[..., :len(cols)].transpose(3, 2, 0, 1))  # [l, k, r, c]
    if not mask.kept_block.all():  # a zeroed coefficient is the sample 0
        np.copyto(x, (1 << b) - 1, where=mask.kept_block.T[..., None, None] == 0)
    acc = _stage(x, inverse, cols)  # [k, r, c, pixel column j]
    clamps = np.count_nonzero(acc < -bound) + np.count_nonzero(acc > bound)
    acc = _stage(np.take(post, acc), inverse, rows)  # [r, c, j, pixel row i]
    clamps += np.count_nonzero(acc < -bound) + np.count_nonzero(acc > bound)
    pixels = np.take(_saturation(b, True, pixels=True)[0], acc.transpose(0, 3, 1, 2))
    return pixels.reshape(band.shape), int(clamps)


def _reference_band(band: np.ndarray, mask: FrequencyMask, work=None) -> np.ndarray:
    """Float64 pipeline of a padded raster band: its pixels. `work`, at least
    2 * band.size float64s, is scratch for the products (see _band_pass)."""
    c = dct_basis()
    # x and y take turns as the input and the output of one GEMM per product over
    # [row, block, column]; p/256 is exact, so left out
    x, y = (np.empty(2 * band.size) if work is None else work[:2 * band.size]).reshape(2, N, -1)
    raster = x.reshape(N, -1, band.shape[1])  # [pixel row of a block, block row, column]
    np.copyto(raster, band.reshape(-1, N, band.shape[1]).swapaxes(0, 1))
    np.matmul(c, x, out=y)
    np.matmul(y.reshape(-1, N), c.T, out=x.reshape(-1, N))
    x.reshape(N, -1, N)[...] *= mask.m.astype(np.float64)[:, None, :]
    np.matmul(c.T, x, out=y)
    np.matmul(y.reshape(-1, N), c, out=x.reshape(-1, N))
    # negatives clip to 0 and the cast truncates, so x + 0.5 rounds half away from zero
    np.clip(np.add(x, 0.5, out=x), 0, 255, out=x)
    return raster.swapaxes(0, 1).astype(np.uint8, order="C").reshape(band.shape)


def reference_pipeline(img: GrayImage, mask: FrequencyMask) -> GrayImage:
    """Float64 pipeline with the same blocks, bands and mask; the accuracy baseline."""
    return GrayImage(np.concatenate([_reference_band(_pad(band), mask)[:len(band), :img.width]
                                     for band in _bands(img.pixels)]))


def _band_pass(bands, widths, mask: FrequencyMask, sink=None):
    """process_widths over an image's bands of whole block rows (only the last one short),
    in order. Width k's output rows go to sink(k, rows) if given, valid only during the
    call. Returns per width: total cycles, clamps, and PSNR against input and reference."""
    h = w = 0
    totals = np.zeros((len(widths), 3), dtype=np.int64)  # clamps, SSE vs input, vs reference
    work = None
    for band in bands:
        (rows, w), padded = band.shape, _pad(band)
        h += rows
        # one float64 scratch for the pass, sized by the first and largest band: a new
        # one per band would be handed back to the system by malloc and faulted back in
        work = np.empty(2 * padded.size) if work is None else work
        ref = _reference_band(padded, mask, work)[:rows, :w]
        for k, b in enumerate(widths):
            pixels, count = _fixed_band(padded, b, mask)
            got = pixels[:rows, :w]
            if sink:
                sink(k, got)
            totals[k] += count, _sse(got, band), _sse(got, ref)
    slots = -(-h // N) * -(-w // N) * 2 * _TRANSFORM_SLOTS  # forward + inverse
    return [((slots << b) // PARALLELISM, count, _psnr_db(si, h * w),
             _psnr_db(sr, h * w)) for b, (count, si, sr) in zip(widths, totals.tolist())]


def process_widths(img: GrayImage, sels, mask: FrequencyMask) -> list[PipelineReport]:
    """Run the fixed-point pipeline over a whole image at each AccuracySelect in sels.

    Pixels are padded to 8x8 blocks by edge replication and normalized to
    p/256 at the 10-bit stage width. Per block: forward 2D transform, mask,
    inverse 2D transform, de-normalization to 0..255. Each band is padded
    and run through the float reference once, then through every width.
    Total cycles are the fixed MAC schedules over PARALLELISM pixels a cycle.
    """
    outs = [np.empty_like(img.pixels) for _ in sels]
    dests = [_bands(out) for out in outs]  # each output's bands, in step with the input's
    stats = _band_pass(_bands(img.pixels), [sel.bitwidth for sel in sels], mask,
                       lambda k, rows: np.copyto(next(dests[k]), rows))
    return [PipelineReport(GrayImage(out), *s) for out, s in zip(outs, stats)]


def process_image(img: GrayImage, sel: AccuracySelect, mask: FrequencyMask) -> PipelineReport:
    """Run the pipeline at one width: one band pass of process_widths."""
    return process_widths(img, [sel], mask)[0]
