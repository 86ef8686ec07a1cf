"""Transform pipeline: reference path, quantized tables, fixed-point 2D."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import arsc.dct
from arsc.dct import (
    FrequencyMask,
    GrayImage,
    INTER_STAGE_SHIFT,
    N,
    PARALLELISM,
    PIXEL_SHIFT,
    SAMPLE_WIDTH,
    PipelineReport,
    WidthReport,
    _bands,
    _clamps,
    _fixed_band,
    _pad,
    _product_rows,
    _psnr_db,
    _reference_band,
    _samples,
    _sse,
    _stage,
    _stage_rows,
    _to_pixels,
    band_pass,
    dct1d_ref,
    dct_basis,
    idct1d_ref,
    process_image,
    psnr,
    reference_pipeline,
)
from arsc.mac import BITWIDTHS, AccuracySelect
from arsc.refimage import reference_image
from arsc.sc_core import UnsignedFixed, prefix_ones_table
from mac_model import SignMagnitude, mac


def sm(sign, raw, width=SAMPLE_WIDTH):
    return SignMagnitude(sign, UnsignedFixed(width, raw))


def const_vector(raw, sign=1):
    return [sm(sign, raw)] * N


def dct2d_ref(block):
    """Reference forward 2D transform (float64): C @ block @ C^T."""
    c = dct_basis()
    return c @ np.asarray(block, dtype=np.float64) @ c.T


def idct2d_ref(block):
    """Reference inverse 2D transform (float64): C^T @ block @ C."""
    c = dct_basis()
    return c.T @ np.asarray(block, dtype=np.float64) @ c


# The scalar oracle of the batched engine: one mac() call per output of a 1D
# transform, on coefficients quantized straight from the float basis.

def quantize_coefficients(b):
    """Transform coefficients as b-bit sign-magnitude values: entry (k, i) is
    the basis factor rounded to nearest, ties away from zero; every magnitude
    is <= 1."""
    if not 6 <= b <= 10:
        raise ValueError(f"coefficient width {b} out of range 6..10")
    c = dct_basis()
    return [[SignMagnitude.from_float(c[k, i], b) for i in range(N)] for k in range(N)]


def dct1d_sc(a, sel):
    """Forward 1D transform of 8 samples on the MAC unit: (outputs, cycles);
    outputs are scaled by 1/4 before storage."""
    table = quantize_coefficients(sel.bitwidth)
    rs = [mac(a, table[k], sel, result_shift=INTER_STAGE_SHIFT) for k in range(N)]
    return [r.value for r in rs], sum(r.cycles_fixed for r in rs)


def idct1d_sc(f, sel):
    """Inverse 1D transform: transposed coefficients, compensating gain 4."""
    table = quantize_coefficients(sel.bitwidth)
    rs = [mac(f, [table[k][i] for k in range(N)], sel, result_shift=-INTER_STAGE_SHIFT)
          for i in range(N)]
    return [r.value for r in rs], sum(r.cycles_fixed for r in rs)


@pytest.fixture
def mac_clamps(monkeypatch):
    """The clamp flag of every mac() call the scalar oracle makes from now on."""
    clamps, real_mac = [], mac

    def counting_mac(*args, **kwargs):
        r = real_mac(*args, **kwargs)
        clamps.append(r.clamped)
        return r

    monkeypatch.setattr(sys.modules[__name__], "mac", counting_mac)
    return clamps


class TestReferenceTransform:
    def test_constant_signal(self):
        f = dct1d_ref(np.ones(8))
        assert abs(f[0] - math.sqrt(8)) < 1e-12
        assert np.max(np.abs(f[1:])) < 1e-12
        back = idct1d_ref(f)
        assert np.max(np.abs(back - 1.0)) < 1e-12

    def test_zeros(self):
        assert np.all(dct1d_ref(np.zeros(8)) == 0)
        assert np.all(idct1d_ref(np.zeros(8)) == 0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-1, 1, 8)
            np.testing.assert_allclose(dct1d_ref(a), scipy.fft.dct(a, 2, norm="ortho"),
                                       atol=1e-12)
            np.testing.assert_allclose(idct1d_ref(a), scipy.fft.idct(a, 2, norm="ortho"),
                                       atol=1e-12)

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = rng.uniform(-1, 1, 8)
            f = dct1d_ref(a)
            assert np.max(np.abs(idct1d_ref(f) - a)) < 1e-9
            assert abs(np.linalg.norm(f) - np.linalg.norm(a)) < 1e-9

    def test_2d_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            b = rng.uniform(-1, 1, (8, 8))
            assert np.max(np.abs(idct2d_ref(dct2d_ref(b)) - b)) < 1e-9

    def test_2d_constant_dc_gain(self):
        f = dct2d_ref(np.full((8, 8), 0.25))
        assert abs(f[0, 0] - 8 * 0.25) < 1e-12
        assert np.max(np.abs(f.flatten()[1:])) < 1e-12


class TestQuantizedCoefficients:
    def test_matches_independent_basis(self):
        # oracle: scipy's orthonormal DCT-II matrix, quantized the same way
        basis = scipy.fft.dct(np.eye(8), 2, norm="ortho", axis=0)
        for b in range(6, 11):
            table = quantize_coefficients(b)
            for k in range(8):
                for i in range(8):
                    expect = int(math.floor(abs(basis[k, i]) * (1 << b) + 0.5))
                    assert table[k][i].mag.raw == expect
                    if expect:
                        assert table[k][i].sign == (1 if basis[k, i] >= 0 else -1)

    def test_dc_row_value(self):
        # 1/sqrt(8) = 0.35355...: raw 91 at 8 bits, 362 at 10 bits
        assert all(quantize_coefficients(8)[0][i].mag.raw == 91 for i in range(8))
        assert all(quantize_coefficients(10)[0][i].mag.raw == 362 for i in range(8))

    def test_mid_band_values(self):
        # |row 4| is 0.5*cos(pi/4) = 0.35355... everywhere, same raw as DC
        table = quantize_coefficients(8)
        assert table[4][0].mag.raw == 91 and table[4][0].sign == 1
        assert table[4][1].mag.raw == 91 and table[4][1].sign == -1
        # row 2 head: 0.5*cos(pi/8) * 1024 rounds to 473
        assert quantize_coefficients(10)[2][0].mag.raw == 473

    def test_all_magnitudes_at_most_one(self):
        for b in range(6, 11):
            for row in quantize_coefficients(b):
                for c in row:
                    assert c.mag.raw <= (1 << b)

    def test_width_range(self):
        with pytest.raises(ValueError):
            quantize_coefficients(5)
        with pytest.raises(ValueError):
            quantize_coefficients(11)


class TestFixed1d:
    def test_zeros(self):
        sel = AccuracySelect.from_bitwidth(10)
        outs, cycles = dct1d_sc(const_vector(0), sel)
        assert all(o.mag.raw == 0 for o in outs)
        assert cycles == 8 * 8 * (1 << 10)

    def test_constant_half(self):
        sel = AccuracySelect.from_bitwidth(10)
        outs, _ = dct1d_sc(const_vector(512), sel)
        # DC lands near sqrt(8)*0.5/4; every AC output cancels exactly
        assert abs(outs[0].value - math.sqrt(8) * 0.5 / 4) < 2e-3
        assert all(o.mag.raw == 0 for o in outs[1:])

    def test_negation_negates_outputs(self):
        sel = AccuracySelect.from_bitwidth(9)
        rng = np.random.default_rng(3)
        a = [sm(int(s), int(r)) for s, r in
             zip(rng.choice([-1, 1], 8), rng.integers(0, 1024, 8))]
        pos, _ = dct1d_sc(a, sel)
        neg, _ = dct1d_sc([-x for x in a], sel)
        assert all(p == -q or p.mag.raw == 0 for p, q in zip(pos, neg))

    def test_inverse_zeros(self):
        sel = AccuracySelect.from_bitwidth(10)
        outs, _ = idct1d_sc(const_vector(0), sel)
        assert all(o.mag.raw == 0 for o in outs)

    def test_constant_round_trip_within_two_levels(self):
        # forward then inverse on a flat vector stays within 2 intensity
        # levels at full accuracy, for every 8-bit level
        sel = AccuracySelect.from_bitwidth(10)
        worst = 0
        for c in range(256):
            f, _ = dct1d_sc(const_vector(4 * c), sel)
            back, _ = idct1d_sc(f, sel)
            for s in back:
                pixel = s.sign * ((s.mag.raw + 2) >> 2)
                worst = max(worst, abs(pixel - c))
        assert worst <= 2

    def test_random_round_trip_tracks_reference(self):
        sel = AccuracySelect.from_bitwidth(10)
        rng = np.random.default_rng(8)
        for _ in range(20):
            raws = rng.integers(0, 1024, 8)
            a = [sm(1, int(r)) for r in raws]
            f, _ = dct1d_sc(a, sel)
            back, _ = idct1d_sc(f, sel)
            got = np.array([s.sign * s.mag.raw for s in back]) / 1024.0
            want = np.array([x.value for x in a])
            assert np.max(np.abs(got - want)) < 0.02


class TestFixed2d:
    def test_round_trip_psnr_on_random_blocks(self):
        rng = np.random.default_rng(99)
        img = GrayImage(rng.integers(0, 256, size=(64, 64)).astype(np.uint8))
        rep = process_image(img, AccuracySelect.from_bitwidth(10), FrequencyMask.allpass())
        assert rep.psnr_vs_input >= 30.0


def _bits_mask(bits):
    """The mask whose entry (k, l) is bit 8k + l of a 64-bit integer."""
    return FrequencyMask(np.array([(bits >> i) & 1 for i in range(N * N)]).reshape(N, N))


def _signed_samples(rng):
    """A (3, 8, 8) int16 batch of signed 10-bit samples, as _fixed_band masks."""
    top = (1 << SAMPLE_WIDTH) - 1
    return rng.integers(-top, top + 1, size=(3, N, N)).astype(np.int16)


class TestMask:
    def test_allpass_identity(self):
        x = _signed_samples(np.random.default_rng(1))
        out = x * FrequencyMask.allpass().m
        assert out.dtype == np.int16 and np.array_equal(out, x)

    def test_allzero_mask(self):
        x = np.full((3, 8, 8), 100, dtype=np.int16)
        out = x * FrequencyMask(np.zeros((8, 8), int)).m
        assert out.dtype == np.int16 and np.all(out == 0)

    def test_not_8x8_refused(self):
        with pytest.raises(ValueError, match=r"^mask must be 8x8, got \(4, 4\)$"):
            FrequencyMask(np.ones((4, 4)))

    def test_equal_only_to_masks(self):
        assert FrequencyMask.allpass().__eq__(1) is NotImplemented
        assert (FrequencyMask.allpass() == 1) is False
        assert FrequencyMask.allpass() == FrequencyMask(np.ones((N, N), dtype=bool))

    def test_lowpass_shape(self):
        m = FrequencyMask.lowpass(4)
        assert int(m.m.sum()) == 16
        assert m.m[0, 0] == 1 and m.m[3, 3] == 1 and m.m[4, 0] == 0 and m.m[0, 4] == 0

    def test_reference_array_path(self):
        f = np.arange(64, dtype=float).reshape(8, 8)
        out = f * FrequencyMask.lowpass(2).m
        assert out[0, 0] == 0 and out[0, 1] == 1 and out[2, 0] == 0

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**63))
    @settings(max_examples=50)
    def test_idempotence(self, mask_bits, raw_seed):
        m = _bits_mask(mask_bits)
        once = _signed_samples(np.random.default_rng(raw_seed)) * m.m
        assert np.array_equal(once * m.m, once)

    @pytest.mark.parametrize("spec,rows,cols", [
        (np.ones((8, 8)), range(8), range(8)),
        (np.zeros((8, 8)), (), ()),
        (FrequencyMask.lowpass(3).m, range(3), range(3)),
        (np.eye(8)[[2, 5]].repeat(4, axis=0), range(8), (2, 5)),
        (np.outer([0, 1, 0, 0, 0, 0, 0, 1], [1, 0, 0, 1, 1, 0, 0, 0]), (1, 7), (0, 3, 4)),
    ])
    def test_kept_rows_and_columns(self, spec, rows, cols):
        m = FrequencyMask(spec)
        assert m.kept_rows == tuple(rows) and m.kept_cols == tuple(cols)
        assert np.array_equal(m.kept_block, m.m[np.ix_(rows, cols)])
        assert not m.kept_block.flags.writeable
        # every 1 of the mask lies in the kept block
        assert int(m.kept_block.sum()) == int(m.m.sum())

    def test_binary_only(self):
        with pytest.raises(ValueError):
            FrequencyMask(np.full((8, 8), 2))

    @pytest.mark.parametrize("value", [0.5, 1.9, -0.0001, np.nan, np.inf])
    def test_non_integral_entries_refused(self, value):
        a = np.ones((8, 8))
        a[3, 5] = value
        with pytest.raises(ValueError):
            FrequencyMask(a)

    def test_non_numeric_entries_refused(self):
        with pytest.raises(ValueError):
            FrequencyMask(np.full((8, 8), "1"))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, np.uint8, np.int64])
    def test_integral_entries_stored_as_one_read_only_int_array(self, dtype):
        given = np.ones((8, 8), dtype=dtype)
        m = FrequencyMask(given)
        assert m.m.dtype == np.int16 and not m.m.flags.writeable
        assert m == FrequencyMask.allpass()
        given[0, 0] = 0  # the mask keeps its own copy
        assert m == FrequencyMask.allpass()

    def test_float_mask_runs_the_pipeline(self):
        # float 0/1 entries must not reach the product-table gathers as floats
        img = GrayImage(reference_image().pixels[:16, :24].copy())
        sel = AccuracySelect.from_bitwidth(8)
        lowpass = np.zeros((8, 8))
        lowpass[:4, :4] = 1.0
        got = process_image(img, sel, FrequencyMask(lowpass))
        want = process_image(img, sel, FrequencyMask.lowpass(4))
        assert got.output == want.output and got.clamp_count == want.clamp_count

    def test_dc_only_mask_on_constant_block_survives(self):
        # a flat block has only DC energy, so keeping DC changes nothing
        c = 0.4
        f = dct2d_ref(np.full((8, 8), c))
        dc_only = np.zeros((8, 8), int)
        dc_only[0, 0] = 1
        back = idct2d_ref(f * FrequencyMask(dc_only).m)
        assert np.max(np.abs(back - c)) < 1e-12


class TestScaleBookkeeping:
    def test_net_gain_exactly_one_in_float(self):
        # the fixed-point stage shifts, replayed in exact float arithmetic,
        # cancel to unity gain through forward + inverse
        rng = np.random.default_rng(77)
        c = dct_basis()
        scale = 1.0 / (1 << INTER_STAGE_SHIFT)
        for _ in range(20):
            blk = rng.uniform(-0.9, 0.9, (8, 8))
            f = ((c @ blk) * scale @ c.T) * scale
            back = ((f @ c) / scale).T
            back = ((c.T @ back.T) / scale)
            assert np.max(np.abs(back - blk)) < 1e-12


class TestPsnr:
    def test_identical_images_infinite(self):
        img = GrayImage(np.arange(64, dtype=np.uint8).reshape(8, 8))
        assert psnr(img, img) == math.inf

    def test_full_scale_difference(self):
        a = GrayImage(np.zeros((4, 4), dtype=np.uint8))
        b = GrayImage(np.full((4, 4), 255, dtype=np.uint8))
        assert psnr(a, b) == 0.0

    def test_single_pixel_example(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = a.copy()
        b[0, 0] = 255
        assert abs(psnr(GrayImage(a), GrayImage(b)) - 10 * math.log10(16)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(GrayImage(np.zeros((4, 4), dtype=np.uint8)),
                 GrayImage(np.zeros((4, 8), dtype=np.uint8)))


def _float_psnr(a, b):
    """The float64 mean-of-squares formula psnr must reproduce bit for bit."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)


class TestPsnrExactness:
    def test_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            shape = tuple(rng.integers(1, 200, size=2))
            a = rng.integers(0, 256, size=shape).astype(np.uint8)
            b = a if rng.random() < 0.05 else rng.integers(0, 256, size=shape).astype(np.uint8)
            if rng.random() < 0.5:  # a small error, as the pipeline makes
                b = np.clip(a + rng.integers(-3, 4, size=shape), 0, 255).astype(np.uint8)
            assert psnr(GrayImage(a), GrayImage(b)) == _float_psnr(a, b)

    def test_full_scale_large_image(self):
        # SSE 2048**2 * 255**2 = 2.7e11: past int32 and uint16 ranges
        a = np.zeros((2048, 2048), dtype=np.uint8)
        b = np.full((2048, 2048), 255, dtype=np.uint8)
        assert psnr(GrayImage(a), GrayImage(b)) == _float_psnr(a, b) == 0.0
        assert psnr(GrayImage(b), GrayImage(a)) == 0.0

    def test_one_pixel_difference(self):
        a = np.full((300, 301), 17, dtype=np.uint8)
        b = a.copy()
        b[150, 7] = 16
        assert psnr(GrayImage(a), GrayImage(b)) == _float_psnr(a, b)
        assert psnr(GrayImage(b), GrayImage(a)) == _float_psnr(b, a)

    def test_identical_images_infinite(self):
        a = np.random.default_rng(2).integers(0, 256, size=(33, 65)).astype(np.uint8)
        assert psnr(GrayImage(a), GrayImage(a.copy())) == math.inf == _float_psnr(a, a)


class TestProcessImage:
    def test_all_zero_mask_blanks_output(self):
        img = GrayImage(np.full((16, 16), 200, dtype=np.uint8))
        rep = process_image(
            img, AccuracySelect.from_bitwidth(10),
            FrequencyMask(np.zeros((8, 8), int)),
        )
        assert np.all(rep.output.pixels == 0)

    def test_constant_image_near_identity(self):
        # the counter-based multiplier is approximate, so a flat image
        # returns within a few intensity levels, not bit-exact
        sel = AccuracySelect.from_bitwidth(10)
        allpass = FrequencyMask.allpass()
        worst = 0
        for c in (0, 37, 81, 128, 200, 255):
            img = GrayImage(np.full((8, 8), c, dtype=np.uint8))
            rep = process_image(img, sel, allpass)
            worst = max(worst, int(np.max(np.abs(rep.output.pixels.astype(int) - c))))
        assert worst <= 4

    def test_zero_constant_is_exact(self):
        img = GrayImage(np.zeros((16, 16), dtype=np.uint8))
        rep = process_image(img, AccuracySelect.from_bitwidth(10), FrequencyMask.allpass())
        assert rep.output == img
        assert rep.psnr_vs_input == math.inf
        assert rep.clamp_count == 0

    def test_psnr_improves_with_bitwidth(self):
        img = GrayImage(reference_image().pixels[:64, :64].copy())
        mask = FrequencyMask.lowpass(4)
        hi = process_image(img, AccuracySelect.from_bitwidth(10), mask)
        lo = process_image(img, AccuracySelect.from_bitwidth(6), mask)
        assert hi.psnr_vs_reference > lo.psnr_vs_reference

    def test_padding_preserves_dimensions(self):
        rng = np.random.default_rng(6)
        img = GrayImage(rng.integers(0, 256, size=(20, 13)).astype(np.uint8))
        rep = process_image(img, AccuracySelect.from_bitwidth(8), FrequencyMask.lowpass(4))
        assert rep.output.pixels.shape == (20, 13)

    def test_cycle_accounting(self):
        img = GrayImage(np.zeros((16, 16), dtype=np.uint8))
        # 4 blocks x (forward + inverse) x 1024 multiplier slots x 2^b,
        # divided by the parallelism factor 8
        for b in (10, 8):
            rep = process_image(img, AccuracySelect.from_bitwidth(b), FrequencyMask.allpass())
            assert rep.total_cycles_fixed == 4 * 2048 * (1 << b) // 8


def _padded_blocks(pixels):
    h, w = pixels.shape
    padded = np.pad(pixels, ((0, -h % N), (0, -w % N)), mode="edge")
    for by in range(0, padded.shape[0], N):
        for bx in range(0, padded.shape[1], N):
            yield by, bx, padded[by:by + N, bx:bx + N]


def _scalar_pipeline(pixels, sel, mask):
    """process_image block by block on the scalar MAC: dct1d_sc columns then
    rows, the mask, idct1d_sc rows then columns, round-half-away pixels."""
    h, w = pixels.shape
    out = np.zeros((h + N, w + N), dtype=np.uint8)
    cycles = 0
    for by, bx, blk in _padded_blocks(pixels):
        x = [[sm(1, int(p) << 2) for p in row] for row in blk]
        cols = []  # cols[j][k]
        for j in range(N):
            outs, c = dct1d_sc([x[i][j] for i in range(N)], sel)
            cols.append(outs)
            cycles += c
        freq = []  # freq[k][l]
        for k in range(N):
            outs, c = dct1d_sc([cols[j][k] for j in range(N)], sel)
            freq.append(outs)
            cycles += c
        # a masked-out coefficient is +0
        masked = [[freq[k][l] if mask.m[k, l] else sm(1, 0) for l in range(N)]
                  for k in range(N)]
        rows = []  # rows[k][i]
        for k in range(N):
            outs, c = idct1d_sc(masked[k], sel)
            rows.append(outs)
            cycles += c
        for i in range(N):
            outs, c = idct1d_sc([rows[k][i] for k in range(N)], sel)
            cycles += c
            for r, s in enumerate(outs):
                out[by + r, bx + i] = min(max(s.sign * ((s.mag.raw + 2) >> 2), 0), 255)
    return out[:h, :w], cycles // PARALLELISM


ORACLE_IMAGES = {
    # odd size: padding on both axes
    "noise": np.random.default_rng(31).integers(0, 256, size=(11, 13)).astype(np.uint8),
    # full-swing patterns: stage clamps and negative outputs
    "checkerboard": (np.indices((8, 16)).sum(axis=0) % 2 * 255).astype(np.uint8),
    "stripes": (np.indices((16, 8))[1] % 2 * 255).astype(np.uint8),
}


class TestBatchedEngineOracle:
    """The batched whole-image engine against the scalar MAC path."""

    @pytest.mark.parametrize("bits", [10, 9, 8, 7, 6])
    def test_matches_scalar_mac(self, bits, mac_clamps):
        sel = AccuracySelect.from_bitwidth(bits)
        seen = 0
        for name, pixels in ORACLE_IMAGES.items():
            for mask in (FrequencyMask.allpass(), FrequencyMask.lowpass(4)):
                mac_clamps.clear()
                want, cycles = _scalar_pipeline(pixels, sel, mask)
                rep = process_image(GrayImage(pixels), sel, mask)
                assert np.array_equal(rep.output.pixels, want), (name, mask.m.sum())
                assert rep.clamp_count == sum(mac_clamps), (name, mask.m.sum())
                assert rep.total_cycles_fixed == cycles
                seen += rep.clamp_count
        assert seen > 0

    @pytest.mark.parametrize("mask", [FrequencyMask.allpass(), FrequencyMask.lowpass(4)])
    def test_reference_matches_per_block_float(self, mask):
        for pixels in ORACLE_IMAGES.values():
            got = reference_pipeline(GrayImage(pixels), mask)
            assert np.array_equal(got.pixels, _per_block_reference(pixels, mask))


_ALL = tuple(range(N))


def _stage_samples(x, b, inverse, lanes=_ALL, outs=_ALL):
    """One 1D stage on the engine's kernel and product rows: x[p, ...] are the
    signed b-bit samples on lane lanes[p], zero on the other lanes. Returns
    (samples [..., q] of output outs[q], their clamp count), counted forward too."""
    offset = (1 << b) - 1
    sums = _stage(np.asarray(x, dtype=np.intp) + offset, _product_rows(b, inverse, outs), lanes)
    assert sums.dtype == np.int16
    sv, clamped = _saturated(sums[..., :len(outs)], b, inverse)
    return sv.astype(np.int16), int(np.count_nonzero(clamped))


def _reach(table):
    """Lowest and highest sum, over any output, of one product row per lane of a
    table [lane, row]: the sum over lanes of each lane's lowest and highest product."""
    p = table.view(np.int16)  # [lane, row, output]
    return int(p.min(axis=1).sum(axis=0).min()), int(p.max(axis=1).sum(axis=0).max())


def _saturated(acc, b, up):
    """The sample each stage sum of acc saturates to, sign(acc) * min(|acc| << 2
    if up else |acc| >> 2, 2**b - 1), and where the minimum clamps."""
    acc = np.asarray(acc, dtype=np.int64)
    mag = np.abs(acc) << INTER_STAGE_SHIFT if up else np.abs(acc) >> INTER_STAGE_SHIFT
    return np.sign(acc) * np.minimum(mag, (1 << b) - 1), mag > (1 << b) - 1


def _transform2d(x, b, inverse):
    """Separable 2D transform of (B, 8, 8) signed b-bit samples: _stage_samples
    over every lane and output. Forward runs columns, then rows, scaling each
    pass by 1/4; inverse uses the transposed table, amplifies by 4 and mirrors
    the pass order. Returns (samples, clamp count)."""
    # lanes first: [i, j, n] forward, [l, k, n] inverse
    y, c1 = _stage_samples(x.transpose(2, 1, 0) if inverse else x.transpose(1, 2, 0), b, inverse)
    z, c2 = _stage_samples(y, b, inverse)  # [n, k, l] forward, [n, j, i] inverse
    return (z.swapaxes(1, 2) if inverse else z), c1 + c2


def _mac_transform2d(block, b, inverse, width=None):
    """_transform2d of one block on the scalar MAC: dct1d_sc over columns then
    rows, or idct1d_sc over rows then columns; signed raws of `width` bits
    (default b) in and out. Returns (samples, summed cycles of the 1D calls)."""
    sel = AccuracySelect.from_bitwidth(b)
    one_d = idct1d_sc if inverse else dct1d_sc
    s = [[sm(1 if v >= 0 else -1, abs(int(v)), width or b) for v in row] for row in block]
    if inverse:
        s = [list(col) for col in zip(*s)]
    first = [one_d([s[i][j] for i in range(N)], sel) for j in range(N)]  # [j] = ([k], cycles)
    second = [one_d([first[j][0][k] for j in range(N)], sel) for k in range(N)]  # [k] = ([l], cycles)
    out = np.array([[v.sign * v.mag.raw for v in outs] for outs, _ in second])
    cycles = sum(c for _, c in first + second)
    return (out.T if inverse else out), cycles


def _wide_block(seed):
    """Random signed 10-bit block, signs drawn before magnitudes."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1, 1], size=(N, N))
    return signs * rng.integers(0, 1 << SAMPLE_WIDTH, size=(N, N))


# full-width inputs: two random blocks and the zero block
WIDE_BLOCKS = np.stack([_wide_block(21), _wide_block(22), np.zeros((N, N), dtype=np.int64)])


class TestStageKernelOracle:
    """The row-gather stage kernel against per-vector mac() calls."""

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("bits", [10, 9, 8, 7, 6])
    def test_matches_scalar_mac(self, bits, inverse, mac_clamps):
        top = (1 << bits) - 1
        rng = np.random.default_rng(100 * bits + inverse)
        x = rng.integers(-top, top + 1, size=(5, N, N))
        x[0] = top  # full-scale corners of the sample range
        x[1] = -top
        x[2, :, ::2] = -top
        x[2, :, 1::2] = top
        # a 10-bit sample reaches the engine truncated to b bits
        drop = SAMPLE_WIDTH - bits
        x = np.concatenate([x, np.sign(WIDE_BLOCKS) * (np.abs(WIDE_BLOCKS) >> drop)])
        got, got_clamps = _transform2d(x.astype(np.int16), bits, inverse)
        narrow = [_mac_transform2d(blk, bits, inverse) for blk in x[:5]]
        wide = [_mac_transform2d(blk, bits, inverse, SAMPLE_WIDTH) for blk in WIDE_BLOCKS]
        assert got.dtype == np.int16
        assert np.array_equal(got[:5], np.stack([out for out, _ in narrow]))
        # full-width oracle outputs are b-bit results padded back to 10 bits
        assert np.array_equal(got[5:].astype(np.int64) << drop, np.stack([out for out, _ in wide]))
        assert not got[-1].any()
        assert got_clamps == sum(mac_clamps)
        # every block is charged 1024 multiplier slots of the fixed 2**b schedule
        assert all(cycles == 1024 << bits for _, cycles in narrow + wide)
        if inverse:  # saturation at both ends of the table
            assert got_clamps > 0
            assert (got == top).any() and (got == -top).any()


def _dense_chunk(pixels, b, mask):
    """_fixed_band without pruning, on (B, 8, 8) pixel blocks: both dense 2D
    transforms and the whole mask, all four stages' clamps counted."""
    x = (pixels.astype(np.int16) << PIXEL_SHIFT) >> (SAMPLE_WIDTH - b)
    f, c1 = _transform2d(x, b, inverse=False)
    v, c2 = _transform2d(f * mask.m, b, inverse=True)
    return np.clip((v << (SAMPLE_WIDTH - b)) >> PIXEL_SHIFT, 0, 255).astype(np.uint8), c1 + c2


_IJ = np.indices((N, N))
_HOLE = np.ones((N, N), dtype=int)
_HOLE[3], _HOLE[:, 4] = 0, 0
PRUNING_MASKS = {
    "allpass": FrequencyMask.allpass(),
    "lowpass:1": FrequencyMask.lowpass(1),
    "lowpass:4": FrequencyMask.lowpass(4),
    # every row and column kept, half the block zeroed
    "checkerboard": FrequencyMask(1 - _IJ.sum(axis=0) % 2),
    "anti-diagonal": FrequencyMask(_IJ.sum(axis=0) == N - 1),
    # an empty middle row and column: kept indices are not a prefix
    "hole": FrequencyMask(_HOLE),
    "zero": FrequencyMask(np.zeros((N, N))),
}
# full-swing blocks, each saturating inverse stages at every width: random
# 0/255 pixels, a one-pixel checkerboard and a two-pixel one
SWING_BLOCKS = np.stack([np.random.default_rng(3).integers(0, 2, (N, N)),
                         _IJ.sum(axis=0) % 2, (_IJ // 2).sum(axis=0) % 2]).astype(np.uint8) * 255


def _fixed_blocks(blocks, b, mask):
    """_fixed_band on (B, 8, 8) pixel blocks laid out as a raster band with as
    many block rows as B's largest divisor up to its square root: (blocks, clamps)."""
    rows = max(r for r in range(1, math.isqrt(len(blocks)) + 1) if len(blocks) % r == 0)
    band = blocks.reshape(rows, -1, N, N).swapaxes(1, 2).reshape(rows * N, -1)
    out, clamps = _fixed_band(band, b, mask)
    return out.reshape(rows, N, -1, N).swapaxes(1, 2).reshape(blocks.shape), clamps


def _pixel_kernel(mask, i, j):
    """The float 2D operator of the mask at pixel (i, j): output (i, j) is the sum
    of the block times this (8, 8) kernel."""
    c = dct_basis()
    return np.einsum("kl,k,l,ki,lj->ij", mask.m, c[:, i], c[:, j], c, c)


def _stage4_sums(block, b, mask):
    """Stage 4's int16 sums of one (8, 8) pixel block at width b under the mask,
    from the dense stages."""
    x = (block[None].astype(np.int16) << PIXEL_SHIFT) >> (SAMPLE_WIDTH - b)
    f, _ = _transform2d(x, b, inverse=False)
    stage3, _ = _stage_samples((f * mask.m).transpose(2, 1, 0), b, inverse=True)
    return _stage(stage3.astype(np.intp) + (1 << b) - 1, _product_rows(b, True, _ALL), _ALL)


# (bits, pixel, v) of test_stage4_negative_witness
NEGATIVE_WITNESSES = [(10, (3, 2), 130), (9, (3, 2), 137), (8, (3, 2), 142), (7, (3, 2), 160),
                      (6, (0, 0), 208)]


class TestPrunedEngineOracle:
    """_fixed_band, which runs only what the mask keeps, against the dense
    stage composition and the scalar MAC path."""

    @pytest.mark.parametrize("bits", BITWIDTHS)
    def test_matches_dense_and_scalar_mac(self, bits, mac_clamps):
        sel = AccuracySelect.from_bitwidth(bits)
        rng = np.random.default_rng(bits)
        many = np.concatenate([SWING_BLOCKS, rng.integers(0, 2, (60, N, N)) * 255,
                               rng.integers(0, 256, (60, N, N))]).astype(np.uint8)
        image = np.concatenate(list(SWING_BLOCKS), axis=1)  # blocks side by side
        seen = {}
        for name, mask in PRUNING_MASKS.items():
            got, got_clamps = _fixed_blocks(many, bits, mask)
            want, want_clamps = _dense_chunk(many, bits, mask)
            assert np.array_equal(got, want) and got_clamps == want_clamps, name
            mac_clamps.clear()
            scalar, _ = _scalar_pipeline(image, sel, mask)
            got, got_clamps = _fixed_band(image, bits, mask)
            assert np.array_equal(got, scalar), name
            assert got_clamps == sum(mac_clamps), name
            seen[name] = got_clamps
        assert all(seen[name] > 0 for name in ("allpass", "lowpass:4", "checkerboard", "hole"))
        assert seen["zero"] == 0

    @given(st.integers(0, 2**64 - 1), st.integers(0, 255), st.integers(0, 255),
           st.sampled_from(BITWIDTHS), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_mask_matches_dense(self, mask_bits, row_bits, col_bits, bits, seed):
        # ANDing whole rows and columns away makes pruned stages likely; with
        # both bytes 0xff the mask is any of the 2**64
        keep = np.outer([(row_bits >> k) & 1 for k in range(N)],
                        [(col_bits >> l) & 1 for l in range(N)])
        mask = FrequencyMask(_bits_mask(mask_bits).m & keep)
        rng = np.random.default_rng(seed)
        blocks = np.concatenate([SWING_BLOCKS, rng.integers(0, 2, (8, N, N)) * 255,
                                 rng.integers(0, 256, (8, N, N))]).astype(np.uint8)
        got, got_clamps = _fixed_blocks(blocks, bits, mask)
        want, want_clamps = _dense_chunk(blocks, bits, mask)
        assert np.array_equal(got, want) and got_clamps == want_clamps

    @pytest.mark.parametrize("bits", BITWIDTHS)
    def test_biased_sums_index_the_tables(self, bits, monkeypatch):
        # _fixed_band indexes stages 2 and 3 at the samples of the last stage's
        # int16 sums and stage 4 at its sums offset in place: on full-swing blocks,
        # under every mask, stages 2 and 3 must index inside their tables, which
        # clip no lookup; stage 3 reads the one all-pass table of the width and
        # stage 4 the clipped one
        # (test_saturation_tables_take_every_signed_sum checks lookups past it)
        calls, stage = [], arsc.dct._stage

        def recording(idx, rows, lanes):
            acc = stage(idx, rows, lanes)
            assert acc.dtype == np.int16
            calls.append((np.array(idx, dtype=np.int64), rows))
            return acc

        monkeypatch.setattr(arsc.dct, "_stage", recording)
        for mask in PRUNING_MASKS.values():
            _fixed_blocks(SWING_BLOCKS, bits, mask)
        assert len(calls) == 4 * (len(PRUNING_MASKS) - 1)  # the zero mask runs no stage
        q = 1 << (bits - 2)
        for k, (idx, rows) in enumerate(calls):
            if k % 4 in (1, 2):
                assert 0 <= idx.min() and idx.max() < rows.shape[1], k
            if k % 4 == 2:
                assert rows is _stage_rows(bits, 3)[0]
            if k % 4 == 3:
                assert rows is _stage_rows(bits, 4)[0] and rows.shape[1] == 2 * q + 1

    def test_stage3_witness(self):
        # Keep only row 0, at columns S. In float, stage 3's output at pixel column j
        # is 1/4 * sum_j' P[j, j'] * Y[0, j'] with P = C[S]^T C[S], so block j, whose
        # pixel column j' is 255 where P[j, j'] > 0 and 0 elsewhere, drives it to
        # its extreme; with S = {0, 1, 4} it clamps at b=6
        cols = [0, 1, 4]
        keep = np.zeros((N, N), dtype=int)
        keep[0, cols] = 1
        mask = FrequencyMask(keep)
        proj = dct_basis()[cols].T @ dct_basis()[cols]
        blocks = np.repeat(proj[:, None, :] > 0, N, axis=1).astype(np.uint8) * 255
        image = GrayImage(np.concatenate(list(blocks), axis=1))  # blocks side by side
        reports = _all_widths(image.pixels, mask)
        for b, rep in zip(BITWIDTHS, reports):
            want, want_clamps = _dense_chunk(blocks, b, mask)
            assert np.array_equal(rep.output.pixels, np.concatenate(list(want), axis=1)), b
            assert rep.clamp_count == want_clamps, b
        assert [rep.clamp_count for rep in reports] == [128, 128, 128, 128, 164]
        # the dense first inverse pass alone: stage 3's own count
        x = (blocks.astype(np.int16) << PIXEL_SHIFT) >> (SAMPLE_WIDTH - 6)
        f, _ = _transform2d(x, 6, inverse=False)
        _, stage3 = _stage_samples((f * mask.m).transpose(2, 1, 0), 6, inverse=True)
        assert stage3 > 0


    @pytest.mark.parametrize("bits,pixel,v", NEGATIVE_WITNESSES,
                             ids=[f"{bits}-{v}" for bits, _, v in NEGATIVE_WITNESSES])
    def test_stage4_negative_witness(self, bits, pixel, v, mac_clamps):
        # A non-separable mask whose float 2D operator has a negative mass of -2.02
        # at pixel (3, 2), the most negative of any pixel, and of -1.93 at (0, 0).
        # The block that is v on that pixel's negative kernel entries and 0 elsewhere
        # drives one stage-4 sum to exactly -bound, the largest magnitude that is not
        # a clamp. At b=6 no v takes (3, 2)'s block to -15 (-13 up to v = 207, -17
        # from 208), but (0, 0)'s lands one sum on -15 for v = 208..215, none past it.
        rows = "01111101 11100100 10110101 00010101 11011010 01000110 11100110 11111100"
        mask = FrequencyMask([[int(c) for c in row] for row in rows.split()])
        kernel = _pixel_kernel(mask, *pixel)
        assert round(float(kernel[kernel < 0].sum()), 2) == {(3, 2): -2.02, (0, 0): -1.93}[pixel]
        assert np.abs(kernel).min() > 1e-4  # every entry's sign is clear of rounding
        block = np.where(kernel < 0, v, 0).astype(np.uint8)
        sums = _stage4_sums(block, bits, mask)
        bound = (1 << (bits - 2)) - 1
        assert sums.min() == -bound and np.count_nonzero(sums == -bound) == 1
        scalar, _ = _scalar_pipeline(block, AccuracySelect.from_bitwidth(bits), mask)
        rep = process_image(GrayImage(block), AccuracySelect.from_bitwidth(bits), mask)
        assert np.array_equal(rep.output.pixels, scalar)
        assert rep.clamp_count == sum(mac_clamps) == 0

    @pytest.mark.parametrize("bits,pixel,at_bound,past_bound", [
        (10, (1, 3), 174, 175), (9, (0, 2), 155, 157), (8, (0, 2), 154, 158),
        (7, (0, 2), 156, 164), (6, (0, 0), 176, 192)])
    def test_stage4_positive_witness(self, bits, pixel, at_bound, past_bound, mac_clamps):
        # lowpass:4 rings: the positive entries of its float 2D operator's kernel at
        # `pixel` sum to 1.39-1.73. The block that is v on them and 0 elsewhere drives
        # one stage-4 sum to exactly +bound at v = at_bound, with no clamp, and to
        # bound + 1 = 2**(b-2) at v = past_bound, the block's one clamp.
        mask, sel = FrequencyMask.lowpass(4), AccuracySelect.from_bitwidth(bits)
        kernel = _pixel_kernel(mask, *pixel)
        assert np.abs(kernel).min() > 1e-4  # every entry's sign is clear of rounding
        bound = (1 << (bits - 2)) - 1
        for v, top, clamps in ((at_bound, bound, 0), (past_bound, bound + 1, 1)):
            block = np.where(kernel > 0, v, 0).astype(np.uint8)
            sums = _stage4_sums(block, bits, mask)
            assert sums.max() == top and np.count_nonzero(sums >= bound) == 1, v
            mac_clamps.clear()
            scalar, _ = _scalar_pipeline(block, sel, mask)
            rep = process_image(GrayImage(block), sel, mask)
            assert np.array_equal(rep.output.pixels, scalar), v
            assert rep.clamp_count == sum(mac_clamps) == clamps, v


# output sets of a stage, of every padded row width
NARROW_OUTS = [(0,), (7,), (0, 1), (2, 6), (0, 1, 2), (1, 4, 7), (0, 1, 2, 3), (0, 1, 2, 3, 4),
               (1, 2, 4, 5, 7), _ALL]


class TestProductTables:
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("b", BITWIDTHS)
    def test_rows_match_closed_form_lane_major(self, b, inverse):
        # each lane's rows must stay contiguous: _stage gathers one row scalar per
        # lane, of 16 bytes for all eight outputs and of 2, 4 or 8 for fewer
        c = (dct_basis().T if inverse else dct_basis()).T  # [lane i, k]
        size = 1 << b
        sv = np.arange(1 - size, size)[None, :, None]
        w = np.floor(np.abs(c) * size + 0.5).astype(np.int64)[:, None, :]  # [i, 1, k]
        # prefix_ones bit by bit, independent of the table's doubling
        ones = sum(((np.abs(sv) >> j) & 1) * ((w + (1 << (b - 1 - j))) >> (b - j))
                   for j in range(b))
        want = np.sign(sv) * np.where(c < 0, -1, 1)[:, None, :] * ones
        # stage 1 takes the raw pixel p: the sample (4 * p) >> (10 - b), never negative
        pixel_sv = [(4 * p) >> (SAMPLE_WIDTH - b) for p in range(256)]
        for outs in NARROW_OUTS:
            rows = _product_rows(b, inverse, outs)
            width = 1 if len(outs) == 1 else 2 if len(outs) == 2 else 4 if len(outs) <= 4 else 8
            assert rows.shape == (N, 2 * size - 1, 1) and rows.flags.c_contiguous, outs
            assert rows.itemsize == 2 * width and not rows.flags.writeable, outs
            products = rows.view(np.int16)
            assert np.array_equal(products[..., :len(outs)], want[..., outs]), outs
            assert not products[..., len(outs):].any(), outs
            if not inverse:
                by_pixel, lo = _stage_rows(b, 1, outs)
                assert lo == 0, outs
                assert by_pixel.shape == (N, 256, 1) and by_pixel.dtype == rows.dtype, outs
                assert not by_pixel.flags.writeable, outs
                assert np.array_equal(by_pixel.view(np.int16)[..., :len(outs)],
                                      want[:, [s + size - 1 for s in pixel_sv]][..., outs]), outs

    @pytest.mark.parametrize("b", BITWIDTHS)
    def test_saturation_tables_take_every_signed_sum(self, b):
        # stages 2 and 3 gather at the sample of the last stage's sum: row k is
        # _product_rows at the sample lo + k, and the row _samples picks for each
        # sum of the last stage's reach holds the sample that sum saturates to;
        # stage 4 gathers at the last sum less lo, and a clip-mode lookup past its
        # span saturates, for every sum in [-8 * 2**b, 8 * 2**b]
        top = (1 << b) - 1
        third, lo3 = _stage_rows(b, 3)
        for name, mask in PRUNING_MASKS.items():
            rows, cols = mask.kept_rows, mask.kept_cols
            if not rows:
                continue
            second, lo2 = _stage_rows(b, 2, rows, cols)
            # over the reach of the kept rows' stage 1, or the all-pass stage-2 one
            for table, lo, products, reach in (
                    (second, lo2, _product_rows(b, False, cols), _stage_rows(b, 1, rows)[0]),
                    (third, lo3, _product_rows(b, True, _ALL), _stage_rows(b, 2)[0])):
                assert not table.flags.writeable and table.dtype == products.dtype, name
                table, products = table.view(np.int16), products.view(np.int16)
                reach = _reach(reach)
                sample = np.arange(lo, lo + table.shape[1])
                assert np.array_equal(table, products[:, sample + top]), name
                assert (lo, sample[-1]) == tuple(int(v / 4) for v in reach), name
                acc = np.arange(reach[0], reach[1] + 1)
                want = products[:, _saturated(acc, b, False)[0] + top]
                assert np.array_equal(table[:, _samples(acc.astype(np.int16), lo)], want), name
        if b == 10:  # the spans the docs give
            assert _stage_rows(b, 2)[1] == -361 and _stage_rows(b, 2)[0].shape[1] == 1084
            assert (lo3, third.shape[1]) == (-384, 897)
        q = 1 << (b - 2)
        table, lo = _stage_rows(b, 4)
        assert lo == -q and table.shape == (N, 2 * q + 1, 1) and not table.flags.writeable
        acc = np.arange(-N << b, (N << b) + 1)
        want = _product_rows(b, True, _ALL)[:, _saturated(acc, b, True)[0] + top].view(np.int16)
        # through the engine's kernel, one lane at a time
        got = np.stack([_stage((acc - lo)[None], table, (lane,)) for lane in range(N)])
        assert np.array_equal(got, want)
        assert (got[:, :(N << b) - q + 1] == table[:, :1].view(np.int16)).all()  # -top
        assert (got[:, (N << b) + q:] == table[:, -1:].view(np.int16)).all()  # top
        # a pixel is the 10-bit sample over 4, rounded half away from zero, as the
        # old per-sum table held it: clip((sample << (10 - b)) >> 2, 0, 255)
        raw = _saturated(acc, b, True)[0] << (SAMPLE_WIDTH - b)
        pixels = _to_pixels(acc.astype(np.int16), b)
        assert np.array_equal(pixels, np.clip(raw >> PIXEL_SHIFT, 0, 255))
        assert np.array_equal(pixels, np.clip(np.sign(raw) * ((np.abs(raw) + 2) >> 2), 0, 255))
        assert pixels.max() == (top << (SAMPLE_WIDTH - b)) >> PIXEL_SHIFT

    def test_tables_fit_in_1_mib(self, monkeypatch):
        # the distinct tables _fixed_band reads for the benchmark's two masks at
        # every width: the stage-2 tables per mask, the rest shared by both
        tables, stage = {}, arsc.dct._stage

        def recording(idx, rows, lanes):
            tables[id(rows)] = rows
            return stage(idx, rows, lanes)

        monkeypatch.setattr(arsc.dct, "_stage", recording)
        block = np.zeros((N, N), dtype=np.uint8)
        for mask in (FrequencyMask.lowpass(4), FrequencyMask.allpass()):
            for b in BITWIDTHS:
                _fixed_band(block, b, mask)
        assert len(tables) == 2 * 4 * len(BITWIDTHS) - 2 * len(BITWIDTHS)
        assert sum(t.nbytes for t in tables.values()) <= 1 << 20

    @pytest.mark.parametrize("b", BITWIDTHS)
    def test_samples_truncate_every_sum(self, b):
        # stages 2 and 3 index their tables at trunc(sum / 4) - lo: every sum in
        # [-8 * 2**b, 8 * 2**b], so each residue mod 4 of either sign, against
        # float64 division; a slice of a stage's outputs, as _fixed_band passes
        # it, is read through and left unchanged
        acc = np.arange(-N << b, (N << b) + 1, dtype=np.int16)
        sums = acc[1:].reshape(-1, N)
        kept = sums.copy()
        for lo in (_stage_rows(b, 2)[1], _stage_rows(b, 3)[1], 0, 5):
            got = _samples(acc, lo)
            assert got.dtype == np.int16 and np.array_equal(got, np.trunc(acc / 4.0) - lo), lo
            got = _samples(sums[:, :3], lo)
            assert np.array_equal(got, np.trunc(kept[:, :3] / 4.0) - lo), lo
            assert np.array_equal(sums, kept), lo

    @pytest.mark.parametrize("b", BITWIDTHS)
    def test_clamps_at_both_bounds(self, b):
        # an inverse sum clamps once |sum| << 2 passes 2**b - 1
        bound = (1 << (b - 2)) - 1
        acc = np.array([-bound - 1, -bound, bound, bound + 1], dtype=np.int16)
        assert [_clamps(acc[k:k + 1], b) for k in range(4)] == [1, 0, 0, 1]
        assert _clamps(acc, b) == 2
        assert _clamps(np.arange(-N << b, (N << b) + 1, dtype=np.int16), b) == (16 << b) - 2 * bound

    @pytest.mark.parametrize("b", BITWIDTHS)
    def test_products_err_by_bit_plane_terms(self, b):
        # Sim and Lee's counter-based product is linear in its sample's bits x_j:
        # prefix_ones(x, b, w) - x * w / 2**b = sum_j x_j * e_j(w), where
        # e_j(w) = floor((w + 2**(b-1-j)) / 2**(b-j)) - w / 2**(b-j) lies in
        # (-1/2, 1/2]. Scaled by 2**b every term is an exact integer.
        w = np.unique(np.floor(np.abs(dct_basis()) * (1 << b) + 0.5).astype(np.int64))
        j = np.arange(b)[:, None]
        e = ((w + (1 << (b - 1 - j))) >> (b - j) << b) - (w << j)  # [j, w]: 2**b * e_j(w)
        assert np.all(-(1 << (b - 1)) < e) and np.all(e <= 1 << (b - 1))
        x = np.arange(1 << b)[:, None]
        err = (prefix_ones_table(b, w).astype(np.int64) << b) - x * w  # [x, w]
        assert np.array_equal(err, ((x >> j.T) & 1) @ e)
        # the largest error over the DCT weights, in counts: 1.22 at b=6, 1.72 at b=10
        assert np.abs(err).max() == {10: 1764, 9: 882, 8: 386, 7: 178, 6: 78}[b]

    @pytest.mark.parametrize("b", BITWIDTHS)
    def test_only_inverse_sums_can_clamp(self, b):
        # _fixed_band drops the forward outputs the mask zeroes and counts no
        # forward clamps: exact only while no forward sum can leave the unclamped
        # span. The largest |sum| of an output takes each lane's largest |product|,
        # as the sample signs are free.
        for inverse, bound in ((False, (4 << b) - 1), (True, (1 << (b - 2)) - 1)):
            rows = _product_rows(b, inverse, _ALL)
            worst = int(np.abs(rows.view(np.int16)).max(axis=1).sum(axis=0).max())
            acc = np.arange(-N << b, (N << b) + 1)
            clamped = _saturated(acc, b, inverse)[1]
            assert np.abs(acc[~clamped]).max() == bound and np.abs(acc[clamped]).min() == bound + 1
            assert (worst > bound) == inverse, (worst, bound)
        assert _clamps(acc.astype(np.int16), b) == np.count_nonzero(clamped)

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("b", [6, 10])
    def test_pruned_stage_matches_dense(self, b, inverse):
        # a stage over some lanes and outputs equals the dense stage whose other
        # lanes hold zeros, restricted to those outputs; with every output kept,
        # the clamp counts agree too
        top = (1 << b) - 1
        rng = np.random.default_rng(b + 20 * inverse)
        for lanes, outs in [((3,), (0,)), ((0, 5), (1, 2, 7)), ((1, 2, 3, 4, 6), (0, 4)),
                            (_ALL, (0, 1, 2, 3)), ((0, 1, 2, 3), _ALL), (_ALL, _ALL)]:
            x = rng.integers(-top, top + 1, size=(len(lanes), 40, N)).astype(np.int16)
            x[:, 0] = top
            dense = np.zeros((N, len(x[0]), N), dtype=np.int16)
            dense[list(lanes)] = x
            want, want_clamps = _stage_samples(dense, b, inverse)
            got, clamps = _stage_samples(x, b, inverse, lanes, outs)
            assert got.shape == (40, N, len(outs))
            assert np.array_equal(got, want[..., outs]), (lanes, outs)
            if outs == _ALL:
                assert clamps == want_clamps, (lanes, outs)


def _int64_sse(a, b):
    d = a.astype(np.int64) - b.astype(np.int64)
    return int((d * d).sum())


def _report(b, img, cycles, clamps, pixels, ref):
    """The PipelineReport of output image img of input pixels at width b, its
    squared errors summed in int64 against the input and the reference image."""
    return PipelineReport(b, pixels.size, cycles, clamps, _int64_sse(img.pixels, pixels),
                          _int64_sse(img.pixels, ref.pixels), output=img)


def _all_widths(pixels, mask):
    """One band_pass over a raster at every width of BITWIDTHS, each width's
    output rows copied into its own image: one PipelineReport per width."""
    outs = np.zeros((len(BITWIDTHS), *pixels.shape), dtype=np.uint8)
    reports = band_pass(pixels.shape[1], _bands(pixels), BITWIDTHS, mask,
                        lambda k, y, rows: np.copyto(outs[k, y:y + len(rows)], rows))
    return [PipelineReport(**vars(r), output=GrayImage(out)) for r, out in zip(reports, outs)]


def _whole_image(pixels, mask):
    """The single-pass formula: the whole image as one band, one width at a time.
    Returns (reference image, one PipelineReport per width of BITWIDTHS)."""
    h, w = pixels.shape
    padded = _pad(pixels)
    ref = GrayImage(_reference_band(padded, mask)[:h, :w])
    reports = []
    for b in BITWIDTHS:
        out, clamps = _fixed_band(padded, b, mask)
        cycles = (padded.size // (N * N) * 2048 << b) // PARALLELISM
        reports.append(_report(b, GrayImage(out[:h, :w]), cycles, clamps, pixels, ref))
    return ref, reports


def _per_block_reference(pixels, mask):
    """The float pipeline block by block: dct2d_ref, the mask, idct2d_ref and
    round-half-away pixels."""
    h, w = pixels.shape
    want = np.zeros((h + N, w + N), dtype=np.uint8)
    for by, bx, blk in _padded_blocks(pixels):
        out = idct2d_ref(dct2d_ref(blk / 256.0) * mask.m) * 256.0
        rounded = np.sign(out) * np.floor(np.abs(out) + 0.5)
        want[by:by + N, bx:bx + N] = np.clip(rounded, 0, 255)
    return want[:h, :w]


def _assert_dense_reports(pixels, mask, reports):
    """Each width's report against _dense_chunk over the padded blocks and PSNR
    against the per-block float reference, which it returns."""
    h, w = pixels.shape
    ref = GrayImage(_per_block_reference(pixels, mask))
    blocks = np.stack([blk for _, _, blk in _padded_blocks(pixels)])
    grid = (-(-h // N), -(-w // N), N, N)
    for b, rep in zip(BITWIDTHS, reports):
        out, clamps = _dense_chunk(blocks, b, mask)
        img = out.reshape(grid).swapaxes(1, 2).reshape(grid[0] * N, -1)
        cycles = (len(blocks) * 2048 << b) // PARALLELISM
        assert rep == _report(b, GrayImage(img[:h, :w]), cycles, clamps, pixels, ref), (h, w, b)
    return ref


class TestBands:
    """The band loop against the whole image at once, with band edges at
    every block row, mid-image, and the last band padded at the bottom."""

    @pytest.mark.parametrize("mask", [FrequencyMask.allpass(), FrequencyMask.lowpass(4)])
    @pytest.mark.parametrize("chunk", [1, 3, 10, arsc.dct.CHUNK_BLOCKS])
    def test_matches_whole_image(self, chunk, mask, monkeypatch):
        monkeypatch.setattr(arsc.dct, "CHUNK_BLOCKS", chunk)
        rng = np.random.default_rng(chunk)
        # the last shape is wider than one band, so each band is one block row
        shapes = [(1, 1), (1, 77), (37, 29), (101, 64), (8, 8 * (chunk + 3))]
        for shape in shapes:
            pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
            ref, want = _whole_image(pixels, mask)
            got = _all_widths(pixels, mask)
            assert got == want, shape
            assert [r.output.pixels.shape for r in got] == [shape] * len(BITWIDTHS)
            assert reference_pipeline(GrayImage(pixels), mask) == ref, shape

    @pytest.mark.parametrize("mask", [FrequencyMask.allpass(), FrequencyMask.lowpass(4),
                                      PRUNING_MASKS["hole"]], ids=["allpass", "lowpass:4", "hole"])
    def test_narrow_images(self, mask):
        # one block column or row; 8200 rows cross a band edge. A float band built
        # with astype would keep the band's transposed layout, and the reference's
        # last product would write into a copy
        assert N * arsc.dct.CHUNK_BLOCKS < 8200
        rng = np.random.default_rng(17)
        for shape in [(16, 8), (8, 16), (1000, 5), (5, 1000), (8200, 8)]:
            pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
            pixels[:, ::3] = rng.integers(0, 2, size=pixels[:, ::3].shape) * 255  # full swing
            ref = _assert_dense_reports(pixels, mask, _all_widths(pixels, mask))
            assert reference_pipeline(GrayImage(pixels), mask) == ref, shape

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**64 - 1),
           st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_odd_sizes_and_full_swing(self, h, w, mask_bits, chunk, seed):
        # any size up to 9 by 9 blocks, bands of up to 12 blocks that end inside the
        # image, any of the 2**64 masks, and random pixels between 0/255 columns
        mask = _bits_mask(mask_bits)
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        swing = rng.random(w) < 0.5
        pixels[:, swing] = rng.integers(0, 2, size=(h, int(swing.sum()))) * 255
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arsc.dct, "CHUNK_BLOCKS", chunk)
            reports = _all_widths(pixels, mask)
        _assert_dense_reports(pixels, mask, reports)

    @pytest.mark.parametrize("shape", [(8, 8), (16, 24), (9, 8), (8, 13), (1, 1), (23, 40)])
    def test_to_blocks_edge_pads_only_partial_blocks(self, shape):
        # _pad, the raster padding helper: row r and column c of the padded
        # raster repeat the nearest edge pixel, and an aligned raster is not copied
        pixels = np.random.default_rng(3).integers(0, 256, size=shape).astype(np.uint8)
        h, w = shape
        rows = np.minimum(np.arange(-(-h // N) * N), h - 1)
        cols = np.minimum(np.arange(-(-w // N) * N), w - 1)
        got = _pad(pixels)
        assert np.array_equal(got, pixels[np.ix_(rows, cols)])
        assert (got is pixels) == (h % N == 0 and w % N == 0)


class TestReferenceBand:
    """The float reference in pieces of whole block rows, and its all-pass identity,
    on which band_pass relies to run no reference for an all-pass mask."""

    def test_allpass_returns_the_band(self):
        # with every coefficient kept, the four GEMMs return the integer input to
        # within 7e-13 (20,000 random and 0/255 blocks), far inside the 0.5 that
        # would move a rounded pixel
        rng = np.random.default_rng(401)
        images = [reference_image().pixels]
        for k in range(40):
            pixels = rng.integers(0, 256, size=rng.integers(1, 150, 2), dtype=np.uint8)
            images.append(pixels if k % 2 else pixels // 128 * 255)  # odd k: full swing
        for pixels in images:
            padded = _pad(pixels)
            assert np.array_equal(_reference_band(padded, FrequencyMask.allpass()), padded), \
                pixels.shape

    @pytest.mark.parametrize("mask", [FrequencyMask.lowpass(4), PRUNING_MASKS["hole"]],
                             ids=["lowpass:4", "hole"])
    def test_pieces_match_one_piece(self, mask):
        # halves of whole block rows that are unequal (3+2, 7+6 and 13+12 block rows)
        # and a band of one block row, which runs as one piece: each gives the
        # block-by-block pixels
        rng = np.random.default_rng(512)
        for shape in [(37, 29), (101, 64), (200, 136), (8, 1000)]:
            pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
            pixels[:, ::3] = pixels[:, ::3] // 128 * 255  # full swing
            got = _reference_band(_pad(pixels), mask)[:shape[0], :shape[1]]
            assert np.array_equal(got, _per_block_reference(pixels, mask)), shape

    @pytest.mark.parametrize("mask", [FrequencyMask.lowpass(4), FrequencyMask.allpass()],
                             ids=["lowpass:4", "allpass"])
    def test_band_working_set(self, mask):
        # one warm band_pass over one band of 1024 blocks at every width. The float
        # scratch holds two half bands (512 KiB) and is freed before the fixed-point
        # stages run, and all-pass runs no reference: 643 and 646 KiB, where scratch
        # held for the pass took 1063 KiB with lowpass:4
        pixels = reference_image().pixels
        assert arsc.dct._band_rows(pixels.shape[1]) == len(pixels)
        band_pass(pixels.shape[1], _bands(pixels), BITWIDTHS, mask)  # the tables are cached
        tracemalloc.start()
        try:
            band_pass(pixels.shape[1], _bands(pixels), BITWIDTHS, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 2**20, peak


class TestBandPassRecord:
    """band_pass's record per width holds exact integers, and its PSNRs derive from them."""

    @pytest.mark.parametrize("mask", [FrequencyMask.lowpass(4), FrequencyMask.allpass()],
                             ids=["lowpass:4", "allpass"])
    @pytest.mark.parametrize("shape", [None, (523, 1037)], ids=["reference", "ragged"])
    def test_fields_are_exact(self, shape, mask):
        pixels = (reference_image().pixels if shape is None else
                  np.random.default_rng(523).integers(0, 256, size=shape, dtype=np.uint8))
        ref = reference_pipeline(GrayImage(pixels), mask).pixels
        records = band_pass(pixels.shape[1], _bands(pixels), BITWIDTHS, mask)
        for b, got, rep in zip(BITWIDTHS, records, _all_widths(pixels, mask)):
            assert type(got) is WidthReport and vars(rep) == {**vars(got), "output": rep.output}
            assert all(type(value) is int for value in vars(got).values())
            assert (got.bitwidth, got.pixels) == (b, pixels.size)
            assert got.sse_input == _int64_sse(rep.output.pixels, pixels)
            assert got.sse_reference == _int64_sse(rep.output.pixels, ref)
            assert got.psnr_vs_input == _psnr_db(got.sse_input, got.pixels)
            assert got.psnr_vs_reference == _psnr_db(got.sse_reference, got.pixels)
            assert got.sse_reference > 0 and rep.psnr_vs_reference == got.psnr_vs_reference


    def test_sse_past_one_uint32_chunk(self):
        # _sse sums the squares in uint32 over chunks of 2**16; 2**17 + 1 squares
        # of 255 fill two chunks and start a third, and add up past 2**32
        n = (1 << 17) + 1
        assert _sse(np.zeros(n, np.uint8), np.full(n, 255, np.uint8)) == n * 65025 > 1 << 32
        # one band of 65,600 full-swing pixels
        pixels = np.random.default_rng(8200).integers(0, 2, (8, 8200), dtype=np.uint8) * 255
        assert arsc.dct._band_rows(pixels.shape[1]) == len(pixels)
        mask = FrequencyMask.lowpass(4)
        ref = reference_pipeline(GrayImage(pixels), mask).pixels
        for rep in _all_widths(pixels, mask):
            assert rep.sse_input == _int64_sse(rep.output.pixels, pixels)
            assert rep.sse_reference == _int64_sse(rep.output.pixels, ref)


class TestGrayImage:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4), dtype=np.uint8))

    @pytest.mark.parametrize("pixels", [np.zeros((2, 2)), np.zeros((2, 2), dtype=np.int64),
                                        np.zeros(4, dtype=np.uint8)])
    def test_only_2d_uint8_accepted(self, pixels):
        with pytest.raises(ValueError):
            GrayImage(pixels)

    def test_equal_only_to_images(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        assert img.__eq__(1) is NotImplemented
        assert (img == 1) is False

    def test_reference_image_shape(self):
        img = reference_image()
        assert (img.height, img.width) == (256, 256)
        # regenerating is deterministic
        assert reference_image() == img
