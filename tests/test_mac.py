"""The scalar MAC model the engine tests use as their oracle (mac_model):
truncation, sign handling, exact accumulation; and the accuracy-select code."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arsc.mac import BITWIDTHS, AccuracySelect
from arsc.sc_core import UnsignedFixed, prefix_ones
from mac_model import SignMagnitude, mac, restore_width, signed_product, truncate


def sm(sign, raw, width=10):
    return SignMagnitude(sign, UnsignedFixed(width, raw))


class TestAccuracySelect:
    def test_code_bitwidth_bijection(self):
        assert [AccuracySelect(c).bitwidth for c in range(5)] == [10, 9, 8, 7, 6]
        for b in BITWIDTHS:
            assert AccuracySelect.from_bitwidth(b).bitwidth == b

    def test_fits_three_bits(self):
        assert all(AccuracySelect(c).code < 8 for c in range(5))

    def test_bad_values(self):
        with pytest.raises(ValueError):
            AccuracySelect(5)
        with pytest.raises(ValueError):
            AccuracySelect.from_bitwidth(11)


class TestSignMagnitude:
    def test_negative_zero_equals_positive_zero(self):
        assert sm(-1, 0) == sm(1, 0)
        assert hash(sm(-1, 0)) == hash(sm(1, 0))

    def test_value(self):
        assert sm(-1, 512).value == -0.5

    def test_from_float_rounds_ties_away(self):
        assert SignMagnitude.from_float(0.5, 3).mag.raw == 4
        # 0.3125 * 8 = 2.5 rounds away from zero to 3
        assert SignMagnitude.from_float(0.3125, 3).mag.raw == 3
        assert SignMagnitude.from_float(-0.3125, 3) == sm(-1, 3, 3)

    def test_from_float_range(self):
        assert SignMagnitude.from_float(1.0, 4).mag.raw == 16
        with pytest.raises(ValueError):
            SignMagnitude.from_float(1.1, 4)


class TestTruncateRestore:
    def test_truncate_example(self):
        x = sm(1, 0b1011001110)
        out = truncate(x, AccuracySelect.from_bitwidth(8))
        assert out.mag.raw == 0b10110011
        assert out.sign == 1

    def test_truncate_identity_at_full_width(self):
        x = sm(-1, 0b1011001110)
        assert truncate(x, AccuracySelect.from_bitwidth(10)) == x

    def test_small_magnitudes_vanish(self):
        assert truncate(sm(1, 0b0000000011), AccuracySelect.from_bitwidth(6)).mag.raw == 0

    def test_truncate_wider_than_input(self):
        with pytest.raises(ValueError):
            truncate(sm(1, 3, 8), AccuracySelect.from_bitwidth(10))

    def test_restore_example(self):
        p = sm(1, 0b10110011, 8)
        assert restore_width(p, 10).mag.raw == 0b1011001100

    def test_restore_identity_and_zero(self):
        assert restore_width(sm(-1, 7, 8), 8) == sm(-1, 7, 8)
        assert restore_width(sm(1, 0, 6), 10).mag.raw == 0

    def test_restore_narrower_rejected(self):
        with pytest.raises(ValueError):
            restore_width(sm(1, 3, 10), 8)

    @given(st.integers(0, 1023), st.sampled_from((1, -1)), st.sampled_from(BITWIDTHS))
    @settings(max_examples=200)
    def test_round_trip_error_bound(self, raw, sign, b):
        x = sm(sign, raw)
        sel = AccuracySelect.from_bitwidth(b)
        back = restore_width(truncate(x, sel), 10)
        assert abs(back.mag.raw - raw) < (1 << (10 - b))
        if back.mag.raw:
            assert back.sign == sign


class TestSignedProduct:
    def test_unit_coefficient(self):
        # popcount of the full stream recovers the operand magnitude
        out = signed_product(sm(-1, 4, 3), sm(1, 8, 3))
        assert out.value == -4

    def test_zero_magnitude(self):
        assert signed_product(sm(1, 0, 3), sm(-1, 5, 3)).value == 0
        assert signed_product(sm(-1, 5, 3), sm(1, 0, 3)).value == 0

    def test_prefix_example(self):
        # x = +5/8, weight 4: stream prefix 1,0,1,1 counts 3; XOR gives minus
        out = signed_product(sm(1, 5, 3), sm(-1, 4, 3))
        assert out == (-3, 4)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            signed_product(sm(1, 5, 3), sm(1, 5, 4))

    def test_sign_table(self):
        for sx in (1, -1):
            for sc in (1, -1):
                out = signed_product(sm(sx, 4, 3), sm(sc, 8, 3))
                assert out.value == sx * sc * 4


class TestMac:
    def test_unit_coefficient_full_width_is_identity(self):
        sel = AccuracySelect.from_bitwidth(10)
        for raw in (0, 1, 511, 1023):
            r = mac([sm(1, raw)], [sm(1, 1 << 10)], sel)
            assert r.value == sm(1, raw)
            assert not r.clamped

    def test_unit_coefficient_truncated(self):
        sel = AccuracySelect.from_bitwidth(8)
        r = mac([sm(-1, 0b1011001110)], [sm(1, 1 << 10)], sel)
        assert r.value == sm(-1, 0b1011001100)

    def test_all_zero_coefficients(self):
        sel = AccuracySelect.from_bitwidth(10)
        xs = [sm(1, 100), sm(-1, 200)]
        cs = [sm(1, 0), sm(-1, 0)]
        r = mac(xs, cs, sel)
        assert r.value.mag.raw == 0
        assert r.cycles_data == 0

    def test_symmetric_cancellation(self):
        # both lanes produce magnitude 64 with opposite signs
        sel = AccuracySelect.from_bitwidth(8)
        r = mac([sm(1, 512), sm(1, 512)], [sm(1, 512), sm(-1, 512)], sel)
        assert r.value.mag.raw == 0

    def test_cycle_accounting(self):
        sel = AccuracySelect.from_bitwidth(8)
        xs = [sm(1, 512), sm(1, 0), sm(-1, 512)]
        cs = [sm(1, 512), sm(1, 512), sm(1, 0)]
        r = mac(xs, cs, sel)
        assert r.cycles_fixed == 3 * 256
        # only the first lane runs: 512/1024 quantizes to weight 128
        assert r.cycles_data == 128
        assert r.cycles_data <= r.cycles_fixed

    def test_clamp_flag(self):
        sel = AccuracySelect.from_bitwidth(6)
        xs = [sm(1, 1023)] * 8
        cs = [sm(1, 1 << 10)] * 8
        r = mac(xs, cs, sel)
        assert r.clamped
        assert r.value.mag.raw == ((1 << 6) - 1) << 4

    def test_errors(self):
        sel = AccuracySelect.from_bitwidth(10)
        with pytest.raises(ValueError):
            mac([], [], sel)
        with pytest.raises(ValueError):
            mac([sm(1, 1)], [sm(1, 1), sm(1, 2)], sel)
        with pytest.raises(ValueError):
            mac([sm(1, 1, 10), sm(1, 1, 8)], [sm(1, 1)] * 2, sel)

    def test_result_shift_scales_before_clamp(self):
        # sum of 8 near-unit products overflows unshifted but fits after /4
        sel = AccuracySelect.from_bitwidth(10)
        xs = [sm(1, 716)] * 8
        cs = [sm(1, 362)] * 8
        unshifted = mac(xs, cs, sel)
        shifted = mac(xs, cs, sel, result_shift=2)
        assert unshifted.clamped
        assert not shifted.clamped
        assert shifted.value.mag.raw == (8 * prefix_ones(716, 10, 362)) >> 2

    def test_exact_on_aligned_powers_of_two(self):
        # single-bit operands whose product is at least one count are
        # multiplied without any stochastic error
        sel = AccuracySelect.from_bitwidth(10)
        for j in range(10):
            for s in range(10 - j, 11):
                x = sm(1, 1 << j)
                c = sm(1, 1 << s)
                r = mac([x], [c], sel)
                expected = x.value * c.value
                assert r.value.value == expected, (j, s)

    def test_exact_power_of_two_dot_product(self):
        sel = AccuracySelect.from_bitwidth(10)
        xs = [sm(1, 512), sm(-1, 256), sm(1, 64)]
        cs = [sm(1, 512), sm(1, 512), sm(-1, 1024)]
        r = mac(xs, cs, sel)
        exact = sum(x.value * c.value for x, c in zip(xs, cs))
        assert r.value.value == exact

    @given(
        st.lists(
            st.tuples(st.sampled_from((1, -1)), st.integers(0, 1023),
                      st.sampled_from((1, -1)), st.integers(0, 1024)),
            min_size=1, max_size=8,
        ),
        st.sampled_from(BITWIDTHS),
    )
    @settings(max_examples=150)
    def test_sign_symmetry(self, lanes, b):
        sel = AccuracySelect.from_bitwidth(b)
        xs = [sm(s, r) for s, r, _, _ in lanes]
        cs = [sm(s, r) for _, _, s, r in lanes]
        pos = mac(xs, cs, sel)
        neg = mac([-x for x in xs], cs, sel)
        assert neg.value == -pos.value or pos.value.mag.raw == 0
        assert neg.cycles_data == pos.cycles_data
        assert neg.clamped == pos.clamped

    def test_error_bound_from_measured_multiplier_error(self):
        # oracle: exhaustive worst-case multiplier error at this width
        b = 6
        size = 1 << b
        maxerr = max(
            abs(prefix_ones(x, b, w) / size - x * w / (size * size))
            for x in range(size)
            for w in range(size + 1)
        )
        sel = AccuracySelect.from_bitwidth(b)
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(300):
            n_terms = int(rng.integers(1, 9))
            xs = [sm(int(s), int(r)) for s, r in
                  zip(rng.choice([-1, 1], n_terms), rng.integers(0, 1024, n_terms))]
            cs = [sm(int(s), int(r)) for s, r in
                  zip(rng.choice([-1, 1], n_terms), rng.integers(0, 52, n_terms))]
            r = mac(xs, cs, sel)
            if r.clamped:
                continue
            exact = sum(x.value * c.value for x, c in zip(xs, cs))
            bound = n_terms * (2.0 ** (-b + 1) + maxerr)
            assert abs(r.value.value - exact) <= bound
            checked += 1
        assert checked > 250

    def test_mean_error_non_increasing_in_bitwidth(self):
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(200):
            xs = [sm(int(s), int(r)) for s, r in
                  zip(rng.choice([-1, 1], 8), rng.integers(0, 1024, 8))]
            cs = [sm(int(s), int(r)) for s, r in
                  zip(rng.choice([-1, 1], 8), rng.integers(0, 100, 8))]
            cases.append((xs, cs))
        means = {}
        for b in BITWIDTHS:
            sel = AccuracySelect.from_bitwidth(b)
            errs = [
                abs(mac(xs, cs, sel).value.value
                    - sum(x.value * c.value for x, c in zip(xs, cs)))
                for xs, cs in cases
            ]
            means[b] = float(np.mean(errs))
        for b in (10, 9, 8, 7):
            assert means[b] <= means[b - 1]
