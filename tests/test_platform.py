"""Timing/power/aging models and the reconfiguration policy."""

import decimal

import numpy as np
import pytest

import arsc.platform_model
from arsc.platform_model import (
    AgingSchedule,
    CalibrationError,
    CycleModel,
    FPGA_AGING_ANCHORS,
    FPGA_TABLE,
    PowerModel,
    calibrate_cycles,
    calibrate_power,
    default_aging_schedule,
    default_cycle_model,
    default_platform,
    default_power_model,
    frequency_at_year,
    load_platform,
    min_bitwidth_for_throughput,
    min_frequency_for_throughput,
    select_config,
    throughput,
)

CYCLE_ROWS = [(b, f, lat) for b, f, _, lat in FPGA_TABLE]
POWER_ROWS = [(f, w) for _, f, w, _ in FPGA_TABLE]
BASE_FREQ = FPGA_TABLE[0][1]
TARGET = 7.19


@pytest.fixture(scope="module")
def cm():
    return calibrate_cycles(CYCLE_ROWS)


@pytest.fixture(scope="module")
def pm():
    return calibrate_power(POWER_ROWS)


@pytest.fixture(scope="module")
def schedule():
    return default_aging_schedule()


class TestCalibrateCycles:
    def test_fpga_table_fit(self, cm):
        # independent least-squares oracle over the same points
        x = np.array([float(1 << b) for b, _, _ in CYCLE_ROWS])
        y = np.array([lat * BASE_FREQ * 1e6 for _, _, lat in CYCLE_ROWS])
        a = np.vstack([x, np.ones_like(x)]).T
        slope, intercept = np.linalg.lstsq(a, y, rcond=None)[0]
        assert cm.c_sc == pytest.approx(slope, rel=1e-9)
        assert cm.c_ovh == pytest.approx(intercept, rel=1e-9)
        assert cm.c_sc == pytest.approx(1.14e4, rel=0.01)
        assert cm.c_ovh == pytest.approx(2.65e5, rel=0.05)
        assert cm.c_ovh / cm.c_sc == pytest.approx(23.3, rel=0.10)

    def test_every_row_within_five_percent(self, cm):
        for b, _, lat in CYCLE_ROWS:
            measured = lat * BASE_FREQ * 1e6
            assert abs(cm.cycles_per_frame(b) - measured) / measured <= 0.05

    def test_two_synthetic_rows_exact_recovery(self):
        truth = CycleModel(9000.0, 120000.0)
        base = 50.0
        rows = [(b, base, truth.cycles_per_frame(b) / (base * 1e6)) for b in (10, 7)]
        got = calibrate_cycles(rows)
        assert got.c_sc == pytest.approx(truth.c_sc, rel=1e-9)
        assert got.c_ovh == pytest.approx(truth.c_ovh, rel=1e-6)

    def test_duplicate_bitwidths_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_cycles([(10, 85.7, 0.139), (10, 85.7, 0.140)])

    @pytest.mark.parametrize("bad", [99, 11, 5, -1])
    def test_bitwidth_outside_pipeline_rejected(self, bad):
        with pytest.raises(CalibrationError, match="not in"):
            calibrate_cycles([(bad, 85.7, 0.139), (9, 43.8, 0.071)])

    def test_too_few_rows(self):
        with pytest.raises(CalibrationError):
            calibrate_cycles([(10, 85.7, 0.139)])

    def test_non_positive_base_frequency_rejected(self):
        # the highest-bitwidth row sets the base clock
        with pytest.raises(CalibrationError, match="^base frequency must be positive and finite$"):
            calibrate_cycles([(10, -85.7, 0.139), (6, 7.1, 0.012)])

    def test_latency_falling_with_bitwidth_rejected(self):
        message = r"^cycle fit refused: c_sc must be positive and finite, got -11337\.3958\d*$"
        with pytest.raises(CalibrationError, match=message):
            calibrate_cycles([(10, 85.7, 0.012), (6, 7.1, 0.139)])

    def test_negative_overhead_rejected(self):
        # cycles = 1000 * 2**b - 500000 at a 1 MHz base clock
        rows = [(b, 1.0, (1000 * 2**b - 500000) / 1e6) for b in (10, 9)]
        message = (r"^cycle fit refused: c_ovh must be >= 0 and finite, "
                   r"got -(499999\.9999\d*|500000\.0\d*)$")
        with pytest.raises(CalibrationError, match=message):
            calibrate_cycles(rows)

    def test_residual_bound_enforced(self):
        # wildly non-affine data cannot be fit within 5%
        rows = [(10, 50.0, 0.5), (9, 50.0, 0.01), (8, 50.0, 0.4)]
        with pytest.raises(CalibrationError):
            calibrate_cycles(rows)

    def test_round_trip_within_tenth_percent(self, cm):
        rows = [
            (b, min_frequency_for_throughput(cm, b, TARGET),
             cm.cycles_per_frame(b) / (BASE_FREQ * 1e6))
            for b in (10, 9, 8, 7, 6)
        ]
        rows[0] = (10, BASE_FREQ, rows[0][2])  # keep the base-clock convention
        again = calibrate_cycles(rows)
        assert again.c_sc == pytest.approx(cm.c_sc, rel=1e-3)
        assert again.c_ovh == pytest.approx(cm.c_ovh, rel=1e-3)


class TestCalibratePower:
    def test_fpga_table_fit(self, pm):
        freqs = np.array([f for f, _ in POWER_ROWS])
        watts = np.array([w for _, w in POWER_ROWS])
        a = np.vstack([freqs, np.ones_like(freqs)]).T
        slope, intercept = np.linalg.lstsq(a, watts, rcond=None)[0]
        assert pm.p_dyn == pytest.approx(slope, rel=1e-9)
        assert pm.p_static == pytest.approx(intercept, rel=1e-9)
        assert pm.p_dyn == pytest.approx(2.74e-3, rel=0.01)
        assert pm.p_static == pytest.approx(0.057, rel=0.02)

    def test_rows_within_five_percent(self, pm):
        for f, w in POWER_ROWS:
            assert abs(pm.power(f) - w) / w <= 0.05

    def test_exact_affine_recovery(self):
        truth = PowerModel(0.04, 0.003)
        rows = [(f, truth.power(f)) for f in (10.0, 40.0, 90.0)]
        got = calibrate_power(rows)
        assert got.p_static == pytest.approx(0.04, rel=1e-9)
        assert got.p_dyn == pytest.approx(0.003, rel=1e-9)

    def test_single_row_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_power([(85.7, 0.292)])

    def test_identical_frequencies_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_power([(50.0, 0.2), (50.0, 0.3)])

    def test_power_falling_with_frequency_rejected(self):
        message = r"^power fit refused: p_dyn must be positive and finite, got -0\.0028571428\d*$"
        with pytest.raises(CalibrationError, match=message):
            calibrate_power([(10, 0.3), (80, 0.1)])

    def test_negative_static_power_rejected(self):
        message = (r"^power fit refused: p_static must be >= 0 and finite, "
                   r"got -0\.(00999999\d*|010000\d*|01)$")
        with pytest.raises(CalibrationError, match=message):
            calibrate_power([(10, 0.01), (20, 0.03)])

    def test_intercept_rounding_clamped_to_zero(self):
        # the rounding tolerance is 1e-6 of the largest reading, 0.27 W: 2.7e-7 W
        truth = PowerModel(0.0, 0.003)
        rows = [(f, truth.power(f) - 1e-8) for f in (10.0, 40.0, 90.0)]
        got = calibrate_power(rows)
        assert got.p_static == 0.0
        assert got.p_dyn == pytest.approx(0.003, rel=1e-9)

    def test_intercept_beyond_rounding_refused(self):
        truth = PowerModel(0.0, 0.003)
        rows = [(f, truth.power(f) - 1e-6) for f in (10.0, 40.0, 90.0)]
        message = (r"^power fit refused: p_static must be >= 0 and finite, "
                   r"got -(9\.99\d*e-07|1(\.00\d*)?e-06)$")
        with pytest.raises(CalibrationError, match=message):
            calibrate_power(rows)

    def test_fit_is_correctly_rounded(self, pm, cm):
        # the least-squares line in 60-digit decimal, from the normal equations, each
        # coefficient rounded to float once: what the published calibrate file holds
        def line(x, y):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                x, y = [decimal.Decimal(v) for v in x], [decimal.Decimal(v) for v in y]
                n, sx, sy = len(x), sum(x), sum(y)
                sxx, sxy = sum(a * a for a in x), sum(a * b for a, b in zip(x, y))
                slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
                return float(slope), float((sy - slope * sx) / n)
        assert line(*zip(*POWER_ROWS)) == (pm.p_dyn, pm.p_static)
        base = max(FPGA_TABLE)[1]
        cycles = line([float(1 << b) for b, *_ in FPGA_TABLE],
                      [lat * base * 1e6 for *_, lat in FPGA_TABLE])
        assert cycles == (cm.c_sc, cm.c_ovh)
        assert (pm.p_dyn, cm.c_sc, cm.c_ovh) == (0.002732382592265559, 11358.633652553764,
                                                  274954.1666666664)

    def test_overflowing_fit_refused(self):
        # a slope of 1e308 W over 5e-324 MHz does not fit in a float
        message = r"^power fit failed: integer division result too large for a float$"
        with pytest.raises(CalibrationError, match=message):
            calibrate_power([(5e-324, 1e308), (1e-323, 1.7e308)])

    def test_round_trip_within_tenth_percent(self, pm):
        rows = [(f, pm.power(f)) for f, _ in POWER_ROWS]
        again = calibrate_power(rows)
        assert again.p_static == pytest.approx(pm.p_static, rel=1e-3)
        assert again.p_dyn == pytest.approx(pm.p_dyn, rel=1e-3)


class TestAging:
    def test_endpoints_exact(self, schedule):
        assert frequency_at_year(schedule, 0.0) == 85.7
        assert frequency_at_year(schedule, 10.0) == 75.7

    def test_midpoint(self, schedule):
        assert frequency_at_year(schedule, 5.0) == pytest.approx(80.7)

    def test_no_extrapolation(self, schedule):
        with pytest.raises(ValueError):
            frequency_at_year(schedule, -1.0)
        with pytest.raises(ValueError):
            frequency_at_year(schedule, 10.5)

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            AgingSchedule(((0.0, 85.7),))
        with pytest.raises(ValueError):
            AgingSchedule(((0.0, 85.7), (0.0, 75.7)))
        with pytest.raises(ValueError):
            AgingSchedule(((0.0, 75.7), (10.0, 85.7)))


class TestThroughput:
    def test_published_points(self, cm):
        assert throughput(cm, 10, 85.7) == pytest.approx(7.19, rel=0.05)
        assert throughput(cm, 10, 75.7) == pytest.approx(6.35, rel=0.05)
        assert throughput(cm, 9, 75.7) == pytest.approx(12.42, rel=0.05)

    def test_monotonic_in_frequency_and_bitwidth(self, cm):
        assert throughput(cm, 8, 50.0) > throughput(cm, 8, 40.0)
        for b in (10, 9, 8, 7):
            assert throughput(cm, b, 50.0) < throughput(cm, b - 1, 50.0)

    def test_validation(self, cm):
        with pytest.raises(ValueError, match=r"bitwidth 11 not in \(10, 9, 8, 7, 6\)"):
            throughput(cm, 11, 50.0)
        with pytest.raises(ValueError, match=r"bitwidth 11 not in \(10, 9, 8, 7, 6\)"):
            min_frequency_for_throughput(cm, 11, TARGET)
        with pytest.raises(ValueError):
            throughput(cm, 10, 0.0)


class TestBitwidthSelection:
    def test_published_rows(self, cm):
        assert min_bitwidth_for_throughput(cm, 85.7, TARGET) == 10
        assert min_bitwidth_for_throughput(cm, 43.8, TARGET) == 9

    def test_infeasible(self, cm):
        assert min_bitwidth_for_throughput(cm, 1.0, TARGET) is None

    def test_target_checks(self, cm):
        with pytest.raises(ValueError, match="^target throughput must be positive$"):
            min_bitwidth_for_throughput(cm, 85.7, 0)
        with pytest.raises(ValueError, match="^target throughput must be >= 0$"):
            min_frequency_for_throughput(cm, 8, -1)

    def test_min_frequency_published(self, cm):
        assert min_frequency_for_throughput(cm, 9, TARGET) == pytest.approx(43.8, rel=0.05)
        assert min_frequency_for_throughput(cm, 6, TARGET) == pytest.approx(7.1, rel=0.05)
        assert min_frequency_for_throughput(cm, 8, 0.0) == 0.0

    def test_min_frequency_sustains_target(self, cm):
        for b in (10, 9, 8, 7, 6):
            f = min_frequency_for_throughput(cm, b, TARGET)
            assert throughput(cm, b, f) == pytest.approx(TARGET, rel=1e-9)


class TestSelectConfig:
    def test_year_zero_full_accuracy(self, cm, pm, schedule):
        op = select_config(cm, pm, schedule, 0.0, TARGET)
        assert op.bitwidth == 10
        assert op.frequency_mhz == 85.7
        assert op.throughput_fps == pytest.approx(7.19, rel=0.05)

    def test_year_ten_drops_one_bit(self, cm, pm, schedule):
        op = select_config(cm, pm, schedule, 10.0, TARGET)
        assert op.bitwidth == 9
        assert op.frequency_mhz == 75.7
        assert op.throughput_fps == pytest.approx(12.42, rel=0.05)
        assert op.latency_s == pytest.approx(1.0 / op.throughput_fps)

    def test_tiny_target_keeps_max_accuracy(self, cm, pm, schedule):
        assert select_config(cm, pm, schedule, 7.0, 0.001).bitwidth == 10

    def test_infeasible_target(self, cm, pm, schedule):
        # no width is chosen, but the aged clock and its power are still reported
        op = select_config(cm, pm, schedule, 3.0, 1e6)
        assert op.bitwidth is None and op.throughput_fps is None and op.latency_s is None
        assert op.frequency_mhz == frequency_at_year(schedule, 3.0)
        assert op.power_w == pm.power(op.frequency_mhz)

    def test_monotone_in_frequency(self, cm, pm):
        # a lower clock never yields a larger chosen width
        prev_b = 11
        for f in np.linspace(120.0, 2.0, 60):
            b = min_bitwidth_for_throughput(cm, float(f), TARGET)
            if b is None:
                break
            assert b <= prev_b
            prev_b = b


class TestModelShape:
    def test_halving_property(self, cm):
        for b in (10, 9, 8, 7):
            ratio = cm.cycles_per_frame(b) / cm.cycles_per_frame(b - 1)
            assert 1.7 < ratio < 2.0

    def test_about_twelve_times(self, cm):
        assert 11 <= cm.cycles_per_frame(10) / cm.cycles_per_frame(6) <= 13

    def test_power_saving_near_74_percent(self, cm, pm):
        f6 = min_frequency_for_throughput(cm, 6, TARGET)
        saving = 1 - pm.power(f6) / pm.power(BASE_FREQ)
        assert 0.72 <= saving <= 0.76

    def test_defaults_are_consistent(self):
        assert default_cycle_model().c_sc > 0
        assert default_power_model().p_dyn > 0
        assert default_aging_schedule().span == (0.0, 10.0)

    def test_defaults_fitted_once(self, monkeypatch):
        fits, fit = [], arsc.platform_model.calibrate_platform
        monkeypatch.setattr(arsc.platform_model, "calibrate_platform",
                            lambda rows: fits.append(rows) or fit(rows))
        default_platform.cache_clear()
        cfg = load_platform(None)
        assert (default_cycle_model(), default_power_model(), default_aging_schedule()) == (
            cfg.cycle_model, cfg.power_model, cfg.schedule)
        assert default_platform() is cfg
        assert fits == [FPGA_TABLE]

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CycleModel(-1.0, 0.0)
        with pytest.raises(ValueError):
            CycleModel(1.0, -5.0)
        with pytest.raises(ValueError):
            PowerModel(0.1, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        for make in (
            lambda: CycleModel(bad, 0.0),
            lambda: CycleModel(1.0, bad),
            lambda: PowerModel(bad, 0.1),
            lambda: PowerModel(0.1, bad),
            lambda: AgingSchedule(((0.0, 85.7), (bad, 75.7))),
            lambda: AgingSchedule(((0.0, 85.7), (10.0, bad))),
        ):
            with pytest.raises(ValueError):
                make()
        with pytest.raises(CalibrationError):
            calibrate_cycles(CYCLE_ROWS[:-1] + [(6, 7.1, bad)])
        with pytest.raises(CalibrationError):
            calibrate_power(POWER_ROWS[:-1] + [(7.1, bad)])
