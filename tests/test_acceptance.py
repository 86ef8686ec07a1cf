"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines and the measured-vs-published PSNR table.
"""

import math
import time

import numpy as np
import pytest

from arsc.cli import _fold_seed, main
from arsc.dct import FrequencyMask, GrayImage, dct1d_ref, idct1d_ref, process_image
from arsc.mac import AccuracySelect
from arsc.pgm import write_pgm
from arsc.platform_model import (
    FPGA_TABLE,
    calibrate_cycles,
    calibrate_power,
    default_aging_schedule,
    frequency_at_year,
    min_frequency_for_throughput,
    select_config,
    throughput,
)
from arsc.refimage import reference_image
from arsc.sc_core import (
    ALTERNATE_TAPS,
    LfsrConfig,
    UnsignedFixed,
    and_multiply,
    cbsc_multiply,
    sng_conventional,
    sng_deterministic,
    stream_to_binary,
    unary_gen,
)

TARGET = 7.19
# Published characterization of the FPGA implementation (not
# desk-reproducible: its test image and mask are unspecified).
PUBLISHED_PSNR = {10: 38.12, 9: 34.68, 8: 31.27, 7: 28.70, 6: 27.45}


def _check(num, desc, fn, budget_s):
    start = time.time()
    try:
        fn()
    except Exception:
        print(f"\nACCEPTANCE {num} FAIL: {desc}")
        raise
    elapsed = time.time() - start
    print(f"\nACCEPTANCE {num} PASS: {desc} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_multiplier_identity():
    def run():
        for n in range(3, 9):
            size = 1 << n
            for x in range(size):
                xv = UnsignedFixed(n, x)
                stream = sng_deterministic(xv)
                for w in range(size + 1):
                    gate = stream_to_binary(and_multiply(stream, unary_gen(w, size)))
                    assert cbsc_multiply(xv, w).product == gate, (n, x, w)

    _check(1, "counter formulation equals gate-level oracle, exhaustive n=3..8",
           run, budget_s=10)


def test_criterion_2_sng_structure():
    def run():
        for n in range(3, 11):
            size = 1 << n
            for x in range(size):
                s = sng_deterministic(UnsignedFixed(n, x))
                assert s.popcount == x
                assert (s.word >> (size - 1)) & 1 == 0
                for i in range(1, n + 1):
                    bit = (x >> (n - i)) & 1
                    pos = 1 << (i - 1)
                    while pos <= size:
                        assert (s.word >> (pos - 1)) & 1 == bit, (n, x, i, pos)
                        pos += 1 << i

    _check(2, "popcount, final zero, and bit placement exact for n=3..10",
           run, budget_s=10)


def test_criterion_3_dct_orthonormality():
    def run():
        rng = np.random.default_rng(20240301)
        for _ in range(1000):
            a = rng.uniform(-1.0, 1.0, 8)
            f = dct1d_ref(a)
            assert np.max(np.abs(idct1d_ref(f) - a)) < 1e-9
            assert abs(np.linalg.norm(f) - np.linalg.norm(a)) < 1e-9

    _check(3, "1000 random round trips < 1e-9, Parseval < 1e-9", run, budget_s=1)


def test_criterion_4_table_reproduction():
    def run():
        cm = calibrate_cycles([(b, f, lat) for b, f, _, lat in FPGA_TABLE])
        pm = calibrate_power([(f, w) for _, f, w, _ in FPGA_TABLE])
        base = FPGA_TABLE[0][1]
        for b, freq, watts, latency in FPGA_TABLE:
            f_pred = min_frequency_for_throughput(cm, b, TARGET)
            assert f_pred == pytest.approx(freq, rel=0.05), f"freq b={b}"
            assert pm.power(freq) == pytest.approx(watts, rel=0.05), f"power b={b}"
            lat_pred = cm.cycles_per_frame(b) / (base * 1e6)
            assert lat_pred == pytest.approx(latency, rel=0.05), f"latency b={b}"

    _check(4, "calibrated models reproduce all five published rows within 5%",
           run, budget_s=1)


def test_criterion_5_aging_narrative():
    def run():
        cm = calibrate_cycles([(b, f, lat) for b, f, _, lat in FPGA_TABLE])
        pm = calibrate_power([(f, w) for _, f, w, _ in FPGA_TABLE])
        sched = default_aging_schedule()
        assert frequency_at_year(sched, 0.0) == 85.7
        assert frequency_at_year(sched, 10.0) == 75.7
        assert throughput(cm, 10, 75.7) == pytest.approx(6.35, rel=0.05)
        op = select_config(cm, pm, sched, 10.0, TARGET)
        assert op.bitwidth == 9
        assert op.throughput_fps == pytest.approx(12.42, rel=0.05)
        assert 11 <= cm.cycles_per_frame(10) / cm.cycles_per_frame(6) <= 13

    _check(5, "aged clock endpoints, 6.35/12.42 fps points, ~12x cycle span",
           run, budget_s=1)


def test_criterion_6_power_saving():
    def run():
        pm = calibrate_power([(f, w) for _, f, w, _ in FPGA_TABLE])
        saving = 1.0 - pm.power(7.1) / pm.power(85.7)
        assert 0.72 <= saving <= 0.76, f"saving {saving:.4f}"

    _check(6, "frequency scaling to 7.1 MHz saves 72..76% power", run, budget_s=1)


def test_criterion_7_psnr_behavior():
    measured = {}

    def run():
        img = reference_image()
        mask = FrequencyMask.lowpass(4)
        for b in (10, 9, 8, 7, 6):
            rep = process_image(img, AccuracySelect.from_bitwidth(b), mask)
            assert math.isfinite(rep.psnr_vs_reference)
            measured[b] = rep.psnr_vs_reference
        for b in (10, 9, 8, 7):
            assert measured[b] + 0.5 >= measured[b - 1], (b, measured)
        assert measured[10] - measured[6] > 3.0

    _check(7, "PSNR vs float reference finite, monotone in bit-width, >3 dB span",
           run, budget_s=60)
    print("  bit-width | measured dB | published hardware dB (different image/mask)")
    for b in (10, 9, 8, 7, 6):
        print(f"      {b:2d}    |   {measured[b]:6.2f}    |   {PUBLISHED_PSNR[b]:5.2f}")


def test_criterion_8_accuracy_ordering():
    def run():
        n, seed = 6, 1  # documented default seed
        size = 1 << n
        cbsc_errs = []
        for x in range(size):
            for w in range(size):
                p = cbsc_multiply(UnsignedFixed(n, x), w).product
                cbsc_errs.append(abs(p / size - x * w / (size * size)))
        cfg_x = LfsrConfig(n, seed=_fold_seed(seed, n))
        cfg_w = LfsrConfig(n, ALTERNATE_TAPS[n], seed=_fold_seed(seed ^ 0x5A5A5A, n))
        sx = [sng_conventional(UnsignedFixed(n, x), size, cfg_x) for x in range(size)]
        sw = [sng_conventional(UnsignedFixed(n, w), size, cfg_w) for w in range(size)]
        conv_errs = []
        for x in range(size):
            for w in range(size):
                approx = stream_to_binary(and_multiply(sx[x], sw[w])) / size
                conv_errs.append(abs(approx - x * w / (size * size)))
        assert float(np.mean(cbsc_errs)) <= float(np.mean(conv_errs)), (
            np.mean(cbsc_errs), np.mean(conv_errs))

    _check(8, "exhaustive n=6 mean error: counter-based <= conventional (seed 1)",
           run, budget_s=10)


def test_criterion_9_determinism(tmp_path):
    def run():
        img = reference_image()
        src = tmp_path / "ref.pgm"
        write_pgm(img, src)

        outs, reports = [], []
        for i in range(2):
            out = tmp_path / f"out{i}.pgm"
            rep = tmp_path / f"rep{i}.csv"
            rc = main(["compress", "--in", str(src), "--out", str(out),
                       "--bits", "8", "--report", str(rep)])
            assert rc == 0
            outs.append(out.read_bytes())
            reports.append(rep.read_bytes())
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

        # library-level repeatability
        mask = FrequencyMask.lowpass(4)
        sel = AccuracySelect.from_bitwidth(9)
        crop = GrayImage(img.pixels[:64, :64].copy())
        a = process_image(crop, sel, mask)
        b = process_image(crop, sel, mask)
        assert a.output == b.output
        assert a.total_cycles_fixed == b.total_cycles_fixed
        assert a.clamp_count == b.clamp_count

    _check(9, "repeated runs are byte-identical", run, budget_s=60)
