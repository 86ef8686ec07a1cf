"""Command-line interface: all five commands plus their failure modes."""

import hashlib
import json
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import arsc.cli
import arsc.sc_core
from arsc.cli import (
    REPORT_HEADER,
    VERIFY_HEADER,
    _fold_seed,
    _metric_row,
    build_parser,
    main,
    parse_mask,
)
from arsc.dct import (
    FrequencyMask,
    GrayImage,
    _band_rows,
    process_image,
    process_widths,
    reference_pipeline,
)
from arsc.pgm import read_pgm, write_pgm
from arsc.mac import BITWIDTHS, AccuracySelect
from arsc.platform_model import (
    PlatformConfig,
    default_platform,
    load_platform,
    min_frequency_for_throughput,
    save_platform,
    select_config,
)
from arsc.refimage import reference_image
from arsc.sc_core import (
    ALTERNATE_TAPS,
    LfsrConfig,
    UnsignedFixed,
    and_multiply,
    cbsc_multiply,
    lfsr_states,
    sng_conventional,
    sng_deterministic,
    stream_to_binary,
    unary_gen,
)

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

ROWS_CSV = (
    "bitwidth,freq_mhz,power_w,latency_s\n"
    "10,85.7,0.292,0.139\n"
    "9,43.8,0.177,0.071\n"
    "8,22.9,0.120,0.037\n"
    "7,12.4,0.092,0.020\n"
    "6,7.1,0.077,0.012\n"
)


@pytest.fixture
def small_image(tmp_path):
    rng = np.random.default_rng(17)
    img = GrayImage(rng.integers(0, 256, size=(24, 16)).astype(np.uint8))
    p = tmp_path / "in.pgm"
    write_pgm(img, p)
    return p


# every number in a platform file, as a path of keys and indices
PLATFORM_NUMBERS = [
    ("cycle_model", "c_sc_cycles"),
    ("power_model", "p_dyn_w_per_mhz"),
    ("base_freq_mhz",),
    ("aging_anchors_years_mhz", 1, 1),
    ("power_model", "p_static_w"),
    ("cycle_model", "c_ovh_cycles"),
    ("aging_anchors_years_mhz", 0, 0),
]


def _platform_with(tmp_path, field, value):
    """The bundled platform saved to a file, with the entry at `field` set to `value`."""
    path = tmp_path / "p.json"
    save_platform(default_platform(), path)
    doc = json.loads(path.read_text())
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    path.write_text(json.dumps(doc))
    return path


def _count_band_work(tmp_path, monkeypatch, argv):
    """Calls of each band step while main runs argv on the 256x256 reference image,
    and the image's band count."""
    calls = {"_pad": 0, "_reference_band": 0, "_fixed_band": 0}

    def counted(name):
        fn = getattr(arsc.dct, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(arsc.dct, name, counted(name))
    src = tmp_path / "ref256.pgm"
    write_pgm(reference_image(), src)
    assert main([*argv, "--in", str(src)]) == 0
    # 32 x 32 blocks in bands of whole block rows
    bands = -(-32 // max(1, arsc.dct.CHUNK_BLOCKS // 32))
    assert bands < 5
    return calls, bands


class TestCompress:
    def test_basic_run(self, tmp_path, small_image, capsys):
        out = tmp_path / "out.pgm"
        rc = main([
            "compress", "--in", str(small_image), "--out", str(out),
            "--bits", "8", "--mask", "lowpass:4",
        ])
        assert rc == 0
        assert read_pgm(out).pixels.shape == (24, 16)
        stdout = capsys.readouterr().out
        assert "psnr_vs_reference_db" in stdout
        assert "clamp_count" in stdout

    def test_constant_image_stays_close(self, tmp_path, capsys):
        p = tmp_path / "flat.pgm"
        write_pgm(GrayImage(np.full((64, 64), 128, dtype=np.uint8)), p)
        out = tmp_path / "out.pgm"
        rc = main(["compress", "--in", str(p), "--out", str(out),
                   "--bits", "10", "--mask", "allpass"])
        assert rc == 0
        got = read_pgm(out)
        assert int(np.max(np.abs(got.pixels.astype(int) - 128))) <= 4

    def test_report_written_and_stable(self, tmp_path, small_image):
        out = tmp_path / "out.pgm"
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for rep in (r1, r2):
            rc = main(["compress", "--in", str(small_image), "--out", str(out),
                       "--bits", "7", "--report", str(rep)])
            assert rc == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert r1.read_text().splitlines()[0] == REPORT_HEADER

    def test_workers_option_removed(self, tmp_path, small_image):
        with pytest.raises(SystemExit) as exc:
            main(["compress", "--in", str(small_image), "--out", str(tmp_path / "o.pgm"),
                  "--workers", "2"])
        assert exc.value.code != 0

    def test_missing_input(self, tmp_path):
        rc = main(["compress", "--in", str(tmp_path / "nope.pgm"),
                   "--out", str(tmp_path / "o.pgm")])
        assert rc == 1

    def test_malformed_pgm(self, tmp_path, capsys):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n10 ")
        rc = main(["compress", "--in", str(p), "--out", str(tmp_path / "o.pgm")])
        assert rc == 1
        assert "byte" in capsys.readouterr().err

    def test_width_independent_work_runs_once_per_band(self, tmp_path, monkeypatch):
        calls, bands = _count_band_work(tmp_path, monkeypatch,
                                        ["compress", "--out", str(tmp_path / "out.pgm")])
        assert calls == {"_pad": bands, "_reference_band": bands, "_fixed_band": bands}


class TestSweep:
    def test_five_rows(self, tmp_path, small_image):
        rep = tmp_path / "sweep.csv"
        rc = main(["sweep", "--in", str(small_image), "--target", "7.19",
                   "--report", str(rep)])
        assert rc == 0
        lines = rep.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 6
        bits = [int(ln.split(",")[0]) for ln in lines[1:]]
        assert bits == [10, 9, 8, 7, 6]
        freqs = [float(ln.split(",")[1]) for ln in lines[1:]]
        for got, want in zip(freqs, (85.7, 43.8, 22.9, 12.4, 7.1)):
            assert got == pytest.approx(want, rel=0.05)
        powers = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert powers[0] == pytest.approx(0.292, rel=0.05)
        assert powers[-1] == pytest.approx(0.077, rel=0.05)
        lat = [float(ln.split(",")[4]) for ln in lines[1:]]
        for hi, lo in zip(lat, lat[1:]):
            assert 1.7 < hi / lo < 2.0

    @pytest.mark.parametrize("target,warned", [("7.19", []), ("100", [10, 9, 8, 7, 6])])
    def test_unreachable_clock_warns(self, tmp_path, small_image, capsys, target, warned):
        rep = tmp_path / "sweep.csv"
        rc = main(["sweep", "--in", str(small_image), "--target", target,
                   "--report", str(rep)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == rep.read_text()
        err = captured.err.splitlines()
        assert [int(ln.split()[1].split("-")[0]) for ln in err] == warned
        assert all(ln.startswith("warning: ") and "85.7000 MHz base clock" in ln for ln in err)

    def test_width_independent_work_runs_once_per_band(self, tmp_path, monkeypatch):
        calls, bands = _count_band_work(tmp_path, monkeypatch, ["sweep"])
        assert calls == {"_pad": bands, "_reference_band": bands, "_fixed_band": 5 * bands}

    @pytest.mark.parametrize("target", ["nan", "inf", "0", "-7.19"])
    def test_bad_target_usage_error(self, small_image, target):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--in", str(small_image), "--target", target])
        assert exc.value.code == 2


class TestAging:
    def test_endpoints(self, tmp_path):
        rep = tmp_path / "aging.csv"
        rc = main(["aging", "--target", "7.19", "--years", "10", "--report", str(rep)])
        assert rc == 0
        lines = rep.read_text().splitlines()
        assert len(lines) == 12
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == 85.7 and first[2] == "10"
        assert float(first[3]) == pytest.approx(7.19, rel=0.05)
        assert float(last[1]) == 75.7 and last[2] == "9"
        assert float(last[3]) == pytest.approx(12.42, rel=0.05)
        assert all(ln.endswith("yes") for ln in lines[1:])

    def test_infeasible_rows_flagged(self, tmp_path):
        rep = tmp_path / "aging.csv"
        rc = main(["aging", "--target", "1e6", "--years", "2", "--report", str(rep)])
        assert rc == 0
        lines = rep.read_text().splitlines()
        assert all(ln.endswith("no") for ln in lines[1:])

    @pytest.mark.parametrize("target", ["7.19", "9", "1e6"])
    @pytest.mark.parametrize("calibrated", [False, True], ids=["bundled", "calibrated"])
    def test_rows_are_select_config_records(self, tmp_path, target, calibrated):
        platform = []
        if calibrated:  # three of the published rows, latencies 30% longer: a slower fit
            rows = tmp_path / "rows.csv"
            rows.write_text("bitwidth,freq_mhz,power_w,latency_s\n10,85.7,0.292,0.1807\n"
                            "8,22.9,0.120,0.0481\n6,7.1,0.077,0.0156\n")
            assert main(["calibrate", "--rows", str(rows), "--out", str(tmp_path / "p.json")]) == 0
            platform = ["--platform", str(tmp_path / "p.json")]
        rep = tmp_path / "aging.csv"
        assert main(["aging", "--target", target, *platform, "--report", str(rep)]) == 0
        cfg = load_platform(tmp_path / "p.json" if calibrated else None)
        want = []
        for year in range(11):
            op = select_config(cfg.cycle_model, cfg.power_model, cfg.schedule, float(year),
                               float(target))
            chosen = (",,,no" if op.bitwidth is None
                      else f",{op.bitwidth},{op.throughput_fps:.4f},yes")
            want.append(f"{year},{op.frequency_mhz:.4f}{chosen}")
        assert rep.read_text().splitlines()[1:] == want

    @pytest.mark.parametrize("anchors,message", [
        ([[0, 1e308], [10, -1e308]], "anchor frequencies must be positive, got -1e+308"),
        ([[0, 85.7], [10, 0]], "anchor frequencies must be positive, got 0.0"),
        ([[0, 1e308], [1e-10, 1]], "anchor slopes must be finite, got [-inf]"),
    ], ids=["negative", "zero", "overflowing-slope"])
    def test_anchors_refused_when_the_file_loads(self, tmp_path, capsys, anchors, message):
        # the first once loaded, then failed at year 1 naming a clock that was not
        # the cause; the third divided by a tiny year step into an infinite slope
        path = _platform_with(tmp_path, ("aging_anchors_years_mhz",), anchors)
        with pytest.raises(ValueError) as exc:
            load_platform(path)
        assert str(exc.value) == f"malformed platform config {path}: {message}"
        assert main(["aging", "--platform", str(path), "--years", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed platform config {path}: {message}\n"

    def test_years_beyond_schedule(self):
        assert main(["aging", "--target", "7.19", "--years", "12"]) == 1

    def test_years_beyond_schedule_print_nothing(self, tmp_path, capsys):
        rep = tmp_path / "aging.csv"
        assert main(["aging", "--years", "12", "--report", str(rep)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: year 11.0 outside schedule span [0.0, 10.0]\n"
        assert not rep.exists()

    @pytest.mark.parametrize("flags", [["--years", "-3"], ["--target", "nan"]])
    def test_bad_value_usage_error(self, tmp_path, flags):
        rep = tmp_path / "aging.csv"
        with pytest.raises(SystemExit) as exc:
            main(["aging", *flags, "--report", str(rep)])
        assert exc.value.code == 2
        assert not rep.exists()

    @pytest.mark.parametrize("field", PLATFORM_NUMBERS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_platform_refused(self, tmp_path, capsys, field, value):
        path = _platform_with(tmp_path, field, value)
        assert main(["aging", "--platform", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("field", PLATFORM_NUMBERS)
    @pytest.mark.parametrize("value", [True, False, "9.5e4", None])
    def test_non_number_platform_refused(self, tmp_path, capsys, field, value):
        # float() would read true as 1.0 and "9.5e4" as 95000.0
        path = _platform_with(tmp_path, field, value)
        assert main(["aging", "--platform", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        key = field[0] if field[0] == "aging_anchors_years_mhz" else field[-1]
        assert f"{key} must be a number, got {json.dumps(value)}" in captured.err


    @pytest.mark.parametrize("field,value,message", [
        (None, b"[1, 2]", "top level must be an object, got [1, 2]"),
        (("aging_anchors_years_mhz", 0), [0.0, 85.7, 1],
         "aging_anchors_years_mhz entries must be [years, MHz] pairs, got [0.0, 85.7, 1]"),
        (None, b'{"cycle_model": 5}', "cycle_model must be an object, got 5"),
        (None, b"[" * 100000, "nested too deeply"),
        (None, b'{"base_freq_mhz": 85.7\x80}', "not UTF-8 text (invalid start byte at byte 22)"),
    ], ids=["top-level-array", "three-value-anchor", "number-for-model", "deep-nesting",
            "non-utf8"])
    def test_platform_structure_error_names_the_key(self, tmp_path, capsys, field, value,
                                                    message):
        if field is None:
            path = tmp_path / "p.json"
            path.write_bytes(value)
        else:
            path = _platform_with(tmp_path, field, value)
        assert main(["aging", "--platform", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed platform config {path}: {message}\n"


# finite platform numbers whose derived cycles or power overflow to inf
HUGE_MODELS = [
    (("cycle_model", "c_sc_cycles"), "cycle_model overflows: inf cycles per frame at 10 bits"),
    (("power_model", "p_dyn_w_per_mhz"), "power_model overflows: inf W at the 85.7 MHz base clock"),
]


@pytest.mark.parametrize("field,message", HUGE_MODELS, ids=["cycles", "power"])
@pytest.mark.parametrize("command", ["sweep", "compress", "aging"])
def test_huge_platform_models_refused(tmp_path, small_image, capsys, command, field, message):
    path = _platform_with(tmp_path, field, 1e308)
    rep, out = tmp_path / "r.csv", tmp_path / "out.pgm"
    argv = {"sweep": ["sweep", "--in", str(small_image)],
            "compress": ["compress", "--in", str(small_image), "--out", str(out)],
            "aging": ["aging"]}[command]
    assert main([*argv, "--platform", str(path), "--report", str(rep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed platform config {path}: {message}\n"
    assert not rep.exists() and not out.exists()


# finite inputs whose report numbers still overflow to inf after load
OVERFLOWING_RUNS = [
    ("sweep", ["--target", "1e308"], None, "freq_mhz overflows: inf at bitwidth 10"),
    ("aging", [], ("aging_anchors_years_mhz", 0, 1), "throughput_fps overflows: inf at year 0"),
    ("compress", [], ("base_freq_mhz",), "throughput_fps overflows: inf at bitwidth 10"),
]


@pytest.mark.parametrize("command,flags,field,message", OVERFLOWING_RUNS,
                         ids=["sweep-target", "aging-anchor", "compress-base-clock"])
def test_overflowing_report_numbers_refused(tmp_path, small_image, capsys, command, flags,
                                            field, message):
    rep, out = tmp_path / "r.csv", tmp_path / "out.pgm"
    argv = {"sweep": ["sweep", "--in", str(small_image)],
            "compress": ["compress", "--in", str(small_image), "--out", str(out)],
            "aging": ["aging"]}[command] + flags
    if field:
        argv += ["--platform", str(_platform_with(tmp_path, field, 1e308))]
    assert main([*argv, "--report", str(rep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not rep.exists() and not out.exists()
    if command == "compress":  # without --report, no number reads the base clock
        assert main(argv) == 0 and out.exists()


def test_parser_built_once_survives_usage_errors(tmp_path, small_image, capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--in", str(small_image), "--out", str(tmp_path / "o.pgm"),
              "--bits", "7", "--mask", "allpass", "--nope"])
    assert exc.value.code == 2
    rows = tmp_path / "rows.csv"
    rows.write_text(ROWS_CSV)
    # every command parses and runs after it, with its own defaults, not earlier values
    assert main(["compress", "--in", str(small_image), "--out", str(tmp_path / "o.pgm")]) == 0
    assert "bitwidth: 10  mask: lowpass:4" in capsys.readouterr().out
    for argv in (["sweep", "--in", str(small_image)], ["aging", "--years", "1"],
                 ["verify-mul", "--max-n", "3"],
                 ["calibrate", "--rows", str(rows), "--out", str(tmp_path / "p.json")]):
        assert main(argv) == 0, argv
    assert capsys.readouterr().err.count("error") == 0


def test_command_replaced_after_the_parser_is_built_runs(monkeypatch):
    # the parser holds no command function, so a wrapper set later (a tracer's) runs
    build_parser()
    years = []
    monkeypatch.setattr(arsc.cli, "cmd_aging", lambda args: years.append(args.years) or 0)
    assert main(["aging", "--years", "3"]) == 0
    assert years == [3]


class TestVerifyMul:
    def test_small_sweep_passes(self, tmp_path, capsys):
        rep = tmp_path / "v.csv"
        rc = main(["verify-mul", "--max-n", "4", "--report", str(rep)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=3: pairs=72 identity=ok" in out
        assert "n=4: pairs=272 identity=ok" in out
        lines = rep.read_text().splitlines()
        assert len(lines) == 3

    def test_accuracy_ordering_reported(self, capsys):
        rc = main(["verify-mul", "--max-n", "6"])
        assert rc == 0
        for line in capsys.readouterr().out.splitlines():
            assert "cbsc<=conv: yes" in line

    def test_max_n_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-mul", "--max-n", "11"])
        assert exc.value.code == 2

    def test_seed_accepted(self):
        assert main(["verify-mul", "--max-n", "4", "--seed", "3"]) == 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_scalar_gate_level_loop(self, tmp_path, capsys, seed):
        rep = tmp_path / "v.csv"
        assert main(["verify-mul", "--max-n", "7", "--seed", str(seed),
                     "--report", str(rep)]) == 0
        want_out, want_report = _scalar_verify(7, seed)
        assert capsys.readouterr().out == want_out
        assert rep.read_text() == want_report

    def test_identity_violation_detected(self, tmp_path, capsys, monkeypatch):
        real = arsc.sc_core.prefix_ones_table

        def perturbed(width, count):
            out = real(width, count)
            if width == 4:
                out[5, 9] += 1
            return out

        monkeypatch.setattr(arsc.sc_core, "prefix_ones_table", perturbed)
        rep = tmp_path / "v.csv"
        assert main(["verify-mul", "--max-n", "5", "--report", str(rep)]) == 1
        captured = capsys.readouterr()
        identity = [ln.split()[2] for ln in captured.out.splitlines()]
        assert identity == ["identity=ok", "identity=VIOLATED", "identity=ok"]
        assert [r.split(",")[2] for r in rep.read_text().splitlines()[1:]] == ["yes", "no", "yes"]
        assert captured.err == "error: 1 identity violations\n"

    def test_violation_in_last_block_counted_once(self, capsys, monkeypatch):
        real = arsc.sc_core.prefix_ones_table

        def perturbed(width, count):
            out = real(width, count)
            if width == 10:
                out[-1, 700] += 1  # operand 1023 is in the last block of rows
            return out

        monkeypatch.setattr(arsc.sc_core, "prefix_ones_table", perturbed)
        assert main(["verify-mul", "--max-n", "10"]) == 1
        captured = capsys.readouterr()
        identity = [ln.split()[2] for ln in captured.out.splitlines()]
        assert identity == ["identity=ok"] * 7 + ["identity=VIOLATED"]
        assert captured.err == "error: 1 identity violations\n"

    @pytest.mark.parametrize("seed", [0, 2, 7, -5, 123456])
    def test_error_columns_match_float_means(self, tmp_path, seed):
        # the command sums integer errors in units of 4**-n; the float64 means
        # over every pair must round to the same report cells
        rep = tmp_path / "v.csv"
        assert main(["verify-mul", "--max-n", "10", "--seed", str(seed),
                     "--report", str(rep)]) == 0
        for n, row in zip(range(3, 11), rep.read_text().splitlines()[1:], strict=True):
            size = 1 << n
            x, w = np.arange(size)[:, None], np.arange(size + 1)[None, :]
            p = sum(((x >> j) & 1) * ((w + (1 << (n - 1 - j))) >> (n - j)) for j in range(n))
            cbsc = np.abs(p / 2**n - x * w / 4**n)
            # AND counts of the LFSR streams as one exact float32 matrix product
            states = [np.array(list(lfsr_states(cfg, size)))
                      for cfg in (LfsrConfig(n, seed=_fold_seed(seed, n)),
                                  LfsrConfig(n, ALTERNATE_TAPS[n],
                                             seed=_fold_seed(seed ^ 0x5A5A5A, n)))]
            sx, sw = ((s[None, :] < np.arange(size)[:, None]).astype(np.float32) for s in states)
            conv = np.abs((sx @ sw.T) / 2**n - x * w[:, :size] / 4**n)
            assert row == (f"{n},{p.size},yes,{cbsc.max():.8f},{np.mean(cbsc):.8f},"
                           f"{np.mean(conv):.8f}")

    def test_full_width_matches_golden(self, tmp_path):
        golden = json.loads(GOLDEN.read_text())["verify-mul"]
        rep = tmp_path / "verify.csv"
        assert main(["verify-mul", "--max-n", "10", "--seed", "1", "--report", str(rep)]) == 0
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == golden["default_seed"]["verify.csv"]
        got = {r[0]: {"cbsc_max_abs_err": r[3], "cbsc_mean_abs_err": r[4]}
               for r in (ln.split(",") for ln in rep.read_text().splitlines()[1:])}
        assert got == golden["rows"]


X_MASK = "10000001\n01000010\n00100100\n00011000\n00011000\n00100100\n01000010\n10000001\n"
# (height, width): ragged both ways, one block row, and 3 bands with a short last one
STREAM_SIZES = [(13, 77), (8, 4096), (300, 250)]


class TestStreamedImages:
    """compress and sweep stream bands from the input file, through the pipeline,
    into the output file: the same bytes as the whole-image library calls."""

    @pytest.fixture(params=["lowpass:4", "allpass", "file"])
    def mask(self, request, tmp_path):
        if request.param != "file":
            return request.param, parse_mask(request.param)
        path = tmp_path / "x.mask"
        path.write_text(X_MASK)
        return f"file:{path}", parse_mask(f"file:{path}")

    @staticmethod
    def _image(tmp_path, size):
        img = GrayImage(np.random.default_rng(size[0] * size[1]).integers(
            0, 256, size=size, dtype=np.uint8))
        path = tmp_path / "in.pgm"
        write_pgm(img, path)
        return img, path

    @pytest.mark.parametrize("bits", [10, 7])
    @pytest.mark.parametrize("size", STREAM_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_compress_matches_process_image(self, tmp_path, capsys, mask, size, bits):
        (spec, fmask), (img, src) = mask, self._image(tmp_path, size)
        out, rep, want = tmp_path / "out.pgm", tmp_path / "r.csv", tmp_path / "want.pgm"
        assert main(["compress", "--in", str(src), "--out", str(out), "--bits", str(bits),
                     "--mask", spec, "--report", str(rep)]) == 0
        r = process_image(img, AccuracySelect.from_bitwidth(bits), fmask)
        write_pgm(r.output, want)
        assert out.read_bytes() == want.read_bytes()
        cfg = default_platform()
        row = _metric_row(cfg, bits, cfg.base_freq_mhz, r.psnr_vs_reference)
        assert rep.read_text() == f"{REPORT_HEADER}\n{','.join(row)}\n"
        assert capsys.readouterr().out == (
            f"input: {src} ({size[1]}x{size[0]})\nbitwidth: {bits}  mask: {spec}\n"
            f"psnr_vs_input_db: {r.psnr_vs_input:.4f}\n"
            f"psnr_vs_reference_db: {r.psnr_vs_reference:.4f}\n"
            f"simulated_cycles_fixed: {r.total_cycles_fixed}\n"
            f"clamp_count: {r.clamp_count}\nwrote: {out}\n")

    @pytest.mark.parametrize("size", STREAM_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_sweep_matches_process_widths(self, tmp_path, capsys, mask, size):
        (spec, fmask), (img, src) = mask, self._image(tmp_path, size)
        rep = tmp_path / "s.csv"
        assert main(["sweep", "--in", str(src), "--mask", spec, "--report", str(rep)]) == 0
        cfg = default_platform()
        reports = process_widths(img, [AccuracySelect.from_bitwidth(b) for b in BITWIDTHS], fmask)
        rows = [_metric_row(cfg, b, min_frequency_for_throughput(cfg.cycle_model, b, 7.19),
                            r.psnr_vs_reference) for b, r in zip(BITWIDTHS, reports)]
        want = "".join(f"{line}\n" for line in [REPORT_HEADER, *map(",".join, rows)])
        assert rep.read_text() == want
        assert capsys.readouterr().out == want

    def test_sizes_cover_the_band_cases(self):
        assert STREAM_SIZES[1][0] == _band_rows(STREAM_SIZES[1][1]) == 8  # one band
        (h, w), rows = STREAM_SIZES[2], _band_rows(STREAM_SIZES[2][1])
        assert h // rows >= 2 and h % rows and h % 8 and w % 8  # 3+ bands, ragged

    def test_in_place(self, tmp_path, capsys):
        _, src = self._image(tmp_path, STREAM_SIZES[2])
        same = tmp_path / "same.pgm"
        same.write_bytes(src.read_bytes())
        assert main(["compress", "--in", str(src), "--out", str(tmp_path / "out.pgm")]) == 0
        assert main(["compress", "--in", str(same), "--out", str(same)]) == 0
        assert same.read_bytes() == (tmp_path / "out.pgm").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm", "out.pgm", "same.pgm"]

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "in-place"])
    def test_failure_mid_image_leaves_no_file(self, tmp_path, capsys, monkeypatch, error,
                                              in_place):
        _, src = self._image(tmp_path, STREAM_SIZES[2])
        data, fixed_band, calls = src.read_bytes(), arsc.dct._fixed_band, []

        def fails_on_the_second_band(*args):
            calls.append(args)
            if len(calls) == 2:
                raise error("band 2 failed")
            return fixed_band(*args)

        monkeypatch.setattr(arsc.dct, "_fixed_band", fails_on_the_second_band)
        out = src if in_place else tmp_path / "out.pgm"
        argv = ["compress", "--in", str(src), "--out", str(out), "--report", str(tmp_path / "r")]
        if error is ValueError:
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: band 2 failed\n"
        else:
            with pytest.raises(error):
                main(argv)
        assert len(calls) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["in.pgm"]
        assert src.read_bytes() == data

    @pytest.mark.parametrize("command", ["compress", "sweep"])
    def test_memory_does_not_grow_with_height(self, tmp_path, capsys, command):
        # a 256-wide band holds 128 rows; 2048 rows are 16 bands. The peak stays
        # at a few bands' worth, where whole images would add 3 to 6 times 512 KiB
        peaks = []
        for h in (256, 2048):
            _, src = self._image(tmp_path, (h, 256))
            argv = [command, "--in", str(src)]
            if command == "compress":
                argv += ["--out", str(tmp_path / "out.pgm"), "--report", str(tmp_path / "r")]
            assert main(argv) == 0  # warm: the tables are cached
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


class TestOutputPaths:
    """An output path that cannot be a file is refused before any work."""

    @pytest.mark.parametrize("argv", [
        ["verify-mul", "--max-n", "3", "--report", "{missing}/v.csv"],
        ["compress", "--in", "{image}", "--out", "{missing}/o.pgm"],
        ["compress", "--in", "{image}", "--out", "{tmp}/o.pgm", "--report", "{missing}/r.csv"],
        ["sweep", "--in", "{image}", "--report", "{missing}/r.csv"],
        ["aging", "--report", "{missing}/r.csv"],
        ["calibrate", "--rows", "{rows}", "--out", "{missing}/p.json"],
        ["verify-mul", "--max-n", "3", "--report", "{image}/v.csv"],
        ["calibrate", "--rows", "{rows}", "--out", "{tmp}"],
    ], ids=["verify-mul", "compress-out", "compress-report", "sweep", "aging", "calibrate",
            "parent-is-a-file", "path-is-a-directory"])
    def test_refused_at_parsing(self, tmp_path, small_image, capsys, argv):
        rows = tmp_path / "rows.csv"
        rows.write_text(ROWS_CSV)
        before = sorted(tmp_path.rglob("*"))
        names = {"missing": tmp_path / "no" / "such", "image": small_image, "tmp": tmp_path,
                 "rows": rows}
        with pytest.raises(SystemExit) as exc:
            main([a.format(**names) for a in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1
        assert errors[0].endswith("is not a file path in an existing directory")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("report", ["o.pgm", "./o.pgm", "sub/../o.pgm", "{tmp}/o.pgm",
                                        "link.pgm"])
    @pytest.mark.parametrize("exists", [False, True])
    def test_report_and_out_the_same_file_refused(self, tmp_path, small_image, capsys,
                                                  monkeypatch, report, exists):
        # else the CSV report would overwrite the image just written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.pgm").symlink_to(tmp_path / "o.pgm")
        if exists:
            (tmp_path / "o.pgm").write_bytes(b"old")
        before = sorted(tmp_path.rglob("*"))
        rc = main(["compress", "--in", str(small_image), "--out", "o.pgm",
                   "--report", report.format(tmp=tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "o.pgm").exists() == exists
        if exists:
            assert (tmp_path / "o.pgm").read_bytes() == b"old"


# the tile transforms of the benchmark's 1024x1024 image, keyed as in golden.json
TILE_TRANSFORMS = {
    "identity": lambda a: a,
    "flip_h": lambda a: a[:, ::-1],
    "flip_v": lambda a: a[::-1, :],
    "transpose": lambda a: a.T,
}


def _sse(a, b):
    d = a.astype(np.int64) - b.astype(np.int64)
    return int((d * d).sum())


class TestImageGolden:
    """The image commands against the benchmark's golden digests (read-only)."""

    @pytest.fixture
    def ref_pgm(self, tmp_path):
        p = tmp_path / "ref256.pgm"
        write_pgm(reference_image(), p)
        return p

    @pytest.mark.parametrize("mask", ["lowpass:4", "allpass"])
    def test_sweep_matches_golden(self, tmp_path, ref_pgm, mask):
        golden = json.loads(GOLDEN.read_text())["sweep256"][mask]
        rep = tmp_path / "sweep.csv"
        assert main(["sweep", "--in", str(ref_pgm), "--mask", mask, "--report", str(rep)]) == 0
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == golden["report_sha256"]

    @pytest.mark.parametrize("transform", sorted(TILE_TRANSFORMS))
    def test_compress_tile_matches_golden(self, tmp_path, ref_pgm, capsys, transform):
        golden = json.loads(GOLDEN.read_text())["tile1024"]["tiles"][transform]
        tile = GrayImage(np.ascontiguousarray(TILE_TRANSFORMS[transform](read_pgm(ref_pgm).pixels)))
        src, out = tmp_path / "tile.pgm", tmp_path / "out.pgm"
        write_pgm(tile, src)
        capsys.readouterr()
        assert main(["compress", "--in", str(src), "--out", str(out), "--bits", "8",
                     "--mask", "lowpass:4"]) == 0
        stats = dict(ln.split(": ", 1) for ln in capsys.readouterr().out.splitlines())
        got = read_pgm(out).pixels
        reference = reference_pipeline(tile, FrequencyMask.lowpass(4)).pixels
        assert hashlib.sha256(got.tobytes()).hexdigest() == golden["sha256"]
        assert int(stats["clamp_count"]) == golden["clamps"]
        assert _sse(got, tile.pixels) == golden["sse_input"]
        assert _sse(got, reference) == golden["sse_reference"]

    @pytest.mark.parametrize("b", [10, 9, 8, 7, 6])
    def test_compress_cycles_ignore_old_parallelism_key(self, tmp_path, ref_pgm, capsys, b):
        # older calibrate runs wrote a "parallelism" key; the cycles ignore its value
        old = tmp_path / "old.json"
        save_platform(default_platform(), old)
        old.write_text(json.dumps({**json.loads(old.read_text()), "parallelism": 1}))
        capsys.readouterr()
        assert main(["compress", "--in", str(ref_pgm), "--out", str(tmp_path / "out.pgm"),
                     "--bits", str(b), "--platform", str(old)]) == 0
        # 1024 blocks x (forward + inverse) x 1024 multiplier slots x 2**b / 8
        assert f"\nsimulated_cycles_fixed: {268435456 >> (10 - b)}\n" in capsys.readouterr().out


def _scalar_verify(max_n, seed):
    """Gate-level verify-mul, one BitStream pair at a time: (stdout, report)."""
    out, rows = [], [VERIFY_HEADER]
    for n in range(3, max_n + 1):
        size = 1 << n
        pairs = 0
        identity_ok = True
        cbsc_errs = []
        for x in range(size):
            xv = UnsignedFixed(n, x)
            stream = sng_deterministic(xv)
            for w in range(size + 1):
                gate = stream_to_binary(and_multiply(stream, unary_gen(w, size)))
                product, _ = cbsc_multiply(xv, w)
                identity_ok &= product == gate
                cbsc_errs.append(abs(product / size - (x * w) / (size * size)))
                pairs += 1

        cfg_x = LfsrConfig(n, seed=_fold_seed(seed, n))
        cfg_w = LfsrConfig(n, ALTERNATE_TAPS[n], seed=_fold_seed(seed ^ 0x5A5A5A, n))
        sx = [sng_conventional(UnsignedFixed(n, x), size, cfg_x) for x in range(size)]
        sw = [sng_conventional(UnsignedFixed(n, w), size, cfg_w) for w in range(size)]
        conv_errs = []
        for x in range(size):
            for w in range(size):
                approx = stream_to_binary(and_multiply(sx[x], sw[w])) / size
                conv_errs.append(abs(approx - (x * w) / (size * size)))

        cbsc_max = max(cbsc_errs)
        cbsc_mean = float(np.mean(cbsc_errs))
        conv_mean = float(np.mean(conv_errs))
        rows.append(f"{n},{pairs},{'yes' if identity_ok else 'no'},{cbsc_max:.8f},"
                    f"{cbsc_mean:.8f},{conv_mean:.8f}")
        out.append(
            f"n={n}: pairs={pairs} identity={'ok' if identity_ok else 'VIOLATED'} "
            f"cbsc_max_err={cbsc_max:.6f} cbsc_mean_err={cbsc_mean:.6f} "
            f"conv_mean_err={conv_mean:.6f} "
            f"(cbsc<=conv: {'yes' if cbsc_mean <= conv_mean else 'no'})"
        )
    return "\n".join(out) + "\n", "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["aging", "--seed", "3"],
        ["sweep", "--in", "in.pgm", "--seed", "3"],
        ["compress", "--in", "in.pgm", "--out", "out.pgm", "--seed", "3"],
        ["calibrate", "--rows", "rows.csv", "--out", "p.json", "--seed", "3"],
        ["calibrate", "--rows", "rows.csv", "--out", "p.json", "--report", "r.csv"],
    ],
)
def test_flags_a_command_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


class TestCalibrate:
    def test_published_rows(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text(ROWS_CSV)
        cfg_path = tmp_path / "platform.json"
        rc = main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)])
        assert rc == 0
        doc = json.loads(cfg_path.read_text())
        ratio = doc["cycle_model"]["c_ovh_cycles"] / doc["cycle_model"]["c_sc_cycles"]
        assert ratio == pytest.approx(23.3, rel=0.10)
        assert "cycle_residual" in capsys.readouterr().out

    def test_exact_synthetic_rows(self, tmp_path):
        c_sc, c_ovh, base = 9000.0, 120000.0, 50.0
        lines = ["bitwidth,freq_mhz,power_w,latency_s"]
        for b in (10, 8, 6):
            cycles = c_sc * (1 << b) + c_ovh
            lines.append(f"{b},{base},{0.05 + 0.002 * base},{cycles / (base * 1e6)}")
        rows = tmp_path / "rows.csv"
        rows.write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "p.json"
        assert main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)]) == 1
        # power column above is constant -> degenerate; fix it and retry
        lines = ["bitwidth,freq_mhz,power_w,latency_s"]
        for b, f in ((10, 50.0), (8, 30.0), (6, 20.0)):
            cycles = c_sc * (1 << b) + c_ovh
            lines.append(f"{b},{f},{0.05 + 0.002 * f},{cycles / (50.0 * 1e6)}")
        rows.write_text("\n".join(lines) + "\n")
        assert main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)]) == 0
        doc = json.loads(cfg_path.read_text())
        assert doc["cycle_model"]["c_sc_cycles"] == pytest.approx(c_sc, rel=1e-9)
        assert doc["power_model"]["p_dyn_w_per_mhz"] == pytest.approx(0.002, rel=1e-9)

    @pytest.mark.parametrize("bad", ["99", "-1"])
    def test_bitwidth_outside_pipeline_refused(self, tmp_path, capsys, bad):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"bitwidth,freq_mhz,power_w,latency_s\n{bad},85.7,0.292,0.139\n"
                        "9,43.8,0.177,0.071\n")
        cfg_path = tmp_path / "p.json"
        assert main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("calibration error: ")
        assert captured.err.count("\n") == 1
        assert not cfg_path.exists()

    @pytest.mark.parametrize("row,bad", [
        ("1_0,8_5.7,0.292,0.139", 2),    # digit separators
        ("10,85.7,0.292,0.139\n+9,43.8,0.177,0.071", 3),  # a signed width
        ("10,85.7,0.2_92,0.139", 2),     # a separator in a float cell
        ("\u0661\u0660,85.7,0.292,0.139", 2),  # non-ASCII digits
    ], ids=["separators", "signed-width", "float-separator", "non-ascii-digits"])
    def test_non_decimal_cells_are_bad_rows(self, tmp_path, capsys, row, bad):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"bitwidth,freq_mhz,power_w,latency_s\n{row}\n8,22.9,0.120,0.037\n",
                        encoding="utf-8")
        cfg_path = tmp_path / "p.json"
        assert main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad row at line {bad} of {rows}: ")
        assert captured.err.count("\n") == 1
        assert not cfg_path.exists()

    @pytest.mark.parametrize("freq,message", [
        ("1e308", "power fit failed: overflow encountered in multiply"),
        ("85.70000000000002", "power fit failed: Polyfit may be poorly conditioned"),
    ], ids=["overflow", "rank-deficient"])
    def test_failed_fit_is_one_error_line(self, tmp_path, capsys, freq, message):
        # numpy's warnings would be extra stderr lines. Two frequencies 1 ulp apart leave
        # the line through the two rows undetermined, yet polyfit returns one
        rows = tmp_path / "rows.csv"
        rows.write_text(f"bitwidth,freq_mhz,power_w,latency_s\n10,85.7,0.292,0.139\n"
                        f"9,{freq},0.177,0.071\n")
        cfg_path = tmp_path / "p.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"calibration error: {message}\n")
        assert not cfg_path.exists()

    def test_single_row_fails(self, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text("bitwidth,freq_mhz,power_w,latency_s\n10,85.7,0.292,0.139\n")
        assert main(["calibrate", "--rows", str(rows), "--out", str(tmp_path / "p.json")]) == 1

    def test_missing_columns(self, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text("bitwidth,freq_mhz\n10,85.7\n")
        assert main(["calibrate", "--rows", str(rows), "--out", str(tmp_path / "p.json")]) == 1

    def test_config_round_trip(self, tmp_path, small_image):
        cfg = default_platform()
        path = tmp_path / "p.json"
        save_platform(cfg, path)
        again = load_platform(path)
        assert again.cycle_model.c_sc == pytest.approx(cfg.cycle_model.c_sc)
        assert again.schedule.anchors == cfg.schedule.anchors
        rc = main(["sweep", "--in", str(small_image), "--platform", str(path),
                   "--target", "7.19"])
        assert rc == 0

    @pytest.mark.parametrize("parallelism", [8, 0])
    def test_old_parallelism_key_ignored(self, tmp_path, parallelism):
        path = tmp_path / "p.json"
        save_platform(default_platform(), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "parallelism": parallelism}))
        assert load_platform(path) == default_platform()

    def test_calibrate_writes_only_model_keys(self, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text(ROWS_CSV)
        cfg_path = tmp_path / "platform.json"
        assert main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)]) == 0
        assert sorted(json.loads(cfg_path.read_text())) == [
            "aging_anchors_years_mhz", "base_freq_mhz", "cycle_model", "power_model"]

    def test_published_rows_match_bundled_defaults(self, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text(ROWS_CSV)
        cfg_path = tmp_path / "platform.json"
        assert main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)]) == 0
        got, want = load_platform(cfg_path), default_platform()
        for f in fields(PlatformConfig):
            assert getattr(got, f.name) == getattr(want, f.name), f.name

    @pytest.mark.parametrize(
        "row", ["6,7.1,0.077,nan", "6,7.1,nan,0.012", "6,inf,0.077,0.012", "6,7.1,0,0.012"]
    )
    def test_non_finite_or_zero_row_refused(self, tmp_path, row):
        rows = tmp_path / "rows.csv"
        rows.write_text(ROWS_CSV.rsplit("6,7.1", 1)[0] + row + "\n")
        cfg_path = tmp_path / "p.json"
        assert main(["calibrate", "--rows", str(rows), "--out", str(cfg_path)]) == 1
        assert not cfg_path.exists()

    def test_rows_with_utf8_bom(self, tmp_path):
        # spreadsheet exports often start with a byte-order mark
        rows, plain = tmp_path / "rows.csv", tmp_path / "plain.csv"
        rows.write_bytes(b"\xef\xbb\xbf" + ROWS_CSV.encode())
        plain.write_text(ROWS_CSV)
        assert main(["calibrate", "--rows", str(rows), "--out", str(tmp_path / "a.json")]) == 0
        assert main(["calibrate", "--rows", str(plain), "--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_malformed_config(self, tmp_path, small_image):
        path = tmp_path / "p.json"
        path.write_text("{\"nope\": 1}")
        rc = main(["sweep", "--in", str(small_image), "--platform", str(path),
                   "--target", "7.19"])
        assert rc == 1


class TestMaskParsing:
    def test_specs(self):
        assert int(parse_mask("allpass").m.sum()) == 64
        assert int(parse_mask("lowpass:2").m.sum()) == 4
        assert int(parse_mask("lowpass").m.sum()) == 16

    def test_file_mask(self, tmp_path):
        p = tmp_path / "mask.txt"
        p.write_text("# DC only\n10000000\n" + "00000000\n" * 7)
        m = parse_mask(f"file:{p}")
        assert int(m.m.sum()) == 1 and m.m[0, 0] == 1

    def test_file_mask_spaced(self, tmp_path):
        # any whitespace separates the digits
        p = tmp_path / "mask.txt"
        for sep in (" ", "\t"):
            p.write_text(sep.join("11000000") + "\n" + (sep.join("00000000") + "\n") * 7)
            assert int(parse_mask(f"file:{p}").m.sum()) == 2, repr(sep)

    def test_file_mask_with_utf8_bom(self, tmp_path):
        # some editors start a text file with a byte-order mark
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        for text in ("10000001\n01000010\n00100100\n00011000\n" * 2,
                     "1 0 0 0 0 0 0 1\n" * 8):
            plain.write_text(text)
            bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
            assert parse_mask(f"file:{bom}") == parse_mask(f"file:{plain}")

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            parse_mask("bandpass")

    @pytest.mark.parametrize(
        "data,spec,message",
        [
            (b"11111111\n11\n", "file", " line 2: 2 entries, expected 8"),
            (b"1x111111\n", "file", " line 1: entries must be 0 or 1"),
            (b"P5\n8 8\n255\n\x80", "file",
             ": not UTF-8 text (invalid start byte at byte 11)"),
            # the offset counts the BOM's three bytes: it is the file's own
            (b"\xef\xbb\xbf10\x80", "file", ": not UTF-8 text (invalid start byte at byte 5)"),
            (None, "lowpass:x", "mask spec 'lowpass:x': lowpass corner must be an integer"),
            (None, "file:", "mask spec 'file:': empty file path"),
            (None, "lowpass:+0_4",
             "mask spec 'lowpass:+0_4': lowpass corner must be an integer"),
            (None, "lowpass:9", "mask spec 'lowpass:9': lowpass corner 9 out of range 1..8"),
            (None, "lowpass:0", "mask spec 'lowpass:0': lowpass corner 0 out of range 1..8"),
        ],
        ids=["ragged", "non-digit", "non-utf8", "non-utf8-after-bom", "lowpass-x",
             "file-empty-path", "lowpass-sign-separator", "lowpass-9", "lowpass-0"],
    )
    def test_bad_spec_is_one_error_line(self, tmp_path, small_image, capsys, data, spec,
                                        message):
        if data is not None:
            mask = tmp_path / "m.txt"
            mask.write_bytes(data)
            spec = f"file:{mask}"
            message = f"mask file {mask}{message}"
        out = tmp_path / "out.pgm"
        rc = main(["compress", "--in", str(small_image), "--out", str(out), "--mask", spec])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()

    def test_file_mask_row_count(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("11111111\n" * 7)
        with pytest.raises(ValueError, match=r"m.txt: 7 rows, expected 8"):
            parse_mask(f"file:{p}")
