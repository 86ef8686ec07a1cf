"""Command-line front end: image runs, experiment sweeps, verification.

Commands:
  compress    run one image through the fixed-point pipeline
  sweep       operating-point table (frequency/power/PSNR/latency) per bit-width
  aging       year-by-year clock, chosen bit-width, and throughput
  verify-mul  exhaustive multiplier identity and error report
  calibrate   fit cycle/power models from a measurement CSV

All commands are deterministic given their flags (verify-mul's --seed
seeds its LFSR generators); report files are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .dct import N, FrequencyMask, _band_pass, _band_rows
from .mac import BITWIDTHS
from .pgm import pgm_reader, pgm_writer
from .platform_model import (
    CalibrationError,
    PlatformConfig,
    calibrate_platform,
    calibration_residuals,
    load_platform,
    min_frequency_for_throughput,
    save_platform,
    select_config,
    throughput,
)
from .sc_core import ALTERNATE_TAPS, LfsrConfig, verify_multiplier

REPORT_HEADER = "bitwidth,freq_mhz,power_w,psnr_db,latency_s,throughput_fps"
AGING_HEADER = "year,freq_mhz,bitwidth,throughput_fps,feasible"
VERIFY_HEADER = "n,pairs,identity_ok,cbsc_max_abs_err,cbsc_mean_abs_err,conv_mean_abs_err"
DEFAULT_TARGET_FPS = 7.19


def parse_mask(spec: str) -> FrequencyMask:
    """Mask spec: 'allpass', 'lowpass:K', or 'file:PATH' (8x8 of 0/1)."""
    if spec == "allpass":
        return FrequencyMask.allpass()
    if spec.startswith("lowpass:"):
        k = spec.split(":", 1)[1]
        try:
            if not (k.isascii() and k.isdigit()):  # int() would also take "+4" or "0_4"
                raise ValueError("lowpass corner must be an integer")
            return FrequencyMask.lowpass(int(k))
        except ValueError as e:
            raise ValueError(f"mask spec {spec!r}: {e}") from None
    if spec == "lowpass":
        return FrequencyMask.lowpass()
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise ValueError(f"mask spec {spec!r}: empty file path")
        try:
            text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as e:
            raise ValueError(
                f"mask file {path}: not UTF-8 text ({e.reason} at byte {e.start})"
            ) from None
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            cells = line.split() if any(c.isspace() for c in line) else list(line)
            where = f"mask file {path} line {lineno}"
            if len(cells) != N:
                raise ValueError(f"{where}: {len(cells)} entries, expected {N}")
            if not all(c in ("0", "1") for c in cells):
                raise ValueError(f"{where}: entries must be 0 or 1, got {' '.join(cells)}")
            rows.append([int(c) for c in cells])
        if len(rows) != N:
            raise ValueError(f"mask file {path}: {len(rows)} rows, expected {N}")
        return FrequencyMask(rows)
    raise ValueError(f"unknown mask spec {spec!r} (allpass, lowpass:K, file:PATH)")


def _write_report(path, header: str, rows) -> None:
    lines = [header] + [",".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(v: float, places: int = 6) -> str:
    return f"{v:.{places}f}"


def _fold_seed(seed: int, width: int) -> int:
    # any integer maps to a nonzero width-bit LFSR state
    return (seed - 1) % ((1 << width) - 1) + 1


def _finite_rows(header: str, rows):
    """rows, refused if finite inputs overflowed a platform number in one (PSNR may be inf)."""
    for row in rows:
        for name, cell in zip(header.split(","), row):
            if cell in ("inf", "nan") and name != "psnr_db":
                raise ValueError(f"{name} overflows: {cell} at {header.split(',')[0]} {row[0]}")
    return rows


def _metric_row(cfg: PlatformConfig, b: int, freq: float, psnr_db: float):
    cm = cfg.cycle_model
    latency = cm.cycles_per_frame(b) / (cfg.base_freq_mhz * 1e6)
    return [
        str(b),
        _fmt(freq, 4),
        _fmt(cfg.power_model.power(freq), 6),
        _fmt(psnr_db, 4),
        _fmt(latency, 6),
        _fmt(throughput(cm, b, freq), 4),
    ]


def cmd_compress(args) -> int:
    if args.report and args.report.resolve() == args.output.resolve():  # else the CSV replaces it
        raise ValueError(f"--report and --out name the same file: {args.output}")
    # bands stream from the input through the pipeline into an output that appears only whole
    with pgm_reader(args.input) as (width, height, bands):
        mask = parse_mask(args.mask)
        cfg = load_platform(args.platform)
        with pgm_writer(args.output, width, height) as write:
            [(cycles, clamps, psnr_input, psnr_reference)] = _band_pass(
                bands(_band_rows(width)), [args.bits], mask, lambda k, rows: write(rows))
            row = _metric_row(cfg, args.bits, cfg.base_freq_mhz, psnr_reference)
            rows = _finite_rows(REPORT_HEADER, [row] if args.report else [])  # before --out appears

    print(f"input: {args.input} ({width}x{height})")
    print(f"bitwidth: {args.bits}  mask: {args.mask}")
    print(f"psnr_vs_input_db: {_fmt(psnr_input, 4)}")
    print(f"psnr_vs_reference_db: {_fmt(psnr_reference, 4)}")
    print(f"simulated_cycles_fixed: {cycles}")
    print(f"clamp_count: {clamps}")
    print(f"wrote: {args.output}")

    if args.report:
        _write_report(args.report, REPORT_HEADER, rows)
    return 0


def cmd_sweep(args) -> int:
    with pgm_reader(args.input) as (width, _, bands):
        mask = parse_mask(args.mask)
        cfg = load_platform(args.platform)
        # no sink: each width's rows are reduced to their errors, and no image is kept
        stats = _band_pass(bands(_band_rows(width)), BITWIDTHS, mask)
    freqs = [min_frequency_for_throughput(cfg.cycle_model, b, args.target) for b in BITWIDTHS]
    rows = _finite_rows(REPORT_HEADER, [_metric_row(cfg, b, freq, psnr_reference)
                                        for b, freq, (*_, psnr_reference)
                                        in zip(BITWIDTHS, freqs, stats)])
    print(REPORT_HEADER)
    for b, freq, row in zip(BITWIDTHS, freqs, rows):
        print(",".join(row))
        if freq > cfg.base_freq_mhz:
            print(f"warning: {b}-bit needs {_fmt(freq, 4)} MHz, above the "
                  f"{_fmt(cfg.base_freq_mhz, 4)} MHz base clock", file=sys.stderr)

    if args.report:
        _write_report(args.report, REPORT_HEADER, rows)
    return 0


def cmd_aging(args) -> int:
    cfg = load_platform(args.platform)
    rows = []
    # every row is computed and checked before any is printed, so a year outside
    # the schedule or an overflow fails with empty stdout
    for year in range(args.years + 1):
        op = select_config(cfg.cycle_model, cfg.power_model, cfg.schedule, float(year), args.target)
        chosen = (["", "", "no"] if op.bitwidth is None
                  else [str(op.bitwidth), _fmt(op.throughput_fps, 4), "yes"])
        rows.append([str(year), _fmt(op.frequency_mhz, 4), *chosen])
    _finite_rows(AGING_HEADER, rows)
    print(AGING_HEADER)
    for row in rows:
        print(",".join(row))

    if args.report:
        _write_report(args.report, AGING_HEADER, rows)
    return 0


def cmd_verify_mul(args) -> int:
    violations = 0
    rows = []
    for n in range(3, args.max_n + 1):
        # conventional multiplier: two decorrelated LFSR generators
        cfg_x = LfsrConfig(n, seed=_fold_seed(args.seed, n))
        cfg_w = LfsrConfig(n, ALTERNATE_TAPS[n], seed=_fold_seed(args.seed ^ 0x5A5A5A, n))
        check = verify_multiplier(cfg_x, cfg_w)
        violations += check.mismatches
        identity_ok = check.mismatches == 0
        # float(sum) / 4**n / pairs rounds like the mean of the float errors
        cbsc_max = check.cbsc_max_err / 4**n
        cbsc_mean = float(check.cbsc_err_sum) / 4**n / check.pairs
        conv_mean = float(check.conv_err_sum) / 4**n / 4**n
        rows.append([str(n), str(check.pairs), "yes" if identity_ok else "no",
                     f"{cbsc_max:.8f}", f"{cbsc_mean:.8f}", f"{conv_mean:.8f}"])
        print(
            f"n={n}: pairs={check.pairs} identity={'ok' if identity_ok else 'VIOLATED'} "
            f"cbsc_max_err={cbsc_max:.6f} cbsc_mean_err={cbsc_mean:.6f} "
            f"conv_mean_err={conv_mean:.6f} "
            f"(cbsc<=conv: {'yes' if cbsc_mean <= conv_mean else 'no'})"
        )

    if args.report:
        _write_report(args.report, VERIFY_HEADER, rows)
    if violations:
        print(f"error: {violations} identity violations", file=sys.stderr)
        return 1
    return 0


def _read_rows_csv(path):
    """Measurement rows: CSV with bitwidth,freq_mhz,power_w,latency_s columns."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8-sig").splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty rows file {path}")
    header = [h.strip() for h in lines[0].split(",")]
    needed = ("bitwidth", "freq_mhz", "power_w", "latency_s")
    missing = [c for c in needed if c not in header]
    if missing:
        raise ValueError(f"rows file missing columns: {', '.join(missing)}")
    idx = {c: header.index(c) for c in needed}
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        try:
            b, *values = (cells[idx[c]] for c in needed)
            # int() and float() would also take "+9" or "1_0"; a "-1" is left
            # to calibrate_platform, which refuses widths outside the pipeline
            if not (b.isascii() and b.removeprefix("-").isdigit()) or "_" in "".join(values):
                raise ValueError(b)
            rows.append((int(b), *map(float, values)))
        except (ValueError, IndexError):
            raise ValueError(f"bad row at line {lineno} of {path}: {ln!r}") from None
    return rows


def cmd_calibrate(args) -> int:
    rows = _read_rows_csv(args.rows)
    cfg = calibrate_platform(rows)

    print(f"c_sc_cycles: {cfg.cycle_model.c_sc:.4f}")
    print(f"c_ovh_cycles: {cfg.cycle_model.c_ovh:.4f}")
    print(f"p_static_w: {cfg.power_model.p_static:.6f}")
    print(f"p_dyn_w_per_mhz: {cfg.power_model.p_dyn:.8f}")
    for (b, f, _, _), (cres, pres) in zip(rows, calibration_residuals(cfg, rows)):
        print(f"b={b} f={f:g}MHz: cycle_residual={cres:.2%} power_residual={pres:.2%}")

    save_platform(cfg, args.out)
    print(f"wrote: {args.out}")
    return 0


def finite_positive_float(text: str) -> float:
    v = float(text)
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return v


def output_path(text: str) -> Path:
    path = Path(text)
    if path.is_dir() or not path.parent.is_dir():  # refused before any work or output
        raise argparse.ArgumentTypeError(f"{text!r} is not a file path in an existing directory")
    return path


def nonnegative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return v


@functools.cache  # built once per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arsc",
        description="Counter-based stochastic computing DCT/IDCT simulator "
        "with calibrated platform models",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", type=output_path, help="write the command's CSV report here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", parents=[common], help="run one image through the pipeline")
    p.add_argument("--in", dest="input", required=True, type=Path, help="input PGM (P5)")
    p.add_argument("--out", dest="output", required=True, type=output_path, help="output PGM")
    p.add_argument("--bits", type=int, choices=BITWIDTHS, default=10, help="accuracy bit-width")
    p.add_argument("--mask", default="lowpass:4", help="allpass | lowpass:K | file:PATH")
    p.add_argument("--platform", type=Path, help="platform config (default: bundled FPGA fit)")

    p = sub.add_parser("sweep", parents=[common], help="per-bit-width operating point table")
    p.add_argument("--in", dest="input", required=True, type=Path, help="input PGM (P5)")
    p.add_argument("--platform", type=Path, help="platform config (default: bundled FPGA fit)")
    p.add_argument("--target", type=finite_positive_float, default=DEFAULT_TARGET_FPS,
                   help="target throughput (fps)")
    p.add_argument("--mask", default="lowpass:4", help="allpass | lowpass:K | file:PATH")

    p = sub.add_parser("aging", parents=[common], help="aged clock and bit-width per year")
    p.add_argument("--platform", type=Path, help="platform config (default: bundled FPGA fit)")
    p.add_argument("--target", type=finite_positive_float, default=DEFAULT_TARGET_FPS,
                   help="target throughput (fps)")
    p.add_argument("--years", type=nonnegative_int, default=10, help="last year to evaluate")

    p = sub.add_parser("verify-mul", parents=[common], help="exhaustive multiplier verification")
    p.add_argument("--max-n", type=int, choices=range(3, 11), default=8, metavar="N",
                   help="largest operand width to sweep (3..10)")
    p.add_argument("--seed", type=int, default=1, help="LFSR seed (default 1)")

    p = sub.add_parser("calibrate", help="fit platform models from a rows CSV")
    p.add_argument("--rows", required=True, type=Path,
                   help="CSV with bitwidth,freq_mhz,power_w,latency_s columns")
    p.add_argument("--out", required=True, type=output_path, help="platform config to write")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name at each call, so a command replaced after the parser was
    # built (a wrapper that times it, say) is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except CalibrationError as e:
        print(f"calibration error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
