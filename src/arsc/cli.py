"""Command-line front end: image runs, experiment sweeps, verification.

Commands:
  compress    run one image through the fixed-point pipeline
  sweep       operating-point table (frequency/power/PSNR/latency) per bit-width
  aging       year-by-year clock, chosen bit-width, and throughput
  verify-mul  exhaustive multiplier identity and error report
  calibrate   fit cycle/power models from a measurement CSV

All commands are deterministic given their flags (verify-mul's --seed
seeds its LFSR generators); report files are byte-identical across runs.

A command opens its output files (--out, --report) before any work, and they appear only
if it succeeds; its stdout and stderr print after it returns, so a failure prints one line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path

from .dct import N, FrequencyMask, band_pass
from .mac import BITWIDTHS
from .pgm import output_file, pgm_reader, pgm_writer
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
from .sc_core import ALTERNATE_TAPS, MAXIMAL_TAPS, LfsrConfig, verify_multiplier

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


def _cells(header: str, values) -> list[str]:
    """A report row's CSV cells: a float to its column's decimal places, None as an empty
    cell. Refused if finite inputs overflowed a platform number in it (PSNR may be inf)."""
    places = {"freq_mhz": 4, "power_w": 6, "psnr_db": 4, "latency_s": 6, "throughput_fps": 4,
              "cbsc_max_abs_err": 8, "cbsc_mean_abs_err": 8, "conv_mean_abs_err": 8}
    names = header.split(",")
    for name, v in zip(names, values):
        if name in places and name != "psnr_db" and v is not None and not math.isfinite(v):
            raise ValueError(f"{name} overflows: {v} at {names[0]} {values[0]}")
    return ["" if v is None else f"{v:.{places[name]}f}" if name in places else str(v)
            for name, v in zip(names, values)]


def _table(header: str, rows, report, show: bool = False) -> None:
    """Write the CSV table of rows' cells a line at a time: to report if open, to stdout if show."""
    for line in itertools.chain([header], map(",".join, rows)):
        if show:
            sys.stdout.write(line + "\n")
        if report:
            report.write(f"{line}\n".encode())


def _fold_seed(seed: int, width: int) -> int:
    # any integer maps to a nonzero width-bit LFSR state
    return (seed - 1) % ((1 << width) - 1) + 1


def _refuse_overwrites(args) -> None:
    """Refuse an output (--out, --report) that names a file listed before it, which it would
    replace. --in follows --out, which may name it: compress runs in place."""
    get, mask = vars(args).get, getattr(args, "mask", "")
    files = [(flag, path, os.path.realpath(path)) for flag, path in [  # realpath returns on a loop
        ("--platform", get("platform")), ("--rows", get("rows")),
        ("--mask", mask.startswith("file:") and mask[5:]), ("--out", get("output")),
        ("--in", get("input")), ("--report", get("report"))] if path]
    for i, (flag, _, real) in enumerate(files):
        for other, path, other_real in files[:i]:
            if flag in ("--out", "--report") and real == other_real:
                raise ValueError(f"{flag} and {other} name the same file: {path}")


def _metric_row(cfg: PlatformConfig, b: int, freq: float, psnr_db: float):
    cm = cfg.cycle_model
    latency = cm.cycles_per_frame(b) / (cfg.base_freq_mhz * 1e6)
    return _cells(REPORT_HEADER, [b, freq, cfg.power_model.power(freq), psnr_db, latency,
                                  throughput(cm, b, freq)])


def cmd_compress(args) -> int:
    # bands stream from the input through the pipeline into an output that appears only whole
    with (output_file(args.report) as table, output_file(args.output) as out,
          pgm_reader(args.input) as (width, height, bands)):
        mask = parse_mask(args.mask)
        cfg = load_platform(args.platform)
        write = pgm_writer(out, width, height)
        [report] = band_pass(width, bands, [args.bits], mask, lambda k, y, rows: write(rows))
        if table:  # a report row is built, and an overflow refused, before --out appears
            _table(REPORT_HEADER, [_metric_row(cfg, args.bits, cfg.base_freq_mhz,
                                               report.psnr_vs_reference)], table)
    print(f"input: {args.input} ({width}x{height})")
    print(f"bitwidth: {args.bits}  mask: {args.mask}")
    print(f"psnr_vs_input_db: {report.psnr_vs_input:.4f}")
    print(f"psnr_vs_reference_db: {report.psnr_vs_reference:.4f}")
    print(f"simulated_cycles_fixed: {report.total_cycles_fixed}")
    print(f"clamp_count: {report.clamp_count}")
    print(f"wrote: {args.output}")
    return 0


def cmd_sweep(args) -> int:
    with output_file(args.report) as table, pgm_reader(args.input) as (width, _, bands):
        mask = parse_mask(args.mask)
        cfg = load_platform(args.platform)
        # no sink: each width's rows are reduced to their errors, and no image is kept
        reports = band_pass(width, bands, BITWIDTHS, mask)
        freqs = [min_frequency_for_throughput(cfg.cycle_model, b, args.target) for b in BITWIDTHS]
        rows = [_metric_row(cfg, r.bitwidth, freq, r.psnr_vs_reference)
                for r, freq in zip(reports, freqs)]
        _table(REPORT_HEADER, rows, table, show=True)
    for b, freq, row in zip(BITWIDTHS, freqs, rows):
        if freq > cfg.base_freq_mhz:
            print(f"warning: {b}-bit needs {row[1]} MHz, above the "
                  f"{cfg.base_freq_mhz:.4f} MHz base clock", file=sys.stderr)
    return 0


def cmd_aging(args) -> int:
    with output_file(args.report) as table:
        cfg = load_platform(args.platform)
        first, last = cfg.schedule.span
        years = max(0, math.floor(last)) if args.years is None else args.years

        def rows():
            # the schedule's whole years from max(0, first) to --years, and --years itself
            # when that is earlier; each row streams out as it is checked
            for year in range(min(max(0, math.ceil(first)), years), years + 1):
                op = select_config(cfg.cycle_model, cfg.power_model, cfg.schedule, float(year),
                                   args.target)
                yield _cells(AGING_HEADER, [year, op.frequency_mhz, op.bitwidth, op.throughput_fps,
                                            "no" if op.bitwidth is None else "yes"])
        _table(AGING_HEADER, rows(), table, show=True)
    return 0


def cmd_verify_mul(args) -> int:
    violations = 0
    rows = []
    with output_file(args.report) as table:
        for n in range(min(MAXIMAL_TAPS), args.max_n + 1):
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
            rows.append(_cells(VERIFY_HEADER, [n, check.pairs, "yes" if identity_ok else "no",
                                               cbsc_max, cbsc_mean, conv_mean]))
            print(f"n={n}: pairs={check.pairs} identity={'ok' if identity_ok else 'VIOLATED'} "
                  f"cbsc_max_err={cbsc_max:.6f} cbsc_mean_err={cbsc_mean:.6f} "
                  f"conv_mean_err={conv_mean:.6f} "
                  f"(cbsc<=conv: {'yes' if cbsc_mean <= conv_mean else 'no'})")
        _table(VERIFY_HEADER, rows, table)
    if violations:
        print(f"error: {violations} identity violations", file=sys.stderr)
        return 1
    return 0


def _read_rows_csv(path):
    """Measurement rows: CSV with bitwidth,freq_mhz,power_w,latency_s columns."""
    # each line keeps its number in the file; blank lines are skipped
    lines = [(lineno, ln) for lineno, ln in enumerate(
        Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"empty rows file {path}")
    header = [h.strip() for h in lines[0][1].split(",")]
    needed = ("bitwidth", "freq_mhz", "power_w", "latency_s")
    missing = [c for c in needed if c not in header]
    if missing:
        raise ValueError(f"rows file missing columns: {', '.join(missing)}")
    idx = {c: header.index(c) for c in needed}
    rows = []
    for lineno, ln in lines[1:]:
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
    with output_file(args.output) as out:
        rows = _read_rows_csv(args.rows)
        cfg = calibrate_platform(rows)
        print(f"c_sc_cycles: {cfg.cycle_model.c_sc:.4f}")
        print(f"c_ovh_cycles: {cfg.cycle_model.c_ovh:.4f}")
        print(f"p_static_w: {cfg.power_model.p_static:.6f}")
        print(f"p_dyn_w_per_mhz: {cfg.power_model.p_dyn:.8f}")
        for (b, f, _, _), (cres, pres) in zip(rows, calibration_residuals(cfg, rows)):
            print(f"b={b} f={f:g}MHz: cycle_residual={cres:.2%} power_residual={pres:.2%}")
        save_platform(cfg, out)
    print(f"wrote: {args.output}")
    return 0


def finite_positive_float(text: str) -> float:
    v = float(text)
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return v


def output_path(text: str) -> Path:
    real = Path(os.path.realpath(text))  # what output_file writes, through any symlink
    if real.is_dir() or not real.parent.is_dir():  # refused before any work or output
        raise argparse.ArgumentTypeError(f"{text!r} is not a file path in an existing directory")
    return Path(text)


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
    p.add_argument("--bits", type=int, choices=BITWIDTHS, default=BITWIDTHS[0],
                   help="accuracy bit-width")
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
    p.add_argument("--years", type=nonnegative_int,
                   help="last year to evaluate (default: the schedule's last whole year)")

    p = sub.add_parser("verify-mul", parents=[common], help="exhaustive multiplier verification")
    p.add_argument("--max-n", type=int, choices=MAXIMAL_TAPS, default=8, metavar="N",
                   help="largest operand width to sweep "
                   f"({min(MAXIMAL_TAPS)}..{max(MAXIMAL_TAPS)})")
    p.add_argument("--seed", type=int, default=1, help="LFSR seed (default 1)")

    p = sub.add_parser("calibrate", help="fit platform models from a rows CSV")
    p.add_argument("--rows", required=True, type=Path,
                   help="CSV with bitwidth,freq_mhz,power_w,latency_s columns")
    p.add_argument("--out", dest="output", required=True, type=output_path,
                   help="platform config to write")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name at each call, so a command replaced after the parser was
    # built (a wrapper that times it, say) is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    # the command's stdout and stderr, in memory until 64 KiB, printed once it has returned
    spool = functools.partial(tempfile.SpooledTemporaryFile, 1 << 16, "w+", encoding="utf-8",
                              errors="surrogatepass", newline="")
    with spool() as out, spool() as err:
        try:
            _refuse_overwrites(args)  # before any work
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = command(args)
            for spooled, stream in ((out, sys.stdout), (err, sys.stderr)):
                spooled.seek(0)
                stream.writelines(spooled)
            return code
        except (ValueError, OSError) as e:
            kind = "calibration error" if isinstance(e, CalibrationError) else "error"
            print(f"{kind}: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
