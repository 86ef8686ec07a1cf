"""Record golden.json from the program in ./src.

Run from the repository root, only when outputs are meant to change:

    PYTHONPATH=src python3 perfbench/make_golden.py

Golden values are per mask (sweep256), per tile transform (tile1024) and per
operand width (verify-mul), plus the SHA-256 of every file a default-seed op
writes. The script cross-checks the per-tile values against a whole
default-seed tile1024 op before writing anything.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as wl


def run_cli(argv: list[str]) -> str:
    from arsc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        sys.exit(f"arsc {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def sse(a: np.ndarray, b: np.ndarray) -> int:
    d = a.astype(np.int64) - b.astype(np.int64)
    return int((d * d).sum())


def main() -> int:
    from arsc.dct import FrequencyMask, GrayImage, process_image, reference_pipeline
    from arsc.mac import AccuracySelect
    from arsc.refimage import reference_image

    seed = wl.DEFAULT_SEED
    golden: dict = {"default_seed": seed}
    stub = {name: {} for name in wl.WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        sweep = wl.Sweep256(seed, work, {**stub, "default_seed": seed})
        sweep.make_inputs()
        golden["sweep256"] = {}
        for i in range(sweep.round_size):
            stdout = run_cli(sweep.op_argv(i))
            golden["sweep256"][sweep.mask(i)] = {
                "report_sha256": wl.sha256(sweep.outputs(i)[0].read_bytes()),
                "stdout_sha256": wl.sha256(stdout.encode()),
            }

        ref = reference_image().pixels
        sel, mask = AccuracySelect.from_bitwidth(8), FrequencyMask.lowpass(4)
        tiles = {}
        for name, transform in wl.TRANSFORMS.items():
            img = GrayImage(np.ascontiguousarray(transform(ref)))
            rep = process_image(img, sel, mask)
            tiles[name] = {
                "sha256": wl.sha256(rep.output.pixels.tobytes()),
                "clamps": rep.clamp_count,
                "sse_input": sse(rep.output.pixels, img.pixels),
                "sse_reference": sse(rep.output.pixels, reference_pipeline(img, mask).pixels),
            }
        tile = wl.Tile1024(seed, work, {**stub, "default_seed": seed})
        tile.make_inputs()
        stdout = run_cli(tile.op_argv(0))
        out, report = (p.read_bytes() for p in tile.outputs(0))
        stats = wl.parse_stats(stdout)
        fields = report.decode("ascii").splitlines()[1].split(",")
        fields[3] = "{psnr_db}"
        golden["tile1024"] = {
            "tiles": tiles,
            "simulated_cycles_fixed": int(stats["simulated_cycles_fixed"]),
            "report_template": f"{wl.REPORT_HEADER}\n{','.join(fields)}\n",
            "default_seed": {"tile1024_out.pgm": wl.sha256(out), "tile1024.csv": wl.sha256(report)},
        }

        vm = wl.VerifyMul(seed, work, {**stub, "default_seed": seed})
        run_cli(vm.op_argv(0))
        report = vm.outputs(0)[0].read_bytes()
        rows = {}
        for line in report.decode("ascii").splitlines()[1:]:
            n, _, _, cmax, cmean, _ = line.split(",")
            rows[n] = {"cbsc_max_abs_err": cmax, "cbsc_mean_abs_err": cmean}
        golden["verify-mul"] = {"rows": rows, "default_seed": {"verify.csv": wl.sha256(report)}}

        # the per-tile and per-row expectations must reproduce the whole op
        tile.golden = golden["tile1024"]
        tile.check(0, stdout)
        vm.golden = golden["verify-mul"]
        vm.check(0, "")

    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
