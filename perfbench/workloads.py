"""Benchmark workloads: input generation, op command lines and output checks.

Every workload turns the benchmark seed into inputs, runs one ``arsc`` CLI
command per op, and checks each op's outputs against golden values recorded
in ``golden.json`` (see ``make_golden.py``). The checks hold on every seed:

- ``sweep256``: the seed only orders the two masks, so each op's report is
  compared byte-for-byte with the golden report for its mask.
- ``tile1024``: the pipeline works on independent 8x8 blocks and every
  256x256 tile is block-aligned, so the output of each tile depends only on
  that tile. The golden file holds, per tile transform, the output tile's
  SHA-256, its clamp count and its squared error against the input and the
  float reference; the expected image, statistics and report follow exactly.
- ``verify-mul``: the identity and the CBSC error columns do not depend on
  the seed and are compared with golden rows; the conventional-multiplier
  column is recomputed by an independent NumPy model of the LFSR streams.

On the default seed, the SHA-256 of every file an op writes is compared with
the golden digest as well.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 1
TILE = 256
TILES_PER_SIDE = 4
TRANSFORMS = {
    "identity": lambda a: a,
    "flip_h": lambda a: a[:, ::-1],
    "flip_v": lambda a: a[::-1, :],
    "transpose": lambda a: a.T,
}
MASKS = ("lowpass:4", "allpass")
VERIFY_MAX_N = 10
REPORT_HEADER = "bitwidth,freq_mhz,power_w,psnr_db,latency_s,throughput_fps"
VERIFY_HEADER = "n,pairs,identity_ok,cbsc_max_abs_err,cbsc_mean_abs_err,conv_mean_abs_err"

# Primitive LFSR feedback polynomials of the conventional multiplier, per
# width: the first generator drives x, the second drives w. Kept here so the
# model below does not depend on the code it checks.
LFSR_TAPS_X = {3: (3, 2), 4: (4, 3), 5: (5, 3), 6: (6, 5), 7: (7, 6),
               8: (8, 6, 5, 4), 9: (9, 5), 10: (10, 7)}
LFSR_TAPS_W = {3: (3, 1), 4: (4, 1), 5: (5, 2), 6: (6, 1), 7: (7, 1),
               8: (8, 4, 3, 2), 9: (9, 4), 10: (10, 3)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(pixels, np.uint8).tobytes()


def parse_pgm(data: bytes) -> np.ndarray:
    """Pixels of a maxval-255 binary PGM without header comments."""
    fields = data.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError("not a maxval-255 binary PGM")
    w, h = int(fields[1]), int(fields[2])
    raster = data[len(data) - w * h:]
    if len(data) < w * h or not data[: len(data) - w * h].endswith(b"255\n"):
        raise ValueError("PGM raster size does not match its header")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def psnr_db(sse: int, pixels: int) -> float:
    """PSNR from an integer sum of squared errors, as the program computes it."""
    mse = float(sse) / pixels
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)


def parse_stats(stdout: str) -> dict:
    stats = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            stats[key] = value
    return stats


class OutputMismatch(Exception):
    """An op's output differs from the golden values."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OutputMismatch(what)


class Workload:
    """One workload: ``round_size`` consecutive ops cover every distinct input."""

    name = ""
    round_size = 1
    mpx_per_op = 0.0
    pairs_per_op = 0
    setup_reps = 1

    def __init__(self, seed: int, workdir: Path, golden: dict):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.golden = golden[self.name]
        self.default_seed = seed == golden["default_seed"]

    def make_inputs(self) -> None:
        """Write the op inputs; called once the program is importable."""

    def op_argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def outputs(self, i: int) -> list[Path]:
        raise NotImplementedError

    def check(self, i: int, stdout: str) -> dict:
        """Raise OutputMismatch on a wrong output; return the output digests."""
        raise NotImplementedError

    def _read_outputs(self, i: int) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in self.outputs(i)}


class Sweep256(Workload):
    name = "sweep256"
    round_size = len(MASKS)
    mpx_per_op = 5 * TILE * TILE / 1e6
    setup_reps = 3

    def make_inputs(self) -> None:
        from arsc.refimage import reference_image

        self.input = self.workdir / "ref256.pgm"
        self.input.write_bytes(pgm_bytes(reference_image().pixels))
        first = self.rng.randrange(len(MASKS))
        self.masks = MASKS[first:] + MASKS[:first]

    def mask(self, i: int) -> str:
        return self.masks[i % len(self.masks)]

    def op_argv(self, i: int) -> list[str]:
        return ["sweep", "--in", str(self.input), "--mask", self.mask(i),
                "--report", str(self.outputs(i)[0])]

    def outputs(self, i: int) -> list[Path]:
        return [self.workdir / "sweep.csv"]

    def check(self, i: int, stdout: str) -> dict:
        report = self._read_outputs(i)["sweep.csv"]
        golden = self.golden[self.mask(i)]
        digests = {"sweep.csv": sha256(report), "stdout": sha256(stdout.encode())}
        _expect(digests["sweep.csv"] == golden["report_sha256"], f"sweep report ({self.mask(i)})")
        _expect(digests["stdout"] == golden["stdout_sha256"], f"sweep stdout ({self.mask(i)})")
        return digests


class Tile1024(Workload):
    name = "tile1024"
    mpx_per_op = (TILE * TILES_PER_SIDE) ** 2 / 1e6
    setup_reps = 2

    def make_inputs(self) -> None:
        from arsc.refimage import reference_image

        ref = reference_image().pixels
        names = list(TRANSFORMS)
        self.layout = [[names[self.rng.randrange(len(names))] for _ in range(TILES_PER_SIDE)]
                       for _ in range(TILES_PER_SIDE)]
        self.pixels = np.block([[TRANSFORMS[t](ref) for t in row] for row in self.layout])
        self.input = self.workdir / "tile1024.pgm"
        self.input.write_bytes(pgm_bytes(self.pixels))

    def op_argv(self, i: int) -> list[str]:
        out, report = self.outputs(i)
        return ["compress", "--in", str(self.input), "--out", str(out), "--bits", "8",
                "--mask", "lowpass:4", "--report", str(report)]

    def outputs(self, i: int) -> list[Path]:
        return [self.workdir / "tile1024_out.pgm", self.workdir / "tile1024.csv"]

    def expected(self) -> dict:
        tiles = [self.golden["tiles"][t] for row in self.layout for t in row]
        n = self.pixels.size
        psnr_ref = psnr_db(sum(t["sse_reference"] for t in tiles), n)
        return {
            "tile_sha256": [t["sha256"] for t in tiles],
            "stats": {
                "psnr_vs_input_db": f"{psnr_db(sum(t['sse_input'] for t in tiles), n):.4f}",
                "psnr_vs_reference_db": f"{psnr_ref:.4f}",
                "simulated_cycles_fixed": str(self.golden["simulated_cycles_fixed"]),
                "clamp_count": str(sum(t["clamps"] for t in tiles)),
            },
            "report": self.golden["report_template"].format(psnr_db=f"{psnr_ref:.4f}"),
        }

    def check(self, i: int, stdout: str) -> dict:
        if not hasattr(self, "_expected"):
            self._expected = self.expected()
        exp = self._expected
        files = self._read_outputs(i)
        image, report = files["tile1024_out.pgm"], files["tile1024.csv"]
        digests = {"tile1024_out.pgm": sha256(image), "tile1024.csv": sha256(report)}
        stats = parse_stats(stdout)
        for key, value in exp["stats"].items():
            _expect(stats.get(key) == value, f"{key}: {stats.get(key)} != {value}")
        _expect(report.decode("ascii", "replace") == exp["report"], "compress report")
        try:
            pixels = parse_pgm(image)
        except ValueError as e:
            raise OutputMismatch(f"output image: {e}") from None
        _expect(pixels.shape == self.pixels.shape, f"output shape {pixels.shape}")
        got = [sha256(np.ascontiguousarray(pixels[r:r + TILE, c:c + TILE]).tobytes())
               for r in range(0, pixels.shape[0], TILE)
               for c in range(0, pixels.shape[1], TILE)]
        bad = [k for k, (g, e) in enumerate(zip(got, exp["tile_sha256"])) if g != e]
        _expect(not bad, f"output tiles {bad} differ")
        if self.default_seed:
            for name, digest in digests.items():
                _expect(digest == self.golden["default_seed"][name], f"{name} digest")
        return digests


def conventional_mean_errors(seed: int, max_n: int) -> dict[int, float]:
    """Mean |AND-count/2^n - x*w/4^n| of the LFSR multiplier, per width n.

    Bit i of the stream of x is ``state_i < x``; the two LFSRs start from the
    seed folded into their nonzero state range (the second from the seed XOR
    0x5A5A5A). Counts of ANDed streams come from one matrix product.
    """
    out = {}
    for n in range(3, max_n + 1):
        size = 1 << n
        values = np.arange(size)
        streams = []
        for taps, s in ((LFSR_TAPS_X[n], seed), (LFSR_TAPS_W[n], seed ^ 0x5A5A5A)):
            state = (s - 1) % (size - 1) + 1
            states = []
            for _ in range(size):
                states.append(state)
                feedback = 0
                for t in taps:
                    feedback ^= (state >> (t - 1)) & 1
                state = ((state << 1) | feedback) & (size - 1)
            streams.append((np.array(states)[None, :] < values[:, None]).astype(np.float64))
        counts = streams[0] @ streams[1].T
        exact = np.outer(values, values) / (size * size)
        out[n] = float(np.mean(np.abs(counts / size - exact).ravel()))
    return out


class VerifyMul(Workload):
    name = "verify-mul"
    pairs_per_op = sum((1 << n) * ((1 << n) + 1) + (1 << 2 * n) for n in range(3, VERIFY_MAX_N + 1))

    def op_argv(self, i: int) -> list[str]:
        return ["verify-mul", "--max-n", str(VERIFY_MAX_N), "--seed", str(self.seed),
                "--report", str(self.outputs(i)[0])]

    def outputs(self, i: int) -> list[Path]:
        return [self.workdir / "verify.csv"]

    def expected_rows(self) -> list[str]:
        conv = conventional_mean_errors(self.seed, VERIFY_MAX_N)
        rows = [VERIFY_HEADER]
        for n in range(3, VERIFY_MAX_N + 1):
            g = self.golden["rows"][str(n)]
            rows.append(f"{n},{(1 << n) * ((1 << n) + 1)},yes,{g['cbsc_max_abs_err']},"
                        f"{g['cbsc_mean_abs_err']},{conv[n]:.8f}")
        return rows

    def check(self, i: int, stdout: str) -> dict:
        if not hasattr(self, "_expected"):
            self._expected = self.expected_rows()
        report = self._read_outputs(i)["verify.csv"]
        digests = {"verify.csv": sha256(report)}
        rows = report.decode("ascii", "replace").split("\n")
        identity = [r.split(",")[2] if r.count(",") == 5 else "?" for r in rows[1:-1]]
        _expect(len(identity) == VERIFY_MAX_N - 2 and all(v == "yes" for v in identity),
                f"identity_ok per n: {identity}")
        bad = [r for r, e in zip(rows, self._expected) if r != e]
        _expect(rows == self._expected + [""], f"verify-mul rows {bad}")
        if self.default_seed:
            _expect(digests["verify.csv"] == self.golden["default_seed"]["verify.csv"],
                    "verify.csv digest")
        return digests


WORKLOADS = {w.name: w for w in (Sweep256, Tile1024, VerifyMul)}
