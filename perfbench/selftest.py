"""Self-test: an op whose output has one corrupted byte counts as failed.

Run from the repository root (takes about half a minute):

    PYTHONPATH=src python3 perfbench/selftest.py

For each workload, one real op runs through the benchmark's Session and must
pass. A stand-in CLI then replays that op's outputs with one byte flipped
(first, middle and last byte of each output file); every replay must be
counted as a failed op, and an unmodified replay must pass again.
"""

from __future__ import annotations

import io
import sys
import tempfile
import types
from pathlib import Path

import arsc.cli

from worker import Session
from workloads import WORKLOADS, load_golden

SEED = 2  # not the default seed, so the per-tile and per-row checks must catch it


def replaying_cli(files: dict[Path, bytes], stdout: str, flip: tuple[Path, int] | None):
    """A CLI stand-in that rewrites recorded outputs, optionally with one byte flipped."""

    def main(argv):
        for path, data in files.items():
            if flip and flip[0] == path:
                data = bytearray(data)
                data[flip[1]] ^= 0x01
                data = bytes(data)
            path.write_bytes(data)
        sys.stdout.write(stdout)
        return 0

    return types.SimpleNamespace(main=main)


def capture(argv, buf: io.StringIO) -> int:
    """Run the real CLI inside a Session and keep a copy of what it printed."""
    rc = arsc.cli.main(argv)
    buf.write(sys.stdout.getvalue())
    return rc


def main() -> int:
    failures = []
    golden = load_golden()
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            wl = cls(SEED, workdir, golden)
            wl.make_inputs()

            buf = io.StringIO()
            real = Session(wl, types.SimpleNamespace(main=lambda argv: capture(argv, buf)))
            real.run_op(0)
            if not real.ops[-1]["ok"]:
                failures.append(f"{name}: genuine op failed: {real.ops[-1]['error']}")
                continue
            files = {p: p.read_bytes() for p in wl.outputs(0)}

            cases = [None] + [(p, k) for p, data in files.items()
                              for k in (0, len(data) // 2, len(data) - 1)]
            for flip in cases:
                s = Session(wl, replaying_cli(files, buf.getvalue(), flip))
                s.run_op(0)
                ok = s.ops[-1]["ok"]
                what = "unmodified replay" if flip is None else f"{flip[0].name} byte {flip[1]}"
                if ok != (flip is None):
                    failures.append(f"{name}: {what}: ok={ok}")
                else:
                    print(f"{name}: {what}: {'passed' if ok else 'counted as failed'}")
    for f in failures:
        print(f"SELFTEST FAIL {f}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
