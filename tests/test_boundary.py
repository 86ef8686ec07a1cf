"""Fuzzed input files through `main`: platform JSON, rows CSV, mask files and PGM images.

The rule for every input: exit 0, 1 or 2. A failed run writes exactly one
stderr line, starting `error:` or `calibration error:`, with no traceback,
and leaves no `--report` or `--out` file, nor a temporary one, behind. A
warning would print a second stderr line, so none may be raised.
"""

import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arsc.cli import main
from arsc.dct import GrayImage
from arsc.pgm import write_pgm
from arsc.platform_model import FPGA_TABLE, default_platform, save_platform

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
BOM = "\ufeff"


def _run_by_the_rule(argv, capsys, outputs) -> int:
    """main(argv)'s exit code, checked against the rule."""
    for path in outputs:
        path.unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    captured = capsys.readouterr()
    assert rc in (0, 1, 2), captured.err
    assert not caught, [str(w.message) for w in caught]
    if rc:
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith(("error: ", "calibration error: ")), captured.err
        assert "Traceback" not in captured.err
        assert not [p for p in outputs if p.exists()], captured.err
    assert not [p for out in outputs for p in out.parent.glob(".*.tmp")], captured.err
    return rc


@functools.cache
def _bundled_text() -> str:
    """The bundled platform as save_platform writes it."""
    return save_platform(default_platform())


# JSON values that break a platform number or structure in some way
json_leaves = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.integers(-10**30, 10**30), st.integers(10**300, 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 5e-324, 1e-300, 1e308, 85.7, 75.7, 10.0, 1e6]),
    st.floats(0.1, 1e5),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@st.composite
def platform_files(draw) -> bytes:
    """Raw bytes, or the bundled platform document with one to three entries
    replaced, deleted or added at any depth."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    doc = json.loads(_bundled_text())
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and draw(st.booleans()):
                node = node[key]
                continue
            action = draw(st.sampled_from(["replace", "delete", "add"]))
            if action == "replace":
                node[key] = draw(json_values)
            elif action == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(st.text(max_size=4))] = draw(json_values)
            else:
                node.append(draw(json_values))
            break
    return json.dumps(doc).encode()


@given(data=platform_files(), years=st.integers(0, 12), target=st.sampled_from(["7.19", "1e6"]))
@FUZZ
def test_fuzzed_platform_through_aging(tmp_path, capsys, data, years, target):
    path, report = tmp_path / "p.json", tmp_path / "aging.csv"
    path.write_bytes(data)
    _run_by_the_rule(["aging", "--platform", str(path), "--years", str(years),
                      "--target", target, "--report", str(report)], capsys, [report])


# published and edge values, and texts that int() or float() read in ways a
# measurement file does not mean
CELLS = ["10", "6", "-1", "11", "0", "85.7", "0.139", "5e-324", "1e308", "1e400", "nan",
         "inf", "-inf", "+9", "1_0", "", " ", "x", "0x1", "9" * 5000, "\u0661", BOM + "1"]


@st.composite
def rows_files(draw) -> bytes:
    """Raw bytes, or some of the published rows with up to four cells (header
    names included) replaced."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    published = [[str(v) for v in row] for row in FPGA_TABLE]
    cells = [["bitwidth", "freq_mhz", "power_w", "latency_s"]]
    cells += [list(r) for r in draw(st.lists(st.sampled_from(published), unique_by=tuple))]
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.sampled_from(cells))
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(CELLS) | st.text(max_size=5))
    text = "\n".join(",".join(r) for r in cells)
    return ((BOM if draw(st.booleans()) else "") + text).encode("utf-8", "surrogatepass")


@given(data=rows_files())
@FUZZ
def test_fuzzed_rows_through_calibrate(tmp_path, capsys, data):
    rows, out = tmp_path / "rows.csv", tmp_path / "p.json"
    rows.write_bytes(data)
    _run_by_the_rule(["calibrate", "--rows", str(rows), "--out", str(out)], capsys, [out])


@pytest.fixture
def tiny_image(tmp_path):
    path = tmp_path / "in.pgm"
    write_pgm(GrayImage(np.arange(8 * 16, dtype=np.uint8).reshape(8, 16)), path)
    return path


@st.composite
def mask_files(draw) -> bytes:
    """Raw bytes, or an 8x8 mask with its own separator and line ends and up
    to three characters inserted or replaced."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    sep = draw(st.sampled_from(["", " ", "\t", "  ", "\u3000"]))
    rows = [sep.join(draw(st.lists(st.sampled_from("01"), min_size=8, max_size=8)))
            for _ in range(8)]
    text = list(draw(st.sampled_from(["\n", "\r\n", "\r"])).join(rows))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from("01 \t#x\n\r\x00\x1c\u3000\u0661" + BOM) | st.characters())
        text[at:at + draw(st.integers(0, 1))] = [char]
    return ((BOM if draw(st.booleans()) else "") + "".join(text)).encode("utf-8", "surrogatepass")


@given(data=mask_files())
@FUZZ
def test_fuzzed_mask_through_compress(tmp_path, tiny_image, capsys, data):
    mask, out, report = tmp_path / "m.txt", tmp_path / "out.pgm", tmp_path / "r.csv"
    mask.write_bytes(data)
    _run_by_the_rule(["compress", "--in", str(tiny_image), "--out", str(out), "--bits", "6",
                      "--mask", f"file:{mask}", "--report", str(report)], capsys, [out, report])


@st.composite
def pgm_files(draw) -> bytes:
    """A binary PGM of odd size and maxval, with up to three header bytes
    replaced, its raster cut short, or bytes after it."""
    width, height = (draw(st.integers(0, 20) | st.sampled_from([10**12, 2**64])) for _ in "wh")
    maxval = draw(st.sampled_from([255, 255, 255, 0, 1, 254, 256, 65535]))
    header = bytearray(f"P5\n{width} {height}\n{maxval}\n".encode())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        header[draw(st.integers(0, len(header) - 1))] = draw(
            st.sampled_from(b" \t\r\n#x+-0159P") | st.integers(0, 255))
    raster = bytes(range(256)) * (min(width * height, 4000) // 256 + 1)
    raster = raster[:max(0, min(width * height, 4000) + draw(st.integers(-3, 3)))]
    if draw(st.integers(0, 2)) == 0:
        raster = raster[:draw(st.integers(0, len(raster)))]
    return bytes(header) + raster + draw(st.binary(max_size=8))


@given(data=pgm_files())
@FUZZ
def test_fuzzed_pgm_through_compress_and_sweep(tmp_path, capsys, data):
    src, out, report = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "r.csv"
    src.write_bytes(data)
    for argv, outputs in ((["compress", "--out", str(out), "--bits", "7"], [out, report]),
                          (["sweep"], [report])):
        _run_by_the_rule([*argv, "--in", str(src), "--report", str(report)], capsys, outputs)
