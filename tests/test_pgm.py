"""Binary PGM reader/writer."""

import os
import re

import numpy as np
import pytest

from arsc.dct import GrayImage
from arsc.pgm import pgm_reader, read_pgm, write_pgm


def test_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    img = GrayImage(rng.integers(0, 256, size=(13, 21)).astype(np.uint8))
    p = tmp_path / "img.pgm"
    write_pgm(img, p)
    assert read_pgm(p) == img
    # write/read again is byte-identical
    p2 = tmp_path / "img2.pgm"
    write_pgm(read_pgm(p), p2)
    assert p.read_bytes() == p2.read_bytes()


def test_write_to_a_symlink_loop_refused(tmp_path):
    # the CLI refuses a looping output before any work; a library caller meets this check
    loop = tmp_path / "loop.pgm"
    loop.symlink_to(loop.name)
    message = f"^{re.escape(os.path.realpath(loop))} is a symlink loop$"
    with pytest.raises(ValueError, match=message):
        write_pgm(GrayImage(np.zeros((8, 8), np.uint8)), loop)
    assert sorted(tmp_path.iterdir()) == [loop]
    assert os.readlink(loop) == loop.name


def test_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # magic\n# a comment line\n 2\t3 # dims\n255\n" + bytes(6))
    img = read_pgm(p)
    assert (img.height, img.width) == (3, 2)
    assert np.all(img.pixels == 0)


def test_truncated_header_reports_offset(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n10 ")
    with pytest.raises(ValueError, match=r"byte \d+"):
        read_pgm(p)


def test_truncated_raster_reports_offset(tmp_path):
    p = tmp_path / "t.pgm"
    for found in (0, 7, 15):
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(found))
        message = f"truncated raster at byte {11 + found}: expected 16 bytes, found {found}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_pgm(p)


def test_written_file_is_header_then_raster_in_c_order(tmp_path):
    pixels = np.random.default_rng(5).integers(0, 256, size=(6, 9)).astype(np.uint8)
    for view in (pixels, pixels.T, pixels[::2, ::3]):
        p = tmp_path / "v.pgm"
        write_pgm(GrayImage(view), p)
        h, w = view.shape
        assert p.read_bytes() == f"P5\n{w} {h}\n255\n".encode() + view.tobytes()
        got = read_pgm(p).pixels
        assert np.array_equal(got, view) and got.flags.writeable


def test_wrong_magic(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match="magic"):
        read_pgm(p)


def test_unsupported_maxval(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(p)


def test_header_at_end_of_file(tmp_path):
    # no whitespace byte after maxval, and no raster
    p = tmp_path / "e.pgm"
    p.write_bytes(b"P5 2 2 255")
    with pytest.raises(ValueError, match="^missing whitespace after header at byte 10$"):
        read_pgm(p)


def test_file_shrinking_while_read(tmp_path):
    # the raster passes the size check on entry, then the file is cut short; a
    # raster this large is not already buffered by the header read
    p = tmp_path / "s.pgm"
    write_pgm(GrayImage(np.zeros((256, 256), dtype=np.uint8)), p)
    with pgm_reader(p) as (_, height, bands):
        os.truncate(p, 1000)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))} shrank while it was read$"):
            next(bands(height))


def test_non_numeric_dimension(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\nxx 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="width"):
        read_pgm(p)


@pytest.mark.parametrize(
    "header,message",
    [
        (b"P5\n+8 16\n255\n", "bad width b'+8' at byte 3"),
        (b"P5\n8 1_6\n255\n", "bad height b'1_6' at byte 5"),
        (b"P5\n8 16\n+255\n", "bad maxval b'+255' at byte 8"),
    ],
    ids=["plus-width", "underscore-height", "plus-maxval"],
)
def test_header_integers_are_ascii_digits(tmp_path, header, message):
    # each header is an 8x16 image to Python's int(); the raster is complete
    p = tmp_path / "h.pgm"
    p.write_bytes(header + bytes(8 * 16))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_pgm(p)


@pytest.mark.parametrize("ws", [b"\t", b"\n", b"\x0b", b"\x0c", b"\r", b" "],
                         ids=["tab", "lf", "vt", "ff", "cr", "space"])
def test_every_whitespace_byte_separates(tmp_path, ws):
    # the raster starts with whitespace bytes: only the one after maxval is skipped
    raster = b"\t\n\x0b\x0c\r "
    p = tmp_path / "w.pgm"
    p.write_bytes(ws.join([b"P5", b"2", b"3", b"255", raster]))
    img = read_pgm(p)
    assert (img.height, img.width) == (3, 2)
    assert img.pixels.tobytes() == raster
