"""Binary PGM (P5) image I/O, maxval 255 only."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dct import GrayImage

# one-byte slices only: b"" is in every bytes object, so callers check pos first
_WHITESPACE = b" \t\r\n\x0b\x0c"


def read_pgm(path) -> GrayImage:
    """Read a binary PGM file; malformed input reports the byte offset."""
    data = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c in _WHITESPACE:
                pos += 1
            elif c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\r", b"\n"):
                    pos += 1
            else:
                break
        if pos >= len(data):
            raise ValueError(f"truncated PGM header at byte {pos}")
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
            pos += 1
        return data[start:pos]

    def int_token(what: str) -> int:
        tok = token()
        # ASCII decimal digits only: int() would also take b"+8" or b"1_6"
        if not tok.isdigit():
            raise ValueError(f"bad {what} {tok!r} at byte {pos - len(tok)}")
        return int(tok)

    magic = token()
    if magic != b"P5":
        raise ValueError(f"not a binary PGM (magic {magic!r} at byte 0)")
    width = int_token("width")
    height = int_token("height")
    maxval = int_token("maxval")
    if width <= 0 or height <= 0:
        raise ValueError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (only 255)")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise ValueError(f"missing whitespace after header at byte {pos}")
    pos += 1  # exactly one whitespace byte before the raster

    expected = width * height
    if len(data) - pos < expected:
        raise ValueError(
            f"truncated raster at byte {len(data)}: "
            f"expected {expected} bytes, found {len(data) - pos}"
        )
    pixels = np.frombuffer(data, np.uint8, expected, pos).reshape(height, width)
    return GrayImage(pixels.copy())


def write_pgm(img: GrayImage, path) -> None:
    """Write a binary PGM file."""
    with open(path, "wb") as f:
        f.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(img.pixels))
