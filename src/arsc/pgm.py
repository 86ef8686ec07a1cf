"""Binary PGM (P5, maxval 255) I/O in row bands, and output_file, the one writer of outputs."""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dct import GrayImage

# one-byte slices only: b"" is in every bytes object, so callers check for it first
_WHITESPACE = b" \t\r\n\x0b\x0c"


@contextmanager
def pgm_reader(path):
    """(width, height, bands) of a binary PGM file; malformed input reports the byte offset.

    The header, and the raster length against the file size, are checked on
    entry. bands(rows) yields the raster top to bottom in bands of `rows` rows,
    read into one reused buffer: a band is valid until the next.
    """
    with open(path, "rb") as f:
        if not f.seekable():  # a pipe: read whole, for its size
            f = io.BufferedReader(io.BytesIO(f.read()))
        size = f.seek(0, os.SEEK_END)
        f.seek(0)

        def token() -> bytes:
            tok = bytearray()
            while (c := f.peek(1)[:1]) and not (tok and c in _WHITESPACE):
                f.read(1)
                if c == b"#" and not tok:  # a comment runs to the end of its line
                    while f.peek(1)[:1] not in (b"", b"\r", b"\n"):
                        f.read(1)
                elif c not in _WHITESPACE:
                    tok += c
            if not tok:
                raise ValueError(f"truncated PGM header at byte {f.tell()}")
            return bytes(tok)

        def int_token(what: str) -> int:
            tok = token()
            # ASCII decimal digits only: int() would also take b"+8" or b"1_6"
            if not tok.isdigit():
                raise ValueError(f"bad {what} {tok!r} at byte {f.tell() - len(tok)}")
            return int(tok)

        magic = token()
        if magic != b"P5":
            raise ValueError(f"not a binary PGM (magic {magic!r} at byte 0)")
        width, height, maxval = (int_token(what) for what in ("width", "height", "maxval"))
        if width <= 0 or height <= 0:
            raise ValueError(f"bad dimensions {width}x{height}")
        if maxval != 255:
            raise ValueError(f"unsupported maxval {maxval} (only 255)")
        # exactly one whitespace byte before the raster; at the end of the file the read fails
        if f.peek(1)[:1] not in _WHITESPACE or not f.read(1):
            raise ValueError(f"missing whitespace after header at byte {f.tell()}")
        if size - f.tell() < width * height:
            raise ValueError(f"truncated raster at byte {size}: "
                             f"expected {width * height} bytes, found {size - f.tell()}")

        def bands(rows: int):
            buf = np.empty((min(rows, height), width), np.uint8)
            for y in range(0, height, rows):
                if f.readinto(band := buf[:height - y]) != band.nbytes:
                    raise ValueError(f"{path} shrank while it was read")
                yield band

        yield width, height, bands


def read_pgm(path) -> GrayImage:
    """Read a binary PGM file; malformed input reports the byte offset."""
    with pgm_reader(path) as (_, height, bands):
        return GrayImage(next(bands(height)))


@contextmanager
def output_file(path):
    """An open binary file, a temporary beside path's realpath, that replaces path when the with
    block ends without an exception and is removed on any other exit; None for no path."""
    if path is None:
        yield None
        return
    path = Path(os.path.realpath(path))  # Path.resolve raises RuntimeError on a loop in 3.11
    if path.is_symlink():  # realpath leaves only a symlink loop unresolved
        raise ValueError(f"{path} is a symlink loop")
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # already gone once replaced


def pgm_writer(f, width: int, height: int):
    """Write a PGM header to binary file f; return a writer of its raster's row bands, in order."""
    f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
    return lambda rows: f.write(np.ascontiguousarray(rows))


def write_pgm(img: GrayImage, path) -> None:
    """Write a binary PGM file."""
    with output_file(path) as f:
        pgm_writer(f, img.width, img.height)(img.pixels)
