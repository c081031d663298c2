"""Deterministic file formats: binary netpbm images and MSPT tensors.

PPM (P6) and PGM (P5) follow the netpbm conventions with maxval fixed
at 255; header comments are accepted on read. MSPT is a minimal tensor
container:

    bytes 0-3   magic "MSPT"
    byte  4     version, must be 1
    byte  5     dtype code: 0 = float32 LE, 1 = uint32 LE
    byte  6     ndim, 1..4
    then        ndim x uint32 LE dimension sizes (each >= 1)
    then        product(dims) * 4 payload bytes, row-major

Readers reject any mismatch between declared and actual payload length,
and all round-trips are bit-exact.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SuperpixelPartition, check_image, check_label_map, relabel_contiguous
from .metrics import boundary_mask

__all__ = [
    "FormatError",
    "read_mspt",
    "read_pgm",
    "read_ppm",
    "render_overlay",
    "write_mspt",
    "write_pgm",
    "write_ppm",
]

_MSPT_MAGIC = b"MSPT"
_MSPT_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<u4")}
# Longest netpbm header integer accepted; far beyond any real size, and
# short enough that int() never meets Python's digit limit.
_NETPBM_MAX_DIGITS = 20


class FormatError(Exception):
    """A file violates its declared format."""


# ---------------------------------------------------------------------------
# netpbm
# ---------------------------------------------------------------------------


def _netpbm_tokens(data: bytes, start: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` whitespace-separated integer tokens, honoring
    '#...' comments. Returns the values and the offset just past the
    single whitespace byte that terminates the last token."""
    tokens: list[int] = []
    pos = start
    while len(tokens) < count:
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                nl = data.find(b"\n", pos)
                if nl < 0:
                    raise FormatError(f"unterminated comment at byte offset {pos}")
                pos = nl + 1
            elif ch.isspace():
                pos += 1
            else:
                break
        tok_start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            if data[pos : pos + 1] == b"#":
                break
            pos += 1
        tok = data[tok_start:pos]
        if not tok.isdigit():
            raise FormatError(
                f"expected an integer header token at byte offset {tok_start}"
            )
        if len(tok) > _NETPBM_MAX_DIGITS:
            raise FormatError(
                f"header integer of {len(tok)} digits at byte offset "
                f"{tok_start} (at most {_NETPBM_MAX_DIGITS})"
            )
        tokens.append(int(tok))
        if len(tokens) == count:
            if pos >= len(data) or not data[pos : pos + 1].isspace():
                raise FormatError(
                    f"missing whitespace after header at byte offset {pos}"
                )
            pos += 1  # exactly one whitespace byte before the payload
    return tokens, pos


def _read_netpbm(path: str, magic: bytes, samples: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != magic:
        raise FormatError(
            f"bad magic {data[:2]!r} at byte offset 0 (expected {magic!r})"
        )
    (width, height, maxval), pos = _netpbm_tokens(data, 2, 3)
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval} (header ends at "
                          f"byte offset {pos})")
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    expected = width * height * samples
    payload = data[pos:]
    if len(payload) != expected:
        raise FormatError(
            f"payload is {len(payload)} bytes at byte offset {pos}, "
            f"expected {expected}"
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    shape = (height, width, samples) if samples > 1 else (height, width)
    return arr.reshape(shape).copy()


def _write_netpbm(image: np.ndarray, path: str, magic: bytes, samples: int) -> None:
    arr = np.asarray(image)
    tail = (samples,) if samples > 1 else ()
    if arr.ndim != 2 + len(tail) or arr.shape[2:] != tail or arr.dtype != np.uint8:
        shape = ", ".join(["H", "W", *map(str, tail)])
        raise ValueError(f"image must be ({shape}) uint8, got {arr.shape} {arr.dtype}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """Read a binary P6 PPM into an (H, W, 3) uint8 array."""
    return _read_netpbm(path, b"P6", 3)


def write_ppm(image: np.ndarray, path: str) -> None:
    """Write an (H, W, 3) uint8 array as binary P6 PPM, maxval 255."""
    _write_netpbm(image, path, b"P6", 3)


def read_pgm(path: str) -> np.ndarray:
    """Read a binary P5 PGM into an (H, W) uint8 array."""
    return _read_netpbm(path, b"P5", 1)


def write_pgm(image: np.ndarray, path: str) -> None:
    """Write an (H, W) uint8 array as binary P5 PGM, maxval 255."""
    _write_netpbm(image, path, b"P5", 1)


# ---------------------------------------------------------------------------
# MSPT tensors
# ---------------------------------------------------------------------------


def read_mspt(path: str) -> np.ndarray:
    """Read an MSPT file into a float32 or uint32 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MSPT_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r} (expected {_MSPT_MAGIC!r})")
    if len(data) < 7:
        raise FormatError("truncated header")
    version, dtype_code, ndim = data[4], data[5], data[6]
    if version != _MSPT_VERSION:
        raise FormatError(f"unsupported version {version} (expected 1)")
    if dtype_code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {dtype_code}")
    if not 1 <= ndim <= 4:
        raise FormatError(f"ndim must be in [1, 4], got {ndim}")
    dims_end = 7 + 4 * ndim
    if len(data) < dims_end:
        raise FormatError("truncated dims")
    dims = tuple(
        int.from_bytes(data[7 + 4 * i : 11 + 4 * i], "little") for i in range(ndim)
    )
    if any(d < 1 for d in dims):
        raise FormatError(f"every dim must be >= 1, got {dims}")
    count = math.prod(dims)
    payload = data[dims_end:]
    if len(payload) != count * 4:
        raise FormatError(
            f"payload is {len(payload)} bytes, expected {count * 4} for dims {dims}"
        )
    arr = np.frombuffer(payload, dtype=_DTYPE_CODES[dtype_code])
    return arr.reshape(dims).copy()


def write_mspt(tensor: np.ndarray, path: str) -> None:
    """Write a float32 or uint32 array, in either byte order, as an MSPT file."""
    arr = np.asarray(tensor)  # not ascontiguousarray, which makes a 0-D array 1-D
    kind = (arr.dtype.kind, arr.dtype.itemsize)  # the same for either byte order
    if kind == ("f", 4):
        code = 0
    elif kind == ("u", 4):
        code = 1
    else:
        raise ValueError(
            f"MSPT stores float32 or uint32 payloads, got dtype {arr.dtype}"
        )
    if not 1 <= arr.ndim <= 4:
        raise ValueError(f"MSPT stores 1- to 4-D tensors, got ndim {arr.ndim}")
    if min(arr.shape) < 1:
        raise ValueError(f"every dim must be >= 1, got {arr.shape}")
    if max(arr.shape) >= 2**32:  # dims are stored as uint32
        raise ValueError(f"every dim must be < 2**32, got {arr.shape}")
    header = bytearray(_MSPT_MAGIC)
    header += bytes([_MSPT_VERSION, code, arr.ndim])
    for d in arr.shape:
        header += int(d).to_bytes(4, "little")
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


# ---------------------------------------------------------------------------
# Visualization
# ---------------------------------------------------------------------------


def render_overlay(
    image: np.ndarray,
    labels: np.ndarray | SuperpixelPartition,
    mode: str = "boundaries",
) -> np.ndarray:
    """Paint label structure onto an image.

    ``boundaries`` draws label-boundary pixels in pure red;
    ``mean-color`` fills each label region with its mean sRGB color
    (rounded to the nearest 8-bit value).
    """
    img = check_image(image)
    lab_arr = labels.labels if isinstance(labels, SuperpixelPartition) else labels
    lab_arr = check_label_map(lab_arr)
    if lab_arr.shape != img.shape[:2]:
        raise ValueError(
            f"labels {lab_arr.shape} and image {img.shape[:2]} differ in shape"
        )
    if mode == "boundaries":
        out = img.copy()
        out[boundary_mask(lab_arr)] = (255, 0, 0)
        return out
    if mode == "mean-color":
        part = relabel_contiguous(lab_arr)
        flat = part.labels.ravel()
        # msgpass.block_means's means, bit for bit, without its sparse plan.
        means = np.stack([np.bincount(flat, weights=img[..., c].ravel()) / part.block_sizes
                          for c in range(3)], axis=1)
        return np.rint(means[part.labels]).astype(np.uint8)
    raise ValueError(f"mode must be 'boundaries' or 'mean-color', got {mode!r}")
