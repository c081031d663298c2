"""Refusals of the MSPT and netpbm readers and writers that the
round-trip tests in test_io.py do not reach, and MSPT writes of arrays
that are not C-contiguous."""

import numpy as np
import pytest

from spxkit import FormatError, read_mspt, read_ppm, write_mspt


@pytest.mark.parametrize(
    "tensor, message",
    [
        (np.float32(1.5), "1- to 4-D tensors, got ndim 0"),
        (np.zeros((1, 1, 1, 1, 2), np.float32), "1- to 4-D tensors, got ndim 5"),
        (np.zeros(0, np.uint32), r"every dim must be >= 1, got \(0,\)"),
        (np.zeros((2, 0, 3), np.float32), r"every dim must be >= 1, got \(2, 0, 3\)"),
    ],
)
def test_write_mspt_refuses_shapes_the_format_cannot_hold(tmp_path, tensor, message):
    path = tmp_path / "t.mspt"
    with pytest.raises(ValueError, match=message):
        write_mspt(tensor, str(path))
    assert not path.exists()


@pytest.mark.parametrize(
    "view",
    [lambda a: a.T, lambda a: a[:, ::2], lambda a: np.asfortranarray(a)],
)
def test_write_mspt_stores_any_layout_in_row_major_order(tmp_path, view):
    arr = view(np.arange(24, dtype=np.float32).reshape(4, 6))
    path = tmp_path / "t.mspt"
    write_mspt(arr, str(path))
    back = read_mspt(str(path))
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_read_mspt_refuses_a_zero_dim(tmp_path):
    path = tmp_path / "t.mspt"
    dims = b"".join(d.to_bytes(4, "little") for d in (2, 0))
    path.write_bytes(b"MSPT" + bytes([1, 0, 2]) + dims)  # float32, 2-D, no payload
    with pytest.raises(FormatError, match=r"every dim must be >= 1, got \(2, 0\)"):
        read_mspt(str(path))


def test_header_comment_without_a_newline_is_refused(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n2 2\n# no newline follows")
    with pytest.raises(FormatError, match="unterminated comment at byte offset 7"):
        read_ppm(str(path))
