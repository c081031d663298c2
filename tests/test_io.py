import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spxkit import (
    FormatError,
    block_means,
    read_mspt,
    read_pgm,
    read_ppm,
    relabel_contiguous,
    render_overlay,
    validate_partition,
    write_mspt,
    write_pgm,
    write_ppm,
)

# A 2-wide, 3-high netpbm header; "P6" is swapped for "P5" in PGM tests.
NETPBM_2X3_HEADER = b"P6\n2 3\n255\n"
MSPT_SCALAR_ZERO = bytes.fromhex("4d53505401000101000000" + "00000000")
# dims (2, 3) float32, six payload floats
MSPT_2X3 = (
    b"MSPT\x01\x00\x02"
    + (2).to_bytes(4, "little")
    + (3).to_bytes(4, "little")
    + np.arange(6, dtype="<f4").tobytes()
)


class TestPpm:
    def test_1x1_white(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P6 1 1 255 "[:9] + b"255\n" + bytes([255, 255, 255]))
        # simpler canonical form
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 255, 255]))
        img = read_ppm(str(path))
        assert img.shape == (1, 1, 3)
        assert img[0, 0].tolist() == [255, 255, 255]

    def test_round_trip_random_images(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(5):
            h, w = (int(v) for v in rng.integers(1, 9, 2))
            img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            path = tmp_path / f"r{i}.ppm"
            write_ppm(img, str(path))
            assert np.array_equal(read_ppm(str(path)), img)

    def test_write_rejects_non_uint8(self, tmp_path):
        path = tmp_path / "x.ppm"
        # 300 would wrap to 44 if it were cast; nothing may be written.
        with pytest.raises(ValueError, match="uint8"):
            write_ppm(np.full((2, 2, 3), 300), str(path))
        assert not path.exists()

    def test_header_comment_parses_identically(self, tmp_path):
        payload = bytes(range(12))
        plain = tmp_path / "plain.ppm"
        plain.write_bytes(b"P6\n2 2\n255\n" + payload)
        commented = tmp_path / "commented.ppm"
        commented.write_bytes(b"P6\n# foo\n2 2\n# bar\n255\n" + payload)
        assert np.array_equal(read_ppm(str(plain)), read_ppm(str(commented)))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FormatError, match="magic"):
            read_ppm(str(path))

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(str(path))

    def test_truncated_payload_rejected_with_offset(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(FormatError, match="byte offset"):
            read_ppm(str(path))

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "long.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            read_ppm(str(path))

    def test_huge_integer_token_rejected(self, tmp_path):
        # 5000 digits is past Python's int() digit limit, which raises
        # ValueError rather than a format error.
        path = tmp_path / "big.ppm"
        path.write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="digits"):
            read_ppm(str(path))

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        magic=st.sampled_from([b"P6", b"P5"]),
        cut=st.integers(0, len(NETPBM_2X3_HEADER) + 18),
        edits=st.lists(
            st.tuples(
                st.integers(0, len(NETPBM_2X3_HEADER) - 1), st.integers(0, 255)
            ),
            max_size=4,
        ),
    )
    def test_garbled_or_truncated_header_raises_only_format_error(
        self, tmp_path, magic, cut, edits
    ):
        samples = 3 if magic == b"P6" else 1
        data = bytearray(magic + NETPBM_2X3_HEADER[2:] + bytes(range(6 * samples)))
        for pos, value in edits:
            data[pos] = value
        data = bytes(data[:cut])
        path = tmp_path / "fuzz.pnm"
        path.write_bytes(data)
        read = read_ppm if magic == b"P6" else read_pgm
        try:
            arr = read(str(path))
        except FormatError:
            return
        # A '#' starts a comment up to the newline, also inside a token.
        tokens = re.sub(rb"#[^\n]*\n", b" ", data[2:]).split()
        width, height = int(tokens[0]), int(tokens[1])
        assert arr.shape == ((height, width, 3) if samples == 3 else (height, width))


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (3, 5)).astype(np.uint8)
        path = tmp_path / "g.pgm"
        write_pgm(img, str(path))
        assert np.array_equal(read_pgm(str(path)), img)

    def test_write_rejects_non_uint8(self, tmp_path):
        path = tmp_path / "x.pgm"
        # A NaN would be cast to 0 with only a RuntimeWarning.
        with pytest.raises(ValueError, match="uint8"):
            write_pgm(np.full((2, 2), np.nan), str(path))
        assert not path.exists()


class TestMspt:
    def test_scalar_zero_fixture_bytes(self, tmp_path):
        path = tmp_path / "z.mspt"
        write_mspt(np.zeros(1, dtype=np.float32), str(path))
        assert path.read_bytes() == MSPT_SCALAR_ZERO
        assert len(MSPT_SCALAR_ZERO) == 15

    def test_round_trip_f32(self, tmp_path):
        rng = np.random.default_rng(2)
        for i in range(5):
            ndim = int(rng.integers(1, 5))
            shape = tuple(int(v) for v in rng.integers(1, 5, ndim))
            arr = rng.normal(size=shape).astype(np.float32)
            path = tmp_path / f"t{i}.mspt"
            write_mspt(arr, str(path))
            back = read_mspt(str(path))
            assert back.dtype == np.float32
            assert back.shape == shape
            assert np.array_equal(
                back.view(np.uint32), arr.view(np.uint32)
            )  # bit-exact

    def test_u32_label_map_round_trip_validates(self, tmp_path):
        labels = np.array([[0, 0], [1, 1]], dtype=np.uint32)
        path = tmp_path / "labels.mspt"
        write_mspt(labels, str(path))
        back = read_mspt(str(path))
        assert back.dtype == np.uint32
        part = relabel_contiguous(back.astype(np.int64))
        assert validate_partition(part).ok

    @pytest.mark.parametrize("dtype", [">f4", ">u4"])
    def test_big_endian_round_trip(self, tmp_path, dtype):
        arr = np.arange(6, dtype=dtype).reshape(2, 3)
        path = tmp_path / "be.mspt"
        write_mspt(arr, str(path))
        back = read_mspt(str(path))
        assert back.dtype == arr.dtype.newbyteorder("<")
        assert np.array_equal(back, arr)
        native = tmp_path / "le.mspt"
        write_mspt(arr.astype(back.dtype), str(native))
        assert path.read_bytes() == native.read_bytes()

    def test_bad_magic_named(self, tmp_path):
        path = tmp_path / "bad.mspt"
        path.write_bytes(b"XSPT" + MSPT_SCALAR_ZERO[4:])
        with pytest.raises(FormatError, match="magic"):
            read_mspt(str(path))

    def test_bad_version_named(self, tmp_path):
        path = tmp_path / "bad.mspt"
        path.write_bytes(b"MSPT\x02" + MSPT_SCALAR_ZERO[5:])
        with pytest.raises(FormatError, match="version"):
            read_mspt(str(path))

    def test_bad_dtype_named(self, tmp_path):
        path = tmp_path / "bad.mspt"
        path.write_bytes(b"MSPT\x01\x07" + MSPT_SCALAR_ZERO[6:])
        with pytest.raises(FormatError, match="dtype"):
            read_mspt(str(path))

    def test_bad_ndim_named(self, tmp_path):
        path = tmp_path / "bad.mspt"
        path.write_bytes(b"MSPT\x01\x00\x05" + MSPT_SCALAR_ZERO[7:])
        with pytest.raises(FormatError, match="ndim"):
            read_mspt(str(path))

    def test_payload_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.mspt"
        path.write_bytes(MSPT_SCALAR_ZERO + b"\x00")
        with pytest.raises(FormatError, match="payload"):
            read_mspt(str(path))
        path.write_bytes(MSPT_SCALAR_ZERO[:-1])
        with pytest.raises(FormatError, match="payload"):
            read_mspt(str(path))

    def test_dims_product_overflowing_int64_rejected(self, tmp_path):
        # 2^31 * 2^31 * 4 = 2^64 elements wraps to 0 in int64 arithmetic,
        # which an empty payload would match.
        path = tmp_path / "huge.mspt"
        dims = (2**31, 2**31, 4, 1)
        header = b"MSPT\x01\x00\x04" + b"".join(
            d.to_bytes(4, "little") for d in dims
        )
        path.write_bytes(header)
        with pytest.raises(FormatError, match="payload"):
            read_mspt(str(path))

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cut=st.integers(0, len(MSPT_2X3)),
        edits=st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 255)), max_size=4
        ),
    )
    def test_garbled_or_truncated_header_raises_only_format_error(
        self, tmp_path, cut, edits
    ):
        data = bytearray(MSPT_2X3)
        for pos, value in edits:
            data[pos] = value
        path = tmp_path / "fuzz.mspt"
        path.write_bytes(bytes(data[:cut]))
        try:
            arr = read_mspt(str(path))
        except FormatError:
            return
        ndim = data[6]
        dims = tuple(
            int.from_bytes(data[7 + 4 * i : 11 + 4 * i], "little") for i in range(ndim)
        )
        assert arr.shape == dims
        assert arr.size * 4 == cut - (7 + 4 * ndim)

    def test_write_rejects_other_dtypes(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            write_mspt(np.zeros(2, dtype=np.float64), str(tmp_path / "x.mspt"))


class TestRenderOverlay:
    def test_single_block_boundaries_is_identity(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (4, 4, 3)).astype(np.uint8)
        part = relabel_contiguous(np.zeros((4, 4), dtype=np.int64))
        assert np.array_equal(render_overlay(img, part, "boundaries"), img)

    def test_constant_image_mean_color_is_identity(self):
        img = np.full((4, 6, 3), 123, np.uint8)
        labels = np.arange(24).reshape(4, 6) % 3
        assert np.array_equal(render_overlay(img, labels, "mean-color"), img)

    def test_two_block_mean_color_fills_half_means(self):
        img = np.zeros((4, 4, 3), np.uint8)
        img[:, :2] = (10, 20, 30)
        img[:, 2:] = (50, 60, 70)
        labels = (np.arange(4)[None, :] >= 2) * np.ones((4, 1), dtype=np.int64)
        out = render_overlay(img, labels.astype(np.int64), "mean-color")
        assert np.array_equal(out[:, :2], np.full((4, 2, 3), (10, 20, 30), np.uint8))
        assert np.array_equal(out[:, 2:], np.full((4, 2, 3), (50, 60, 70), np.uint8))

    def test_mean_color_matches_block_means(self):
        # The overlay's own bincount means against the message-passing
        # block means, on label maps with sparse, large or few ids.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            h, w = (int(v) for v in rng.integers(2, 20, 2))
            img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            ids = rng.choice([1, 3, h * w, 2**40], p=[0.1, 0.3, 0.3, 0.3])
            labels = rng.integers(0, ids, (h, w), dtype=np.int64)
            part = relabel_contiguous(labels)
            means = block_means(img.transpose(2, 0, 1).astype(np.float64), part)
            want = np.rint(means.T[part.labels]).astype(np.uint8)
            assert np.array_equal(render_overlay(img, labels, "mean-color"), want), seed

    def test_boundaries_painted_red(self):
        img = np.full((4, 4, 3), 200, np.uint8)
        labels = (np.arange(4)[None, :] >= 2) * np.ones((4, 1), dtype=np.int64)
        out = render_overlay(img, labels.astype(np.int64), "boundaries")
        assert np.array_equal(out[:, 1], np.full((4, 3), (255, 0, 0), np.uint8))
        assert np.array_equal(out[:, 2], np.full((4, 3), (255, 0, 0), np.uint8))
        assert np.array_equal(out[:, 0], np.full((4, 3), 200, np.uint8))

    def test_unknown_mode_rejected(self):
        img = np.zeros((2, 2, 3), np.uint8)
        with pytest.raises(ValueError, match="mode"):
            render_overlay(img, np.zeros((2, 2), dtype=np.int64), "glow")

    def test_dimension_mismatch_rejected(self):
        img = np.zeros((2, 2, 3), np.uint8)
        with pytest.raises(ValueError):
            render_overlay(img, np.zeros((3, 3), dtype=np.int64), "boundaries")
