"""PPM round trips and header robustness."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvformer.imageio import ImageFormatError, read_ppm, write_ppm
from mutations import byte_mutations


class TestRoundTrips:
    def test_ppm(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_header_comments_and_whitespace(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        path = tmp_path / "c.ppm"
        payload = img.tobytes()
        path.write_bytes(b"P6\n# a comment\n 2 # inline sizes\n2\n# another\n255\n" + payload)
        assert np.array_equal(read_ppm(path), img)


class TestGuards:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n2 2\n255\n")
        with pytest.raises(ImageFormatError, match="P6"):
            read_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(ImageFormatError, match="maxval"):
            read_ppm(path)

    @pytest.mark.parametrize(
        "header, match",
        [
            (b"P6 -2 -3 255\n", "positive"),
            (b"P6 x 2 255\n", "non-integer"),
            (b"P6 0 4 255\n", "positive"),
            (b"P6 4 0 255\n", "positive"),
            (b"P6 2 2 2.5\n", "non-integer"),
            (b"P65 2 255\n", "x.ppm: expected whitespace after the P6 magic"),  # not a 5x2 image
        ],
    )
    def test_malformed_header_fields(self, tmp_path, header, match):
        path = tmp_path / "x.ppm"
        path.write_bytes(header + b"\x00" * 18)
        with pytest.raises(ImageFormatError, match=match):
            read_ppm(path)

    @pytest.mark.parametrize("header", [b"P6 2 2", b"P6\n", b"P6 2 2 # no maxval\n"])
    def test_header_ending_early_names_the_file(self, tmp_path, header):
        path = tmp_path / "x.ppm"
        path.write_bytes(header)
        with pytest.raises(ImageFormatError, match="x.ppm: unexpected end of header"):
            read_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(ImageFormatError, match="payload"):
            read_ppm(path)

    def test_writer_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ImageFormatError, match="h, w, 3"):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))


VALID_PPM = b"P6\n# a comment\n4 3\n255\n" + bytes(range(36))


class TestFuzz:
    def test_valid_file_reads(self, tmp_path):
        path = tmp_path / "v.ppm"
        path.write_bytes(VALID_PPM)
        assert read_ppm(path).shape == (3, 4, 3)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_raises_only_named_errors(self, tmp_path, data):
        path = tmp_path / "m.ppm"
        path.write_bytes(data.draw(byte_mutations(VALID_PPM)))
        try:
            read_ppm(path)
        except ImageFormatError as exc:
            assert str(exc).startswith(f"{path}: "), exc
