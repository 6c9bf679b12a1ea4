import json

import numpy as np
import pytest

from liftkit.errors import ConfigError
from liftkit import storage


class TestImageFormat:
    def test_pinned_byte_layout(self, tmp_path):
        path = tmp_path / "img"
        image = np.array([[1.0 + 2.0j, 3.0 - 4.0j]])
        storage.write_images(path, image)
        raw = path.read_bytes()
        expected = np.array([1.0, 2.0, 3.0, -4.0], dtype="<f8").tobytes()
        assert raw == expected
        header = json.loads((tmp_path / "img.json").read_text())
        assert header == {"height": 1, "width": 2, "count": 1}

    def test_roundtrip_stack(self, tmp_path):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        path = tmp_path / "stack"
        storage.write_images(path, stack)
        back = storage.read_images(path)
        assert back.shape == (3, 4, 5)
        assert np.array_equal(back, stack)

    def test_single_image_becomes_count_one(self, tmp_path):
        path = tmp_path / "one"
        storage.write_images(path, np.zeros((2, 2), dtype=complex))
        assert storage.read_images(path).shape == (1, 2, 2)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "bad"
        storage.write_images(path, np.ones((2, 2), dtype=complex))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            storage.read_images(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "hdr"
        storage.write_images(path, np.ones((2, 2), dtype=complex))
        (tmp_path / "hdr.json").write_text('{"height": 2}')
        with pytest.raises(ConfigError):
            storage.read_images(path)


class TestNonFiniteImages:
    """A stack round-trips bit for bit, non-finite parts included, in the
    interleaved float64 (re, im) layout."""

    STACK = np.array([
        [complex(1.0, np.inf), complex(-2.0, -np.inf)],
        [complex(3.0, np.nan), complex(np.inf, 0.5)],
    ])

    def test_non_finite_parts_round_trip(self, tmp_path):
        path = tmp_path / "img"
        storage.write_images(path, self.STACK)
        back = storage.read_images(path)[0]
        assert back.real.tolist() == [[1.0, -2.0], [3.0, np.inf]]
        assert np.array_equal(back.imag, self.STACK.imag, equal_nan=True)

    def test_bytes_are_interleaved_float64(self, tmp_path):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        path = tmp_path / "stack"
        storage.write_images(path, stack)
        interleaved = np.stack([stack.real, stack.imag], axis=-1).astype("<f8")
        assert path.read_bytes() == interleaved.tobytes()


class TestBadFiles:
    """Unreadable headers and bodies raise ConfigError naming the file."""

    @pytest.mark.parametrize("text", ["not json {", '["height", 2, "width", 2]'])
    def test_image_header_not_an_object(self, tmp_path, text):
        path = tmp_path / "img"
        storage.write_images(path, np.ones((2, 2), dtype=complex))
        (tmp_path / "img.json").write_text(text)
        with pytest.raises(ConfigError, match="img.json"):
            storage.read_images(path)

    @pytest.mark.parametrize("text", ["not json {", "[1, 2, 2]"])
    def test_data_header_not_an_object(self, tmp_path, text):
        path = tmp_path / "vec"
        storage.write_data(path, np.zeros(4), (1, 2, 2))
        (tmp_path / "vec.json").write_text(text)
        with pytest.raises(ConfigError, match="vec.json"):
            storage.read_data(path)

    def test_missing_sidecar(self, tmp_path):
        storage.write_images(tmp_path / "img", np.ones((2, 2), dtype=complex))
        storage.write_data(tmp_path / "vec", np.zeros(4), (1, 2, 2))
        (tmp_path / "img.json").unlink()
        (tmp_path / "vec.json").unlink()
        with pytest.raises(ConfigError, match="img.json"):
            storage.read_images(tmp_path / "img")
        with pytest.raises(ConfigError, match="vec.json"):
            storage.read_data(tmp_path / "vec")

    def test_missing_body(self, tmp_path):
        storage.write_images(tmp_path / "img", np.ones((2, 2), dtype=complex))
        (tmp_path / "img").unlink()
        with pytest.raises(ConfigError, match="img"):
            storage.read_images(tmp_path / "img")


    # zero, and JSON values that int() would read as 8, 1 and 8
    SIZES = {"": 0, "-float": 8.7, "-bool": True, "-string": "8"}
    CASES = {key + suffix: (key, value) for suffix, value in SIZES.items()
             for key in ("height", "width", "count", "L", "M2", "M1")}

    @pytest.mark.parametrize(("key", "value"), CASES.values(), ids=CASES.keys())
    def test_nonpositive_header_size(self, tmp_path, key, value):
        """A size that is no positive JSON integer is rejected, even beside
        the body that its integer part implies."""
        if key in ("L", "M2", "M1"):
            header, read, item_bytes = {"L": 1, "M2": 1, "M1": 1}, storage.read_data, 8
        else:
            header, read, item_bytes = {"height": 1, "width": 1, "count": 1}, storage.read_images, 16
        header[key] = value
        (tmp_path / "f").write_bytes(bytes(int(value) * item_bytes))
        (tmp_path / "f.json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match="f.json"):
            read(tmp_path / "f")


class TestDataFormat:
    def test_pinned_byte_layout(self, tmp_path):
        path = tmp_path / "vec"
        storage.write_data(path, np.array([0.5, -1.5]), (1, 1, 2))
        assert path.read_bytes() == np.array([0.5, -1.5], dtype="<f8").tobytes()
        header = json.loads((tmp_path / "vec.json").read_text())
        assert header == {"L": 1, "M2": 1, "M1": 2}

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = rng.uniform(size=2 * 3 * 4)
        path = tmp_path / "g"
        storage.write_data(path, g, (2, 3, 4))
        back, dims = storage.read_data(path)
        assert dims == (2, 3, 4)
        assert np.array_equal(back, g)

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            storage.write_data(tmp_path / "x", np.zeros(5), (1, 2, 2))


class TestWriters:
    def test_writers_return_their_paths(self, tmp_path):
        image_paths = storage.write_images(tmp_path / "img", np.ones((2, 2)))
        data_paths = storage.write_data(tmp_path / "vec", np.zeros(4), (1, 2, 2))
        assert image_paths == (str(tmp_path / "img"), str(tmp_path / "img.json"))
        assert data_paths == (str(tmp_path / "vec"), str(tmp_path / "vec.json"))

    @pytest.mark.parametrize("write", [
        lambda path: storage.write_images(path, np.zeros((0, 8, 8))),
        lambda path: storage.write_data(path, np.zeros(0), (0, 4, 4)),
    ], ids=["images", "data"])
    def test_empty_layout_rejected_before_writing(self, tmp_path, write):
        """The writers apply the readers' size rule and leave no file."""
        with pytest.raises(ConfigError):
            write(tmp_path / "f")
        assert list(tmp_path.iterdir()) == []

    def test_text_mode_keeps_crlf(self, tmp_path):
        with storage.open_for_write(tmp_path / "t.csv") as fh:
            fh.write("a,b\r\n")
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"
