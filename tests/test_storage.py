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
