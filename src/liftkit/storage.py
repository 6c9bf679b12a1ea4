"""Binary file formats for images, masks, and measurement vectors.

Complex stacks are stored as row-major float64 little-endian interleaved
(re, im) pairs with a JSON sidecar ``<path>.json`` holding
``{"height": .., "width": .., "count": ..}``.  Measurement vectors use the
same scheme with real samples only and the sidecar ``{"L": .., "M2": ..,
"M1": ..}``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError


def _sidecar(path):
    return str(path) + ".json"


def _read_header(path, what):
    """The parsed JSON sidecar of ``path``; ConfigError if missing or not JSON."""
    sidecar = _sidecar(path)
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} header {sidecar}: {exc}") from exc


def _check_size(path, expected):
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    if size != expected:
        raise ConfigError(f"{path}: expected {expected} bytes, found {size}")


def write_images(path, array):
    """Write a complex image or mask stack; a 2-D input is a count-1 stack."""
    array = np.asarray(array, dtype=complex)
    if array.ndim == 2:
        array = array[None, :, :]
    if array.ndim != 3:
        raise ConfigError("expected a (count, height, width) stack or a single image")
    count, height, width = array.shape
    interleaved = np.empty((count, height, width, 2), dtype="<f8")
    interleaved[..., 0] = array.real
    interleaved[..., 1] = array.imag
    with open(path, "wb") as fh:
        fh.write(interleaved.tobytes(order="C"))
    with open(_sidecar(path), "w", encoding="utf-8") as fh:
        json.dump({"height": height, "width": width, "count": count}, fh)
        fh.write("\n")


def read_images(path):
    """Read a complex stack written by write_images; returns (count, h, w)."""
    header = _read_header(path, "image")
    try:
        height = int(header["height"])
        width = int(header["width"])
        count = int(header["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed image header {_sidecar(path)}") from exc
    _check_size(path, count * height * width * 2 * 8)
    raw = np.fromfile(path, dtype="<f8").reshape(count, height, width, 2)
    return raw[..., 0] + 1j * raw[..., 1]


def write_data(path, g, dims):
    """Write a real measurement vector with its (L, M2, M1) layout."""
    count, m2, m1 = (int(d) for d in dims)
    g = np.asarray(g, dtype=float)
    if g.shape != (count * m2 * m1,):
        raise ConfigError("data length does not match the declared layout")
    with open(path, "wb") as fh:
        fh.write(g.astype("<f8").tobytes(order="C"))
    with open(_sidecar(path), "w", encoding="utf-8") as fh:
        json.dump({"L": count, "M2": m2, "M1": m1}, fh)
        fh.write("\n")


def read_data(path):
    """Read a measurement vector; returns (g, (L, M2, M1))."""
    header = _read_header(path, "data")
    try:
        dims = (int(header["L"]), int(header["M2"]), int(header["M1"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed data header {_sidecar(path)}") from exc
    _check_size(path, dims[0] * dims[1] * dims[2] * 8)
    return np.fromfile(path, dtype="<f8"), dims
