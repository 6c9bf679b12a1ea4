"""Binary file formats for images, masks, and measurement vectors.

Complex stacks are stored as row-major little-endian complex128, that is
interleaved float64 (re, im) pairs, with a JSON sidecar ``<path>.json`` holding
``{"height": .., "width": .., "count": ..}``.  Measurement vectors use the
same scheme with real samples only and the sidecar ``{"L": .., "M2": ..,
"M1": ..}``.  Every size is a positive JSON integer.
"""

from __future__ import annotations

import errno
import json
import math
import os

import numpy as np

from .errors import ConfigError


def _sidecar(path):
    return str(path) + ".json"


def _check_sizes(sidecar, dims):
    """ConfigError unless every size is a positive integer (not a bool)."""
    if not all(type(d) is int and d > 0 for d in dims):
        raise ConfigError(f"header {sidecar} declares sizes {dims}, not positive integers")


def _read_sizes(path, keys, item_bytes):
    """The sizes ``path``'s sidecar names under ``keys``; ConfigError unless the
    sidecar is a JSON object of positive integers and the body holds them."""
    sidecar = _sidecar(path)
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            header = json.load(fh)
        dims = tuple(header[key] for key in keys)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read header {sidecar}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed header {sidecar}") from exc
    _check_sizes(sidecar, dims)
    expected = math.prod(dims) * item_bytes
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    if size != expected:
        raise ConfigError(f"{path}: expected {expected} bytes, found {size}")
    return dims


def outputs(path):
    """The two paths a body-and-sidecar writer writes for ``path``."""
    return str(path), _sidecar(path)


def check_writable(paths):
    """ConfigError naming the first of ``paths`` that ``open_for_write`` would
    fail on, found without creating or changing any file: a directory in its
    place, a missing parent directory, or no write permission."""
    for path in paths:
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOENT
        elif not os.access(path if os.path.lexists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def remove(path):
    """Remove ``path`` and its sidecar where they exist; ConfigError naming
    the one that cannot be removed."""
    for name in outputs(path):
        try:
            os.remove(name)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ConfigError(f"cannot remove {name}: {exc.strerror}") from exc


def open_for_write(path, binary=False):
    """``path`` opened for writing, text untranslated (a CSV keeps its ``\\r\\n``
    rows); ConfigError naming it when it cannot be."""
    try:
        return open(path, "wb") if binary else open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write(path, body, header):
    """Write ``body`` to ``path`` and ``header`` to its sidecar, after checking
    the sizes as the readers do; returns both paths."""
    sidecar = _sidecar(path)
    _check_sizes(sidecar, tuple(header.values()))
    with open_for_write(path, binary=True) as fh:
        fh.write(body)
    with open_for_write(sidecar) as fh:
        json.dump(header, fh)
        fh.write("\n")
    return str(path), sidecar


def write_images(path, array):
    """Write a complex image or mask stack; a 2-D input is a count-1 stack."""
    array = np.asarray(array, dtype="<c16")
    if array.ndim == 2:
        array = array[None, :, :]
    if array.ndim != 3:
        raise ConfigError("expected a (count, height, width) stack or a single image")
    count, height, width = array.shape
    return _write(path, array.tobytes(), {"height": height, "width": width, "count": count})


def read_images(path):
    """Read a complex stack written by write_images; returns (count, h, w)."""
    height, width, count = _read_sizes(path, ("height", "width", "count"), 2 * 8)
    return np.fromfile(path, dtype="<c16").reshape(count, height, width)


def write_data(path, g, dims):
    """Write a real measurement vector with its (L, M2, M1) layout."""
    count, m2, m1 = (int(d) for d in dims)
    g = np.asarray(g, dtype=float)
    if g.shape != (count * m2 * m1,):
        raise ConfigError("data length does not match the declared layout")
    return _write(path, g.astype("<f8").tobytes(order="C"), {"L": count, "M2": m2, "M1": m1})


def read_data(path):
    """Read a measurement vector; returns (g, (L, M2, M1))."""
    dims = _read_sizes(path, ("L", "M2", "M1"), 8)
    return np.fromfile(path, dtype="<f8"), dims
