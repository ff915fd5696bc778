"""On-disk formats: GMLT dense tensors, run configuration, PGM/CSV export.

GMLT is a tiny binary container for row-major float64 tensors::

    bytes 0..3   magic "GMLT"
    bytes 4..7   format version, u32 little-endian, currently 1
    byte  8      dtype code, u8, 0 = float64
    byte  9      ndim, u8
    then         ndim dimension sizes, u64 little-endian each
    then         the data, little-endian float64, row-major

Values must be finite both when writing and when reading back, and a file
ends where its header says: a shorter or longer file is rejected.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .lbfgs import LbfgsOptions

MAGIC = b"GMLT"
VERSION = 1
DTYPE_F64 = 0


class TensorFormatError(Exception):
    """A malformed tensor file."""


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def write_tensor(path, t) -> None:
    """Write a tensor to ``path`` in GMLT format.

    Refuses non-finite values; data is converted to float64.
    """
    arr = np.ascontiguousarray(t, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not np.isfinite(arr).all():
        raise ValueError("refusing to write non-finite values to %s" % (path,))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<BB", DTYPE_F64, arr.ndim))
        for n in arr.shape:
            fh.write(struct.pack("<Q", n))
        fh.write(arr.astype("<f8", copy=False).tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a GMLT file back into a float64 array (inverse of write_tensor)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise TensorFormatError("%s: not a GMLT file (magic %r)" % (path, raw[:4]))
    if len(raw) < 10:
        raise TensorFormatError("%s: truncated header" % (path,))
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise TensorFormatError("%s: unsupported version %d" % (path, version))
    dtype_code, ndim = struct.unpack_from("<BB", raw, 8)
    if dtype_code != DTYPE_F64:
        raise TensorFormatError("%s: unsupported dtype code %d" % (path, dtype_code))
    if ndim == 0:
        raise TensorFormatError("%s: zero-dimensional tensor" % (path,))
    header_end = 10 + 8 * ndim
    if len(raw) < header_end:
        raise TensorFormatError("%s: truncated dimension list" % (path,))
    dims = struct.unpack_from("<%dQ" % ndim, raw, 10)
    if any(n == 0 for n in dims):
        raise TensorFormatError("%s: zero-sized dimension" % (path,))
    count = math.prod(dims)  # Python ints: an int64 product can wrap to 0
    expected = header_end + 8 * count
    if len(raw) != expected:
        raise TensorFormatError(
            "%s: file has %d bytes, expected %d" % (path, len(raw), expected)
        )
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=header_end)
    arr = data.astype(np.float64).reshape(dims)
    if not np.isfinite(arr).all():
        raise TensorFormatError("%s: non-finite values in tensor data" % (path,))
    return arr


# --- JSON inputs ----------------------------------------------------------
#
# Every JSON input (the run config, a gen pattern, a sequence manifest) is
# read by ``parse_object`` into a dataclass: the keys are its field names,
# the defaults its field defaults, and each value is cast by its field's
# type.  A key that an object's text repeats is rejected too: ``read_json``
# notes it, since a dict keeps only its last value.

LOSS_KINDS = ("l1", "l2", "kl")


def _need(cond, msg):
    if not cond:
        raise ConfigError(msg)


@dataclass(frozen=True)
class InitConfig:
    mode: str = "constant"  # constant | log_uniform
    low: float = 0.5
    high: float = 2.0

    def __post_init__(self):
        _need(self.mode in ("constant", "log_uniform"), "mode must be constant or log_uniform")
        if self.mode == "log_uniform":
            _need(self.low > 0, "low must be > 0 for log_uniform")
            _need(self.high >= self.low, "high must be >= low")


@dataclass(frozen=True)
class RunConfig:
    d: int
    n: int
    epsilon: float
    substeps: int
    sinkhorn_iters: int
    frames: int = 10
    loss: str = "l2"
    lambda_c: float = 0.0
    lambda_s: float = 1.0
    lbfgs: LbfgsOptions = field(default_factory=LbfgsOptions)
    init: InitConfig = field(default_factory=InitConfig)
    seed: int = 0

    def __post_init__(self):
        _need(self.d in (2, 3), "d must be 2 or 3, got %d" % self.d)
        _need(self.n >= 2, "n must be >= 2")
        _need(self.epsilon > 0, "epsilon must be > 0")
        _need(self.substeps >= 1, "substeps must be >= 1")
        _need(self.sinkhorn_iters >= 1, "sinkhorn_iters must be >= 1")
        _need(self.frames >= 2, "frames must be >= 2")
        _need(self.loss in LOSS_KINDS, "loss must be one of %s" % (list(LOSS_KINDS),))
        _need(self.lambda_c >= 0 and self.lambda_s >= 0, "lambda_c and lambda_s must be >= 0")
        _need(self.seed >= 0, "seed must be >= 0")


def _path(key, name):
    return "%s.%s" % (key, name) if key else name


class _JsonObject(dict):
    """A JSON object as ``read_json`` gives it: a dict that lists the keys
    the text repeats, if any, which the dict keeps only the last value of."""

    def __init__(self, pairs):
        super().__init__(pairs)
        if len(self) < len(pairs):
            names = [k for k, _ in pairs]
            self.repeated = sorted({k for k in names if names.count(k) > 1})


def _scalar(kind, value, key):
    """Cast one JSON value to ``kind`` (int, float or str); ``key`` names it in errors.

    A string field takes only a string and a number field only a finite number
    (no boolean, NaN, Infinity or 1e400, which JSON reads as inf), and an int
    field no fractional number, so that nothing is silently converted.
    """
    if kind is str:
        ok = isinstance(value, str)
    elif isinstance(value, float):
        ok = math.isfinite(value) and (kind is float or value.is_integer())
    else:
        ok = isinstance(value, int) and not isinstance(value, bool)
    what = {str: "a string", int: "an integer", float: "a finite number"}[kind]
    _need(ok, "%s must be %s, got %s" % (key, what, json.dumps(value)))
    try:
        return kind(value)
    except OverflowError as exc:
        raise ConfigError("%s: %s" % (key, exc)) from exc


def _cast(hint, value, key):
    """Read one JSON value as ``hint``: int, float, str, a dataclass (an object),
    ``tuple[T, ...]`` (a list), or a union of one of these with a tuple, which
    a JSON list selects (a None member is only ever a default)."""
    if get_origin(hint) in (Union, UnionType):
        alts = [a for a in get_args(hint) if a is not type(None)]
        hint = next((a for a in alts if (get_origin(a) is tuple) == isinstance(value, list)),
                    alts[0])
    if is_dataclass(hint):
        return parse_object(hint, value, key)
    if get_origin(hint) is tuple:
        _need(isinstance(value, list), "%s must be a list, got %s" % (key, json.dumps(value)))
        return tuple(_cast(get_args(hint)[0], v, "%s[%d]" % (key, j))
                     for j, v in enumerate(value))
    return _scalar(hint, value, key)


def parse_object(cls, doc, key=""):
    """Read the JSON object ``doc`` into the dataclass ``cls``; ``key`` is its path.

    Keys are field names and absent fields take their defaults.  An unknown
    key, a key repeated in the text ``read_json`` read, a missing required
    field, a value of the wrong type and a value that ``cls`` rejects are
    each a ConfigError that names its key path.
    """
    hints = get_type_hints(cls)
    _need(isinstance(doc, dict),
          "%s must be an object, got %s" % (key or "the root", json.dumps(doc)))
    repeated = getattr(doc, "repeated", ())
    _need(not repeated, "repeated keys: %s" % ", ".join(_path(key, k) for k in repeated))
    unknown = sorted(doc.keys() - hints.keys())
    _need(not unknown, "unknown keys: %s" % ", ".join(_path(key, k) for k in unknown))
    values = {name: _cast(hints[name], value, _path(key, name)) for name, value in doc.items()}
    for f in fields(cls):
        _need(f.name in values or f.default is not MISSING or f.default_factory is not MISSING,
              "missing required key %s" % _path(key, f.name))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (key, exc) if key else str(exc)) from exc


def read_json(path):
    """The JSON document in ``path``; malformed JSON or text that is not UTF-8
    is a ConfigError naming the file.  Its objects remember repeated keys,
    which ``parse_object`` rejects."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_JsonObject)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError("%s: %s" % (path, exc)) from exc


def read_config(path) -> RunConfig:
    return parse_object(RunConfig, read_json(path))


# --- exports ------------------------------------------------------------


def export_pgm(t, path) -> None:
    """Write a 2-D tensor as a 16-bit binary PGM, min-max normalized.

    A constant tensor has no range to normalize, so it maps to all zeros.
    A finite range too wide for float64 is normalized on the halved values.
    """
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("PGM export needs a 2-D tensor, got ndim=%d" % arr.ndim)
    lo = arr.min()
    hi = arr.max()
    with np.errstate(over="ignore"):
        if not np.isfinite(hi - lo):
            arr, lo, hi = arr / 2, lo / 2, hi / 2
    if hi > lo:
        scaled = np.round((arr - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(arr)
    pix = scaled.astype(">u2")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (w, h))
        fh.write(pix.tobytes())


def export_csv(t, path) -> None:
    """Write a tensor as CSV, one row per leading index, 17 significant digits."""
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim == 1:
        rows = arr.reshape(-1, 1)
    else:
        rows = arr.reshape(arr.shape[0], -1)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join("%.17g" % x for x in row))
            fh.write("\n")
