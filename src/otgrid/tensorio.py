"""On-disk formats: GMLT dense tensors, run configuration, PGM/CSV export.

GMLT is a tiny binary container for row-major float64 tensors::

    bytes 0..3   magic "GMLT"
    bytes 4..7   format version, u32 little-endian, currently 1
    byte  8      dtype code, u8, 0 = float64
    byte  9      ndim, u8
    then         ndim dimension sizes, u64 little-endian each
    then         the data, little-endian float64, row-major

Values must be finite both when writing and when reading back.
"""

from __future__ import annotations

import json
import struct
from dataclasses import MISSING, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .lbfgs import LbfgsOptions

MAGIC = b"GMLT"
VERSION = 1
DTYPE_F64 = 0


class TensorFormatError(Exception):
    """Base class for malformed tensor files."""


class BadMagicError(TensorFormatError):
    pass


class UnsupportedVersionError(TensorFormatError):
    pass


class UnsupportedDtypeError(TensorFormatError):
    pass


class TruncatedDataError(TensorFormatError):
    pass


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
        raise BadMagicError("%s: not a GMLT file (magic %r)" % (path, raw[:4]))
    if len(raw) < 10:
        raise TruncatedDataError("%s: truncated header" % (path,))
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise UnsupportedVersionError("%s: unsupported version %d" % (path, version))
    dtype_code, ndim = struct.unpack_from("<BB", raw, 8)
    if dtype_code != DTYPE_F64:
        raise UnsupportedDtypeError("%s: unsupported dtype code %d" % (path, dtype_code))
    if ndim == 0:
        raise TensorFormatError("%s: zero-dimensional tensor" % (path,))
    header_end = 10 + 8 * ndim
    if len(raw) < header_end:
        raise TruncatedDataError("%s: truncated dimension list" % (path,))
    dims = struct.unpack_from("<%dQ" % ndim, raw, 10)
    if any(n == 0 for n in dims):
        raise TensorFormatError("%s: zero-sized dimension" % (path,))
    count = int(np.prod(dims, dtype=np.int64))
    expected = header_end + 8 * count
    if len(raw) < expected:
        raise TruncatedDataError(
            "%s: file has %d bytes, expected %d" % (path, len(raw), expected)
        )
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=header_end)
    arr = data.astype(np.float64).reshape(dims)
    if not np.isfinite(arr).all():
        raise TensorFormatError("%s: non-finite values in tensor data" % (path,))
    return arr


# --- run configuration -------------------------------------------------
#
# Every config key is the name of a field below or of an LbfgsOptions field,
# and every default is that field's default.  The L-BFGS settings sit under
# "lbfgs", the line-search ones one level further, under "lbfgs.line_search".

LOSS_KINDS = ("l1", "l2", "kl")
_LINE_SEARCH = ("armijo", "shrink", "max_trials", "init_step")


@dataclass(frozen=True)
class InitConfig:
    mode: str = "constant"  # constant | log_uniform
    low: float = 0.5
    high: float = 2.0


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


def _need(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _names(cls) -> set:
    return {f.name for f in fields(cls)}


def _object(doc, name, keys) -> dict:
    """Check that ``doc`` is a JSON object whose keys all lie in ``keys``."""
    _need(isinstance(doc, dict), "%s must be an object" % name)
    unknown = set(doc) - set(keys)
    _need(not unknown, "unknown %s keys: %s" % (name, ", ".join(sorted(unknown))))
    return doc


def scalar_value(kind, value, key):
    """Cast one JSON value to ``kind`` (int, float or str); ``key`` names it in errors.

    A number field takes no JSON boolean, and an int field no fractional
    number, so that neither is silently converted.
    """
    if (not isinstance(value, (int, float, str))
            or (kind is not str and isinstance(value, bool))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ConfigError("%s must be of type %s, got %s"
                          % (key, kind.__name__, json.dumps(value)))
    try:
        return kind(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError("%s: %s" % (key, exc)) from exc


def _values(cls, doc, prefix="") -> dict:
    """The entries of ``doc`` that set scalar fields of ``cls``, cast to their types."""
    hints = get_type_hints(cls)
    return {
        key: scalar_value(hints[key], value, prefix + key)
        for key, value in doc.items()
        if hints.get(key) in (int, float, str)
    }


def parse_config(doc: dict) -> RunConfig:
    """Validate a JSON-shaped dict and fill in defaults."""
    _object(doc, "config", _names(RunConfig))
    for f in fields(RunConfig):
        if f.default is MISSING and f.default_factory is MISSING:
            _need(f.name in doc, "missing required config key '%s'" % f.name)
    lb = _object(doc.get("lbfgs", {}), "lbfgs",
                 _names(LbfgsOptions) - set(_LINE_SEARCH) | {"line_search"})
    ls = _object(lb.get("line_search", {}), "line_search", _LINE_SEARCH)
    init_doc = _object(doc.get("init", {}), "init", _names(InitConfig))

    values = {**_values(LbfgsOptions, lb, "lbfgs."),
              **_values(LbfgsOptions, ls, "lbfgs.line_search.")}
    try:
        lbfgs = LbfgsOptions(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _need(lbfgs.memory >= 1, "lbfgs memory must be >= 1")
    init = InitConfig(**_values(InitConfig, init_doc, "init."))
    cfg = RunConfig(**_values(RunConfig, doc), lbfgs=lbfgs, init=init)

    _need(cfg.d in (2, 3), "d must be 2 or 3, got %d" % cfg.d)
    _need(cfg.n >= 2, "n must be >= 2")
    _need(cfg.epsilon > 0, "epsilon must be > 0")
    _need(cfg.substeps >= 1, "substeps must be >= 1")
    _need(cfg.sinkhorn_iters >= 1, "sinkhorn_iters must be >= 1")
    _need(cfg.frames >= 2, "frames must be >= 2")
    _need(cfg.loss in LOSS_KINDS, "loss must be one of %s" % (list(LOSS_KINDS),))
    _need(cfg.lambda_c >= 0 and cfg.lambda_s >= 0, "lambda_c and lambda_s must be >= 0")
    _need(cfg.seed >= 0, "seed must be >= 0")
    _need(init.mode in ("constant", "log_uniform"), "init.mode must be constant or log_uniform")
    if init.mode == "log_uniform":
        _need(init.low > 0, "init.low must be > 0 for log_uniform")
        _need(init.high >= init.low, "init.high must be >= init.low")
    return cfg


def read_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("%s: %s" % (path, exc)) from exc
    return parse_config(doc)


# --- exports ------------------------------------------------------------


def export_pgm(t, path) -> None:
    """Write a 2-D tensor as a 16-bit binary PGM, min-max normalized.

    A constant tensor has no range to normalize, so it maps to all zeros.
    """
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("PGM export needs a 2-D tensor, got ndim=%d" % arr.ndim)
    lo = arr.min()
    hi = arr.max()
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
