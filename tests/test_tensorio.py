import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otgrid import tensorio
from otgrid.tensorio import (
    ConfigError,
    RunConfig,
    TensorFormatError,
    export_csv,
    export_pgm,
    parse_object,
    read_config,
    read_tensor,
    write_tensor,
)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=6),
        elements=st.floats(-1e12, 1e12, allow_nan=False),
    )
)
def test_roundtrip_preserves_shape_and_bits(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("t") / "x.gmlt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == arr.shape
    assert back.dtype == np.float64
    # bit-exact: the format stores raw little-endian float64
    np.testing.assert_array_equal(back, arr)


def test_zero_dim_and_fortran_order(tmp_path):
    a = np.array(3.5)
    write_tensor(tmp_path / "s.gmlt", a)
    assert read_tensor(tmp_path / "s.gmlt") == 3.5
    f = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    write_tensor(tmp_path / "f.gmlt", f)
    np.testing.assert_array_equal(read_tensor(tmp_path / "f.gmlt"), f)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.gmlt"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(TensorFormatError):
        read_tensor(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "x.gmlt"
    write_tensor(p, np.ones((4, 4)))
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(TensorFormatError):
        read_tensor(p)


@pytest.mark.parametrize("extra", [64, 1])
def test_trailing_bytes_rejected(tmp_path, extra):
    p = tmp_path / "x.gmlt"
    write_tensor(p, np.ones((2, 3)))
    p.write_bytes(p.read_bytes() + b"\x00" * extra)
    with pytest.raises(TensorFormatError, match="expected"):
        read_tensor(p)


def test_truncated_header_rejected(tmp_path):
    p = tmp_path / "x.gmlt"
    write_tensor(p, np.ones(3))
    blob = p.read_bytes()
    p.write_bytes(blob[:6])
    with pytest.raises(TensorFormatError):
        read_tensor(p)


@pytest.mark.parametrize("dims", [(2**32, 2**32), (2**63, 2), (3, 2**62)])
def test_dims_whose_product_wraps_int64_rejected(tmp_path, dims):
    """The element count is the exact product of the dims: an int64 product
    wraps to 0 or a small count, which would read as a short tensor."""
    p = tmp_path / "x.gmlt"
    p.write_bytes(b"GMLT" + struct.pack("<IBB", 1, 0, len(dims))
                  + struct.pack("<%dQ" % len(dims), *dims) + struct.pack("<d", 3.5))
    with pytest.raises(TensorFormatError, match="expected"):
        read_tensor(p)


def test_zero_dimensional_tensor_rejected(tmp_path):
    p = tmp_path / "x.gmlt"
    # a well-formed header with ndim 0, followed by one float64
    p.write_bytes(b"GMLT" + struct.pack("<IBB", 1, 0, 0) + struct.pack("<d", 3.5))
    with pytest.raises(TensorFormatError):
        read_tensor(p)


def test_unsupported_version_rejected(tmp_path):
    p = tmp_path / "x.gmlt"
    write_tensor(p, np.ones(2))
    blob = bytearray(p.read_bytes())
    blob[4] = 99  # version byte
    p.write_bytes(bytes(blob))
    with pytest.raises(TensorFormatError):
        read_tensor(p)


# --- config parsing ------------------------------------------------------


def minimal_doc():
    return {"d": 2, "n": 8, "epsilon": 0.012, "substeps": 5, "sinkhorn_iters": 10}


def test_minimal_config_defaults():
    cfg = parse_object(RunConfig, minimal_doc())
    assert cfg.frames == 10
    assert cfg.loss == "l2"
    assert cfg.lambda_c == 0.0
    assert cfg.lambda_s == 1.0
    assert cfg.seed == 0
    assert cfg.lbfgs.max_iters == 500
    assert cfg.lbfgs.memory == 10
    assert cfg.lbfgs.grad_tol == 1e-7
    assert cfg.lbfgs.line_search.armijo == 1e-4
    assert cfg.lbfgs.line_search.shrink == 0.5
    assert cfg.lbfgs.line_search.max_trials == 40
    assert cfg.init.mode == "constant"


def test_unknown_key_rejected():
    doc = minimal_doc()
    doc["episolon"] = 0.5
    with pytest.raises(ConfigError):
        parse_object(RunConfig, doc)


def test_unknown_nested_key_rejected():
    doc = minimal_doc()
    doc["lbfgs"] = {"memroy": 5}
    with pytest.raises(ConfigError):
        parse_object(RunConfig, doc)


@pytest.mark.parametrize("key", ["d", "n", "epsilon", "substeps", "sinkhorn_iters"])
def test_missing_required_key_rejected(key):
    doc = minimal_doc()
    del doc[key]
    with pytest.raises(ConfigError):
        parse_object(RunConfig, doc)


@pytest.mark.parametrize(
    "patch",
    [
        {"d": 0},
        {"n": 1},
        {"epsilon": 0.0},
        {"epsilon": -1.0},
        {"substeps": 0},
        {"sinkhorn_iters": 0},
        {"frames": 1},
        {"loss": "huber"},
        {"lambda_s": -0.1},
        {"lbfgs": {"memory": 0}},
        {"lbfgs": {"max_iters": 0}},
        {"lbfgs": {"line_search": {"shrink": 1.0}}},
        {"lbfgs": {"grad_tol": 0}},
        {"lbfgs": {"line_search": {"armijo": 1.0}}},
        {"lbfgs": {"line_search": {"max_trials": 0}}},
        {"lbfgs": {"line_search": {"init_step": 0}}},
        {"d": [2]},
        {"frames": {}},
        {"lbfgs": {"max_iters": None}},
        {"n": 6.9},
        {"sinkhorn_iters": 2.5},
        {"n": float("inf")},
        {"substeps": True},
        {"lbfgs": {"line_search": {"max_trials": False}}},
        {"epsilon": True},
        {"epsilon": "0.1"},
        {"lbfgs": {"line_search": {"shrink": "0.5"}}},
        {"init": {"mode": "foo"}},
        {"init": {"mode": "log_uniform", "low": -1.0}},
        {"init": {"mode": "log_uniform", "low": 2.0, "high": 1.0}},
        # a float field takes only a finite number
        {"lbfgs": {"grad_tol": float("inf")}},
        {"init": {"mode": "log_uniform", "high": float("inf")}},
        {"epsilon": float("inf")},
        {"lambda_s": float("inf")},
    ],
)
def test_invalid_values_rejected(patch):
    doc = minimal_doc()
    doc.update(patch)
    with pytest.raises(ConfigError):
        parse_object(RunConfig, doc)


def test_line_search_error_names_its_block():
    doc = minimal_doc()
    doc["lbfgs"] = {"line_search": {"shrink": 1.0}}
    with pytest.raises(ConfigError, match=r"^lbfgs\.line_search: shrink must be in \(0, 1\)$"):
        parse_object(RunConfig, doc)


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_non_finite_json_number_names_its_key(tmp_path, literal):
    """Python's json reads NaN and Infinity, and 1e400 as inf; none is a number here."""
    text = json.dumps(minimal_doc())[:-1] + ', "lbfgs": {"grad_tol": %s}}' % literal
    (tmp_path / "c.json").write_text(text)
    with pytest.raises(ConfigError, match=r"lbfgs\.grad_tol must be a finite number"):
        read_config(tmp_path / "c.json")


@pytest.mark.parametrize("tail, key", [
    (', "n": 6', "n"),
    (', "lbfgs": {"max_iters": 5, "max_iters": 7}', "lbfgs.max_iters"),
    (', "lbfgs": {"line_search": {"shrink": 0.5, "shrink": 0.4}}', "lbfgs.line_search.shrink"),
    (', "init": {"mode": "log_uniform", "low": 0.5, "low": 0.7}', "init.low"),
], ids=["root", "nested", "grouped", "init"])
def test_repeated_json_key_names_its_path(tmp_path, tail, key):
    """A dict keeps the last of a repeated key's values; the reader refuses it."""
    (tmp_path / "c.json").write_text(json.dumps(minimal_doc())[:-1] + tail + "}")
    with pytest.raises(ConfigError, match=r"repeated keys: %s$" % re.escape(key)):
        read_config(tmp_path / "c.json")


def test_whole_float_accepted_for_int_field():
    doc = minimal_doc()
    doc.update(n=8.0, sinkhorn_iters=3.0)
    cfg = parse_object(RunConfig, doc)
    assert (cfg.n, cfg.sinkhorn_iters) == (8, 3)
    assert type(cfg.n) is int


def test_nested_overrides_applied():
    doc = minimal_doc()
    doc["lbfgs"] = {"max_iters": 33, "line_search": {"max_trials": 7}}
    doc["init"] = {"mode": "log_uniform", "low": 0.1, "high": 10.0}
    doc["loss"] = "kl"
    cfg = parse_object(RunConfig, doc)
    assert cfg.lbfgs.max_iters == 33
    assert cfg.lbfgs.line_search.max_trials == 7
    assert cfg.lbfgs.line_search.shrink == 0.5  # untouched default
    assert cfg.init.mode == "log_uniform"
    assert cfg.loss == "kl"


def test_read_config_file_and_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(minimal_doc()))
    cfg = read_config(p)
    assert cfg.n == 8
    p.write_text("{not json")
    with pytest.raises(ValueError):
        read_config(p)


# --- exports --------------------------------------------------------------


def test_csv_pinned_example(tmp_path):
    p = tmp_path / "x.csv"
    export_csv(np.array([[0.0, 1.0], [2.0, 3.0]]), p)
    assert p.read_text() == "0,1\n2,3\n"


def test_csv_rows_of_a_vector_and_a_3d_tensor(tmp_path):
    p = tmp_path / "x.csv"
    export_csv(np.arange(3.0), p)
    assert p.read_text() == "0\n1\n2\n"
    export_csv(np.arange(8.0).reshape(2, 2, 2), p)
    assert p.read_text() == "0,1,2,3\n4,5,6,7\n"


def test_csv_full_precision(tmp_path):
    """17 significant digits read every value back bit for bit, subnormals,
    extremes and the sign of zero included."""
    p = tmp_path / "x.csv"
    vals = np.array([[1.0 / 3.0, 0.1, 1e-300], [-2.5e300, 5e-324, -0.0]])
    export_csv(vals, p)
    back = np.array([[float(x) for x in line.split(",")] for line in p.read_text().splitlines()])
    assert back.tobytes() == vals.tobytes()


def test_pgm_header_and_range(tmp_path):
    p = tmp_path / "x.pgm"
    export_pgm(np.array([[0.0, 0.5], [0.25, 1.0]]), p)
    blob = p.read_bytes()
    assert blob.startswith(b"P5\n2 2\n65535\n")
    pix = np.frombuffer(blob.split(b"65535\n", 1)[1], dtype=">u2").reshape(2, 2)
    assert pix[0, 0] == 0
    assert pix[1, 1] == 65535
    assert pix[0, 1] == round(0.5 * 65535)


def test_pgm_range_wider_than_float64(tmp_path):
    """A finite tensor whose max - min overflows still spans the full range."""
    p = tmp_path / "w.pgm"
    export_pgm(np.array([[-1e308, 0.0], [1e308, 5.0]]), p)
    pix = np.frombuffer(p.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert pix.tolist() == [0, 32768, 65535, 32768]


def test_pgm_constant_input_all_zero(tmp_path):
    p = tmp_path / "c.pgm"
    export_pgm(np.full((3, 3), 7.0), p)
    pix = np.frombuffer(p.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert (pix == 0).all()


def test_pgm_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        export_pgm(np.ones(5), tmp_path / "x.pgm")
