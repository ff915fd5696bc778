import json
import re
import warnings

import numpy as np
import pytest

from otgrid import cli
from otgrid.color import read_ppm, write_ppm
from otgrid.grids import GridSpec, constant_weights, load_weights, save_weights
from otgrid.lbfgs import LbfgsOptions
from otgrid.objective import load_sequence
from otgrid.tensorio import ConfigError, read_tensor, write_tensor


def write_config(path, **overrides):
    doc = {"d": 2, "n": 6, "epsilon": 1.2e-2, "substeps": 3, "sinkhorn_iters": 6,
           "frames": 4, "lambda_s": 0.1,
           "lbfgs": {"max_iters": 3}}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def write_pattern(path, **overrides):
    doc = {"base": 1.0,
           "regions": [{"factor": 0.2, "shape": "box", "lo": [2, 2], "hi": [3, 3]}]}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def workspace(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    pat = write_pattern(tmp_path / "pattern.json")
    return tmp_path, cfg, pat


def run(args):
    return cli.main([str(a) for a in args])


# --- full pipeline ------------------------------------------------------------


def test_gen_learn_interp_export_info(workspace, capsys):
    root, cfg, pat = workspace
    gen_dir = root / "truth"
    assert run(["gen", "--config", cfg, "--pattern", pat, "--out", gen_dir]) == 0
    assert (gen_dir / "manifest.json").exists()
    assert (gen_dir / "weights_axis0.gmlt").exists()
    out = capsys.readouterr().out
    assert "gen: wrote 4 frames" in out

    learn_dir = root / "learned"
    log = root / "run.csv"
    assert run(["learn", "--config", cfg, "--sequence", gen_dir,
                "--out", learn_dir, "--log", log]) == 0
    assert (learn_dir / "weights_axis1.gmlt").exists()
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,data_fit,reg_constant,reg_smooth,grad_inf,elapsed"
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("# status=")
    # the logged objective column is monotone over accepted iterations
    vals = [float(ln.split(",")[1]) for ln in lines[1:-1]]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    interp_dir = root / "interp"
    assert run(["interp", "--weights", learn_dir,
                "--from", gen_dir / "frame_000.gmlt",
                "--to", gen_dir / "frame_003.gmlt",
                "--steps", 3, "--config", cfg, "--out", interp_dir]) == 0
    frames = sorted(p.name for p in interp_dir.glob("frame_*.gmlt"))
    assert frames == ["frame_000.gmlt", "frame_001.gmlt", "frame_002.gmlt"]
    mid = read_tensor(interp_dir / "frame_001.gmlt")
    assert mid.shape == (6, 6)
    assert mid.sum() == pytest.approx(1.0, abs=1e-9)

    pgm = root / "mid.pgm"
    assert run(["export", "--input", interp_dir / "frame_001.gmlt",
                "--format", "pgm", "--out", pgm]) == 0
    assert pgm.read_bytes().startswith(b"P5\n6 6\n65535\n")
    csv = root / "mid.csv"
    assert run(["export", "--input", interp_dir / "frame_001.gmlt",
                "--format", "csv", "--out", csv]) == 0
    rows = csv.read_text().strip().splitlines()
    assert len(rows) == 6 and len(rows[0].split(",")) == 6

    capsys.readouterr()
    assert run(["info", "--input", interp_dir / "frame_001.gmlt"]) == 0
    out = capsys.readouterr().out
    assert "dims: 6 x 6" in out
    assert "sum:" in out and "min:" in out and "max:" in out


def test_learn_log_does_not_change_the_run(workspace, capsys):
    """learn writes the same weights and stdout with and without --log, and the
    log holds row 0, one row per reported iteration and the reported status."""
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    log = root / "run.csv"
    outs = []
    for name, extra in (("plain", []), ("logged", ["--log", log])):
        capsys.readouterr()
        assert run(["learn", "--config", cfg, "--sequence", root / "truth",
                    "--out", root / name] + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    for name in ("weights_axis0.gmlt", "weights_axis1.gmlt"):
        assert (root / "plain" / name).read_bytes() == (root / "logged" / name).read_bytes()

    status, iters, value = re.fullmatch(
        r"learn: (\w+) after (\d+) iterations, objective (\S+)\n", outs[0]).groups()
    lines = log.read_text().splitlines()
    assert lines[0] == "iteration,objective,data_fit,reg_constant,reg_smooth,grad_inf,elapsed"
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert [int(r[0]) for r in rows] == list(range(int(iters) + 1))
    assert "%.12g" % float(rows[-1][1]) == value
    assert lines[-1] == "# status=%s" % status


def test_gen_is_deterministic(workspace):
    root, cfg, pat = workspace
    assert run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "a"]) == 0
    assert run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "b"]) == 0
    for name in ("weights_axis0.gmlt", "weights_axis1.gmlt", "frame_000.gmlt",
                 "frame_003.gmlt", "manifest.json"):
        assert (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes()


def test_learn_is_deterministic_and_thread_invariant(workspace):
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    for out, threads in (("l1", 1), ("l2", 1), ("l4", 4)):
        assert run(["learn", "--config", cfg, "--sequence", root / "truth",
                    "--out", root / out, "--threads", threads]) == 0
    for name in ("weights_axis0.gmlt", "weights_axis1.gmlt"):
        one = (root / "l1" / name).read_bytes()
        assert one == (root / "l2" / name).read_bytes()
        assert one == (root / "l4" / name).read_bytes()


def test_learn_random_init_seeded(workspace):
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    cfg2 = write_config(root / "config2.json",
                        init={"mode": "log_uniform", "low": 0.5, "high": 2.0},
                        seed=7)
    assert run(["learn", "--config", cfg2, "--sequence", root / "truth",
                "--out", root / "r1"]) == 0
    assert run(["learn", "--config", cfg2, "--sequence", root / "truth",
                "--out", root / "r2"]) == 0
    a = (root / "r1" / "weights_axis0.gmlt").read_bytes()
    assert a == (root / "r2" / "weights_axis0.gmlt").read_bytes()


def test_multi_sequence_learn(workspace):
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "t1"])
    pat2 = write_pattern(root / "p2.json",
                         regions=[{"factor": 3.0, "shape": "box",
                                   "lo": [0, 0], "hi": [1, 5]}])
    run(["gen", "--config", cfg, "--pattern", pat2, "--out", root / "t2"])
    assert run(["learn", "--config", cfg, "--sequence", root / "t1",
                "--sequence", root / "t2", "--out", root / "joint"]) == 0
    w = read_tensor(root / "joint" / "weights_axis0.gmlt")
    assert np.isfinite(w).all() and (w > 0).all()


# --- transfer ------------------------------------------------------------------


def test_transfer_pipeline(tmp_path, capsys):
    n = 4
    cfg = write_config(tmp_path / "c3.json", d=3, n=n, substeps=2,
                       sinkhorn_iters=8, frames=2)
    spec = GridSpec((n, n, n))
    save_weights(tmp_path / "w", spec, constant_weights(spec))

    rng = np.random.default_rng(0)
    src = rng.integers(0, 120, (8, 9, 3), dtype=np.uint8)  # darkish image
    write_ppm(tmp_path / "src.ppm", src)
    target = np.zeros((n, n, n))
    target[3, 3, 3] = 1.0  # all target mass on bright bins
    write_tensor(tmp_path / "target.gmlt", target)

    assert run(["transfer", "--weights", tmp_path / "w", "--config", cfg,
                "--source-image", tmp_path / "src.ppm",
                "--target-hist", tmp_path / "target.gmlt",
                "--out", tmp_path / "out.ppm"]) == 0
    out = read_ppm(tmp_path / "out.ppm")
    assert out.shape == src.shape
    # pushing mass toward the bright corner must brighten the image
    assert out.astype(float).mean() > src.astype(float).mean()

    assert run(["transfer", "--weights", tmp_path / "w", "--config", cfg,
                "--source-image", tmp_path / "src.ppm",
                "--target-hist", tmp_path / "target.gmlt",
                "--out", tmp_path / "out_smooth.ppm", "--bilateral"]) == 0
    assert read_ppm(tmp_path / "out_smooth.ppm").shape == src.shape


def test_transfer_rejects_2d_config(tmp_path):
    cfg = write_config(tmp_path / "c2.json")  # d=2
    assert run(["transfer", "--weights", tmp_path, "--config", cfg,
                "--source-image", tmp_path / "x.ppm",
                "--target-hist", tmp_path / "t.gmlt",
                "--out", tmp_path / "o.ppm"]) == 2


# --- error paths ----------------------------------------------------------------


def test_missing_config_is_io_error(tmp_path):
    assert run(["info", "--input", tmp_path / "nope.gmlt"]) == 3
    assert run(["gen", "--config", tmp_path / "nope.json",
                "--pattern", tmp_path / "p.json", "--out", tmp_path / "o"]) == 3


def test_bad_json_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    pat = write_pattern(tmp_path / "p.json")
    assert run(["gen", "--config", bad, "--pattern", pat,
                "--out", tmp_path / "o"]) == 2


def test_unknown_config_key(tmp_path):
    cfg = write_config(tmp_path / "c.json", epsilonn=1.0)
    pat = write_pattern(tmp_path / "p.json")
    assert run(["gen", "--config", cfg, "--pattern", pat,
                "--out", tmp_path / "o"]) == 2


def test_non_scalar_config_value_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "c.json", d=[2])
    assert run(["interp", "--weights", tmp_path, "--from", tmp_path / "a.gmlt",
                "--to", tmp_path / "b.gmlt", "--steps", 3, "--config", cfg,
                "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("overrides, key", [
    ({"base": [1.0]}, "base"),
    ({"endpoints": {"sigma": [1.5]}}, "endpoints.sigma"),
    ({"endpoints": [[0, 0], [5, 5]]}, "endpoints"),
    ({"regions": [{"factor": 0.2, "shape": "disk", "center": [2, 2], "radius": [1]}]},
     "regions[0].radius"),
    ({"regions": [{"shape": "box", "lo": [2, 2], "hi": [3, 3]}]}, "regions[0].factor"),
    ({"regions": {"factor": 0.2}}, "regions"),
    ({"smooth_radius": 1.5}, "smooth_radius"),
    ({"regions": [{"factor": 0.2, "lo": 2, "hi": [3, 3]}]}, "regions[0].lo"),
    ({"endpoints": {"start": {"x": 1}}}, "endpoints.start"),
    # unknown keys at every level
    ({"smooth_raduis": 1}, "smooth_raduis"),
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [3, 3], "axis": [0]}]},
     "regions[0].axis"),
    ({"endpoints": {"strat": [1, 1]}}, "endpoints.strat"),
    # region axes
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [3, 3], "axes": 5}]}, "regions[0].axes"),
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [3, 3], "axes": "diagonal"}]},
     "regions[0].axes"),
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [3, 3], "axes": [7]}]},
     "regions[0].axes"),
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [3, 3], "axes": [0.5]}]},
     "regions[0].axes[0]"),
    # coordinate counts
    ({"regions": [{"factor": 0.2, "lo": [2], "hi": [3, 3]}]}, "regions[0].lo"),
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [3, 3, 3]}]}, "regions[0].hi"),
    ({"regions": [{"factor": 0.2, "shape": "disk", "center": [2], "radius": 1}]},
     "regions[0].center"),
    ({"regions": [{"factor": 0.2, "shape": "disk", "center": [2, 2, 2], "radius": 1}]},
     "regions[0].center"),
    # keys the region's shape does not use
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [3, 3], "center": [1, 1]}]},
     "regions[0].center"),
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [3, 3], "radius": 5}]},
     "regions[0].radius"),
    ({"regions": [{"factor": 0.2, "shape": "disk", "center": [2, 2], "radius": 1,
                   "lo": [2, 2]}]}, "regions[0].lo"),
    ({"regions": [{"factor": 0.2, "shape": "disk", "center": [2, 2], "radius": 1,
                   "hi": [3, 3]}]}, "regions[0].hi"),
    # signs
    ({"regions": [{"factor": 0.2, "shape": "disk", "center": [2, 2], "radius": -1}]},
     "regions[0].radius"),
    ({"smooth_radius": -1}, "smooth_radius"),
    # rendered weights out of the float range
    ({"base": 1e308, "regions": [{"factor": 1e10, "lo": [2, 2], "hi": [3, 3]}]}, "base"),
    ({"base": 1e300, "smooth_radius": 1,  # the box sum overflows, not the product
      "regions": [{"factor": 1e8, "lo": [2, 2], "hi": [3, 3]}]}, "base"),
    ({"base": 1e-300, "regions": [{"factor": 1e-100, "lo": [2, 2], "hi": [3, 3]}]}, "base"),
    # an end blob that is 0 at every vertex, or whose sigma squared underflows
    ({"endpoints": {"sigma": 0.01, "start": [4.5, 0.5]}}, "endpoints.start"),
    ({"endpoints": {"sigma": 1e-200, "start": [4.0, 0.0]}}, "endpoints.start"),
])
def test_gen_bad_pattern_value_is_config_error(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path / "c.json")
    pat = write_pattern(tmp_path / "p.json", **overrides)
    assert run(["gen", "--config", cfg, "--pattern", pat, "--out", tmp_path / "o"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"base": float("nan")}, "base"),
    ({"regions": [{"factor": float("nan"), "shape": "box", "lo": [2, 2], "hi": [3, 3]}]},
     "regions[0].factor"),
    ({"regions": [{"factor": 0.2, "lo": [2, float("nan")], "hi": [3, 3]}]}, "regions[0].lo"),
    ({"regions": [{"factor": 0.2, "lo": [2, 2], "hi": [float("nan"), 3]}]}, "regions[0].hi"),
    ({"regions": [{"factor": 0.2, "shape": "disk", "center": [float("nan"), 2], "radius": 1}]},
     "regions[0].center"),
    ({"regions": [{"factor": 0.2, "shape": "disk", "center": [2, 2], "radius": float("nan")}]},
     "regions[0].radius"),
    ({"endpoints": {"start": [float("nan"), 0]}}, "endpoints.start"),
    ({"base": float("inf")}, "base"),
    ({"endpoints": {"sigma": float("inf")}}, "endpoints.sigma"),
])
def test_gen_nan_pattern_value_fails_at_its_key(tmp_path, capsys, overrides, key):
    """JSON's NaN fails the positivity check of its own key, not a later
    check on the weights it would corrupt."""
    cfg = write_config(tmp_path / "c.json")
    pat = write_pattern(tmp_path / "p.json", **overrides)
    assert run(["gen", "--config", cfg, "--pattern", pat, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert key in err and "weights" not in err


@pytest.mark.parametrize("edit, key", [
    (lambda m: m.pop("frames"), "frames"),
    (lambda m: m.update(dims=6), "dims"),
    (lambda m: m.update(dims=[6.5, 6]), "dims[0]"),
    (lambda m: m["frames"].__setitem__(1, 1), "frames[1]"),
    (lambda m: m.update(frames=[]), "frames"),
    (lambda m: m.update(dims=[6, 1]), "dims[1]"),
    (lambda m: m.update(dims=[]), "dims"),
    (lambda m: m["timestamps"].pop(), "timestamps"),
    # a frame is a file in the sequence directory, named before any is opened
    (lambda m: m["frames"].__setitem__(1, "../x.gmlt"), "frames[1]"),
    (lambda m: m["frames"].__setitem__(2, "sub/x.gmlt"), "frames[2]"),
    (lambda m: m["frames"].__setitem__(0, "/tmp/x.gmlt"), "frames[0]"),
], ids=["missing-frames", "dims-not-list", "fractional-dim", "frame-name-not-string",
        "empty-frames", "short-axis", "no-axes", "short-timestamps", "parent-dir",
        "subdir", "absolute"])
def test_learn_bad_manifest_is_config_error(workspace, capsys, edit, key):
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    path = root / "truth" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["learn", "--config", cfg, "--sequence", root / "truth",
                "--out", root / "o"]) == 2
    assert key in capsys.readouterr().err


def test_repeated_json_key_is_config_error(workspace, capsys):
    """In a gen pattern, a list element of it and a manifest alike."""
    root, cfg, _ = workspace
    pat = root / "p.json"
    for text, key in (('{"base": 1.0, "base": 2.0}', "base"),
                      ('{"regions": [{"factor": 0.2, "factor": 0.3, "lo": [2, 2], "hi": [3, 3]}]}',
                       "regions[0].factor")):
        pat.write_text(text)
        assert run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "o"]) == 2
        assert "repeated keys: %s\n" % key in capsys.readouterr().err
    write_pattern(pat)
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    path = root / "truth" / "manifest.json"
    path.write_text(path.read_text().replace('"dims"', '"timestamps": [0, 1], "dims"', 1))
    capsys.readouterr()
    assert run(["learn", "--config", cfg, "--sequence", root / "truth",
                "--out", root / "w"]) == 2
    assert "repeated keys: timestamps\n" in capsys.readouterr().err


def _reverse_interior_timestamps(seq):
    manifest = json.loads((seq / "manifest.json").read_text())
    manifest["timestamps"][1:-1] = manifest["timestamps"][-2:0:-1]
    (seq / "manifest.json").write_text(json.dumps(manifest))


def _add_manifest_key(seq):
    manifest = json.loads((seq / "manifest.json").read_text())
    manifest["fps"] = 24
    (seq / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("breakage, kind, text", [
    (_reverse_interior_timestamps, ValueError, "timestamps must increase"),
    (_add_manifest_key, ConfigError, "unknown keys: fps"),
    (lambda seq: write_tensor(seq / "frame_001.gmlt", 2 * read_tensor(seq / "frame_001.gmlt")),
     ValueError, "frames must sum to 1"),
    (lambda seq: write_tensor(seq / "frame_001.gmlt", np.full((6, 5), 1 / 30)),
     ValueError, "frame_001.gmlt has shape"),
], ids=["timestamp-order", "extra-key", "frame-mass", "frame-shape"])
def test_learn_names_the_sequence_at_fault(workspace, capsys, breakage, kind, text):
    """Of two sequences, the broken second one is named exactly once."""
    root, cfg, pat = workspace
    for name in ("good", "broken"):
        run(["gen", "--config", cfg, "--pattern", pat, "--out", root / name])
    breakage(root / "broken")
    with pytest.raises(kind, match=text) as info:
        load_sequence(root / "broken")
    assert type(info.value) is kind
    capsys.readouterr()
    assert run(["learn", "--config", cfg, "--sequence", root / "good",
                "--sequence", root / "broken", "--out", root / "o"]) == 2
    err = capsys.readouterr().err
    assert text in err and err.count(str(root / "broken")) == 1
    assert str(root / "good") not in err


def test_json_that_is_not_utf8_names_its_file(workspace, capsys):
    """A run config and a sequence manifest alike: exit 2, the path named once."""
    root, cfg, pat = workspace
    bad = root / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert run(["gen", "--config", bad, "--pattern", pat, "--out", root / "o"]) == 2
    assert capsys.readouterr().err.count(str(bad)) == 1
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    manifest = root / "truth" / "manifest.json"
    manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
    capsys.readouterr()
    assert run(["learn", "--config", cfg, "--sequence", root / "truth",
                "--out", root / "w"]) == 2
    assert capsys.readouterr().err.count(str(manifest)) == 1


def test_learn_backs_off_from_weights_out_of_the_float_range(tmp_path, monkeypatch):
    """The first trial step of this run puts log-weights near +-2,600, where
    exp gives 0 and inf: the objective is +inf there and the step shrinks."""
    cfg = write_config(tmp_path / "c.json", n=8, epsilon=0.012, substeps=5,
                       sinkhorn_iters=10, frames=4, lambda_s=30.0, seed=1,
                       init={"mode": "log_uniform", "low": 0.5, "high": 2.0})
    pat = write_pattern(tmp_path / "p.json")
    assert run(["gen", "--config", cfg, "--pattern", pat, "--out", tmp_path / "truth"]) == 0
    values = []
    real = cli.evaluate_with_grad

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        values.append(out[0])
        return out

    monkeypatch.setattr(cli, "evaluate_with_grad", spy)
    assert run(["learn", "--config", cfg, "--sequence", tmp_path / "truth",
                "--out", tmp_path / "w"]) == 0
    assert values[1] == np.inf
    w = load_weights(tmp_path / "w", GridSpec((8, 8)))
    assert np.isfinite(w).all() and w.min() > 0


def test_learn_passes_config_lbfgs_settings_to_minimize(workspace, monkeypatch):
    root, _, pat = workspace
    settings = {"max_iters": 2, "memory": 4, "grad_tol": 1e-9}
    line_search = {"armijo": 1e-3, "shrink": 0.3, "max_trials": 9, "init_step": 0.7}
    cfg = write_config(root / "c.json", lbfgs=dict(settings, line_search=line_search))
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    seen = []
    real = cli.minimize

    def spy(f, x0, opts=None, callback=None):
        seen.append(opts)
        return real(f, x0, opts, callback=callback)

    monkeypatch.setattr(cli, "minimize", spy)
    assert run(["learn", "--config", cfg, "--sequence", root / "truth",
                "--out", root / "o"]) == 0
    (opts,) = seen
    defaults = LbfgsOptions()
    for block, got, default in ((settings, opts, defaults),
                                (line_search, opts.line_search, defaults.line_search)):
        for key, value in block.items():
            assert value != getattr(default, key), key
            assert getattr(got, key) == value, key


def test_info_sum_past_float64_prints_inf(tmp_path, capsys):
    # finite entries whose sum overflows: no RuntimeWarning, the sum reads inf
    p = tmp_path / "big.gmlt"
    write_tensor(p, np.full(4, 1e308))
    assert run(["info", "--input", p]) == 0
    assert "sum: inf\n" in capsys.readouterr().out


def test_corrupt_tensor_is_format_error(tmp_path):
    p = tmp_path / "bad.gmlt"
    p.write_bytes(b"XXXX" + b"\x00" * 64)
    assert run(["info", "--input", p]) == 3


def test_interp_rejects_single_step(workspace):
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    assert run(["interp", "--weights", root / "truth",
                "--from", root / "truth" / "frame_000.gmlt",
                "--to", root / "truth" / "frame_003.gmlt",
                "--steps", 1, "--config", cfg, "--out", root / "i"]) == 2


def test_interp_rejects_negative_histogram(workspace):
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    neg = np.full((6, 6), -1.0)
    write_tensor(root / "neg.gmlt", neg)
    assert run(["interp", "--weights", root / "truth",
                "--from", root / "neg.gmlt",
                "--to", root / "truth" / "frame_003.gmlt",
                "--steps", 3, "--config", cfg, "--out", root / "i"]) == 2


def test_interp_normalizes_a_histogram_whose_sum_overflows(workspace):
    """Finite entries whose sum is past float64 are scaled by the largest
    one before normalizing, with no overflow warning on the way."""
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    huge = np.zeros((6, 6))
    huge[1, 1] = huge[4, 4] = 1.5e308
    write_tensor(root / "huge.gmlt", huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["interp", "--weights", root / "truth",
                    "--from", root / "huge.gmlt",
                    "--to", root / "truth" / "frame_003.gmlt",
                    "--steps", 3, "--config", cfg, "--out", root / "i"]) == 0


def test_learn_grid_mismatch(workspace):
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    other = write_config(root / "c8.json", n=8)
    assert run(["learn", "--config", other, "--sequence", root / "truth",
                "--out", root / "o"]) == 2


def test_learn_rejects_bad_thread_count(workspace):
    root, cfg, pat = workspace
    run(["gen", "--config", cfg, "--pattern", pat, "--out", root / "truth"])
    assert run(["learn", "--config", cfg, "--sequence", root / "truth",
                "--out", root / "o", "--threads", 0]) == 2


def test_export_pgm_needs_2d(tmp_path):
    write_tensor(tmp_path / "v.gmlt", np.ones(5))
    assert run(["export", "--input", tmp_path / "v.gmlt", "--format", "pgm",
                "--out", tmp_path / "v.pgm"]) == 2


def test_export_unknown_format_is_usage_error(tmp_path):
    write_tensor(tmp_path / "v.gmlt", np.ones((2, 2)))
    with pytest.raises(SystemExit) as exc:
        run(["export", "--input", tmp_path / "v.gmlt", "--format", "bmp",
             "--out", tmp_path / "v.bmp"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "otgrid.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("gen", "learn", "interp", "transfer", "export", "info"):
        assert sub in proc.stdout
