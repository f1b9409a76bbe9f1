import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscmin import cli, energy, io, surface
from viscmin.errors import OutOfRange, ParseError, UnknownKey


def test_fmt_float_round_trip():
    rng = np.random.default_rng(0)
    for x in rng.normal(scale=1e3, size=200):
        assert float(io.fmt_float(x)) == x
    assert io.fmt_float(-0.0) == "0"
    assert io.fmt_float(0.125) == "0.125"


def test_dumps_json_deterministic():
    obj = {"b": 1.5, "a": [1, 2.25, True, None],
            "c": {"re": 0.1, "nested": [[1.0, 2.0], [3.0, 4.0]]},
            "z": np.array([0.5, 0.25]),
            "w": 1.0 + 2.0j}
    s1 = io.dumps_json(obj)
    s2 = io.dumps_json(obj)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["b"] == 1.5
    assert parsed["w"] == {"re": 1.0, "im": 2.0}
    assert list(parsed.keys()) == ["b", "a", "c", "z", "w"]  # insertion order


def test_read_json_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        io.read_json(str(bad))


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    io.write_csv(str(path), ["a", "b"], [(1, 0.1), (2, 0.25)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.10000000000000001"
    assert lines[2] == "2,0.25"


def test_immersion_checkpoint_bit_exact(tmp_path, clifford, equator):
    for im in (clifford, equator):
        path = str(tmp_path / "im.json")
        io.save_immersion(path, im)
        im2 = io.load_immersion(path)
        assert np.array_equal(im2.coeffs, im.coeffs)
        assert im2.topology == im.topology
        # a second round trip is a fixed point byte for byte
        path2 = str(tmp_path / "im2.json")
        io.save_immersion(path2, im2)
        assert open(path).read() == open(path2).read()


def test_variation_round_trip(tmp_path, clifford):
    w = surface.random_variation(clifford, seed=5, amplitude=0.02, band=2)
    path = str(tmp_path / "w.json")
    io.save_variation(path, w)
    w2 = io.load_variation(path, clifford)
    assert_allclose(w2.values, w.values, rtol=0, atol=1e-16)


def test_load_immersion_missing_keys(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"topology": {"genus": 1}}')
    with pytest.raises(ParseError):
        io.load_immersion(str(path))


def test_validate_config_examples():
    cfg = cli.validate_config({"command": "energy", "input": "x.json",
                               "sigma": 0.1})
    assert cfg.command == "energy"
    assert cfg["sigma"] == 0.1
    assert cfg["resolution"] == 16  # default applied
    with pytest.raises(OutOfRange) as err:
        cli.validate_config({"command": "energy", "input": "x.json",
                             "sigma": -1})
    assert err.value.field == "sigma"
    with pytest.raises(UnknownKey):
        cli.validate_config({"command": "fly"})
    with pytest.raises(UnknownKey):
        cli.validate_config({"command": "energy", "input": "x.json",
                             "wings": 2})
    with pytest.raises(ParseError):
        cli.validate_config({"command": "energy"})  # input is required
    with pytest.raises(OutOfRange):
        cli.validate_config({"command": "gauge", "input": "a", "mode": "fly",
                             "variation": "b"})


def test_cli_energy_on_preset(tmp_path):
    out = str(tmp_path / "report.json")
    code = cli.main(["energy", "--input", "equator_s2_in_s3",
                     "--output", out])
    assert code == 0
    report = json.load(open(out))
    assert_allclose(report["area"], 4 * np.pi, rtol=1e-12)
    assert_allclose(report["f_energy"], 4 * np.pi, rtol=1e-12)


def test_cli_energy_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["energy", "--input", "clifford_torus",
                     "--output", a]) == 0
    assert cli.main(["energy", "--input", "clifford_torus",
                     "--output", b]) == 0
    assert open(a).read() == open(b).read()


def test_cli_geometry(tmp_path):
    out = str(tmp_path / "geom.json")
    assert cli.main(["geometry", "--input", "clifford_torus",
                     "--output", out]) == 0
    geom = json.load(open(out))
    assert geom["euler_characteristic"] == 0
    assert abs(geom["gauss_bonnet_defect"]) <= 1e-6


def test_cli_spectrum_summary(tmp_path, capsys):
    out = str(tmp_path / "eigs.csv")
    code = cli.main(["spectrum", "--input", "clifford_torus", "--sigma", "0",
                     "--basis-cutoff", "2", "--output", out])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["index"] == 5
    assert summary["nullity"] == 4
    assert summary["noncritical_flag"] is False
    lines = open(out).read().splitlines()
    assert lines[0] == "k,mu_k"
    assert len(lines) > 5


def test_cli_spectrum_thread_count_invariant(tmp_path, monkeypatch):
    # no pass starts a thread; the kernel pass splits its nodes into
    # blocks, and the bytes must not depend on the split
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["spectrum", "--input", "equator_s2_in_s3",
                     "--basis-cutoff", "2", "--output", a]) == 0
    monkeypatch.setattr(energy, "_NODE_BLOCK", 7)
    assert cli.main(["spectrum", "--input", "equator_s2_in_s3",
                     "--basis-cutoff", "2", "--output", b]) == 0
    assert open(a).read() == open(b).read()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two CPUs in the affinity mask")
def test_cli_spectrum_bytes_independent_of_cpu_count(tmp_path):
    # a fresh process per run, with no BLAS thread variables set, so the
    # CLI's own pin must act before numpy loads: multi-threaded BLAS
    # changes the last digits of this spectrum's -4 and -2 eigenvalues
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src
    outputs = []
    for k, cpus in enumerate([{min(os.sched_getaffinity(0))},
                              os.sched_getaffinity(0)]):
        out = str(tmp_path / f"eigs{k}.csv")
        run = subprocess.run(
            [sys.executable, "-m", "viscmin.cli", "spectrum", "--input",
             "clifford_torus", "--basis-cutoff", "3", "--sigma", "0",
             "--output", out],
            env=env, capture_output=True, check=True,
            preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus))
        outputs.append(run.stdout + open(out, "rb").read())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag, value", [("--threads", "2"),
                                         ("--bogus", "1")])
def test_cli_unknown_flag_is_json_error(capsys, flag, value):
    # an unknown flag is a validation failure like an unknown config key:
    # exit 2 with one JSON object on stderr, not argparse's usage text
    code = cli.main(["energy", "--input", "clifford_torus", flag, value])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnknownKey"
    assert err["field"] == flag[2:]


def test_cli_malformed_argv_is_json_error(capsys):
    code = cli.main(["energy", "--input"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "--input" in err["message"]


def test_cli_gauge_modes(tmp_path, clifford):
    im_path = str(tmp_path / "im.json")
    w_path = str(tmp_path / "w.json")
    io.save_immersion(im_path, clifford)
    w = surface.random_variation(clifford, seed=3, amplitude=0.01, band=2,
                                 tangent=True)
    io.save_variation(w_path, w)
    out = str(tmp_path / "g.json")
    assert cli.main(["gauge", "--input", im_path, "--variation", w_path,
                     "--mode", "coulomb", "--output", out]) == 0
    assert "residual_sup" in json.load(open(out))
    assert cli.main(["gauge", "--input", im_path, "--variation", w_path,
                     "--mode", "decompose", "--output", out]) == 0
    dec = json.load(open(out))
    assert dec["residual"] <= 1e-10
    # retraction: target is a nearby immersion checkpoint
    tgt = surface.SampledImmersion.from_samples(
        clifford.ambient, clifford.topology, clifford.basis,
        clifford.samples() + 0.5 * w.values)
    tgt_path = str(tmp_path / "tgt.json")
    io.save_immersion(tgt_path, tgt)
    assert cli.main(["gauge", "--input", im_path, "--variation", tgt_path,
                     "--mode", "retract", "--output", out]) == 0
    ret = json.load(open(out))
    assert ret["residual"] <= 1e-7


def test_cli_variation_check(tmp_path):
    out = str(tmp_path / "vc.csv")
    assert cli.main(["variation-check", "--input", "perturbed_clifford",
                     "--seeds", "1", "--output", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "formula,fd_value,analytic_value,rel_err"
    rels = [float(line.split(",")[3]) for line in lines[1:]]
    assert max(rels) <= 1e-5


def test_cli_transfer(tmp_path, clifford):
    im_path = str(tmp_path / "im.json")
    w_path = str(tmp_path / "w.json")
    io.save_immersion(im_path, clifford)
    w = surface.random_variation(clifford, seed=1, amplitude=0.05, band=1)
    io.save_variation(w_path, w)
    out = str(tmp_path / "x.json")
    assert cli.main(["transfer", "--input", im_path, "--variation", w_path,
                     "--delta", "0.001", "--centers", "1.5,2.5",
                     "--output", out]) == 0
    res = json.load(open(out))
    assert res["w12_error"] > 0


def test_cli_continue_empty_schedule(tmp_path):
    cfg_path = str(tmp_path / "run.json")
    out_dir = str(tmp_path / "out")
    with open(cfg_path, "w") as fh:
        json.dump({"start": "equator_s2_in_s3", "resolution": 8,
                   "sigma_schedule": []}, fh)
    assert cli.main(["continue", "--config", cfg_path,
                     "--output", out_dir]) == 0
    stages = open(os.path.join(out_dir, "stages.csv")).read().splitlines()
    assert stages == ["sigma,area,f,entropy_product,grad_norm,index,nullity"]


def test_cli_continue_short_run(tmp_path):
    cfg_path = str(tmp_path / "run.json")
    out_dir = str(tmp_path / "out")
    with open(cfg_path, "w") as fh:
        json.dump({"start": "equator_s2_in_s3", "resolution": 8,
                   "sigma_schedule": [0.5, 0.25], "spectrum_cutoff": 3}, fh)
    assert cli.main(["continue", "--config", cfg_path,
                     "--output", out_dir]) == 0
    verdict = json.load(open(os.path.join(out_dir, "verdict.json")))
    assert verdict["pass"] is True
    assert verdict["limit_spectrum"]["index"] == 1
    stage_path = os.path.join(out_dir, "stage_1.json")
    stage = json.load(open(stage_path))
    assert stage["sigma"] == 0.5
    assert stage["index"] == 1
    # stage files double as immersion checkpoints, directly and as --input
    im = io.load_immersion(stage_path)
    assert im.resolution == 8
    assert cli.main(["energy", "--input", stage_path]) == 0


def test_cli_continue_survives_a_failed_refit(tmp_path):
    # from this start a Newton update cannot be refitted onto S^3
    # (NoConvergence in from_samples); the solve ends at its best iterate
    # as not converged and the run still writes every stage and a verdict
    cfg_path = str(tmp_path / "run.json")
    out_dir = str(tmp_path / "out")
    schedule = [0.5, 0.25, 0.125]
    with open(cfg_path, "w") as fh:
        json.dump({"start": "perturbed_clifford", "resolution": 12,
                   "sigma_schedule": schedule, "newton_cutoff": 3,
                   "spectrum_cutoff": 2}, fh)
    assert cli.main(["continue", "--config", cfg_path,
                     "--output", out_dir]) in (0, 2)
    stages = [json.load(open(os.path.join(out_dir, f"stage_{k}.json")))
              for k in range(1, len(schedule) + 1)]
    assert [st["sigma"] for st in stages] == schedule
    assert not stages[0]["converged"]
    rows = open(os.path.join(out_dir, "stages.csv")).read().splitlines()
    assert len(rows) == len(schedule) + 1
    verdict = json.load(open(os.path.join(out_dir, "verdict.json")))
    assert "pass" in verdict


@pytest.mark.parametrize("bad", [{"newton_tol": "abc"},
                                 {"sigma_schedule": 5},
                                 {"max_newton": float("inf")}])
def test_cli_continue_bad_config_value(tmp_path, capsys, bad):
    # a known key with a value the config cannot take is a parse error,
    # reported like every other validation failure
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"start": "clifford_torus", "resolution": 8, **bad}, fh)
    code = cli.main(["continue", "--config", cfg_path,
                     "--output", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["field"] == "config"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("bad, field", [({"eps_neg": -1.0}, "eps_neg"),
                                        ({"eps_neg": float("nan")},
                                         "eps_neg"),
                                        ({"max_newton": -1}, "max_newton"),
                                        ({"sigma_schedule": ["inf", 0.5]},
                                         "sigma_schedule"),
                                        ({"spectrum_cutoff": -1},
                                         "spectrum_cutoff"),
                                        ({"newton_tol": -1}, "newton_tol")])
def test_cli_continue_out_of_range_config(tmp_path, capsys, bad, field):
    # out-of-range config values are OutOfRange on their field, before any
    # stage runs or any output is written
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"start": "clifford_torus", "resolution": 8,
                   "sigma_schedule": [0.5], **bad}, fh)
    code = cli.main(["continue", "--config", cfg_path,
                     "--output", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutOfRange"
    assert err["field"] == field
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("argv, field", [
    (["spectrum", "--basis-cutoff", "1", "--eps-neg", "nan"], "eps_neg"),
    (["spectrum", "--basis-cutoff", "1", "--sigma", "nan"], "sigma"),
    (["energy", "--sigma", "inf"], "sigma"),
    (["variation-check", "--amplitude", "inf"], "amplitude")])
def test_cli_non_finite_flag_is_out_of_range(tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    code = cli.main(argv + ["--input", "clifford_torus", "--resolution", "8",
                            "--output", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutOfRange"
    assert err["field"] == field
    assert not os.path.exists(out)


def test_cli_bad_seed_is_parse_error(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = cli.main(["energy", "--input", "clifford_torus", "--seed", "abc",
                     "--output", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["field"] == "seed"
    assert not os.path.exists(out)


@pytest.mark.parametrize("content", [
    b"[1, 2]",
    b'{"topology": 5, "ambient": 1, "basis": 2, "coeffs": 3}',
    b"\xff\xfe{"])
def test_cli_malformed_checkpoint_is_parse_error(tmp_path, capsys, content):
    # a top-level array, wrongly typed fields and non-UTF-8 bytes
    path = tmp_path / "in.json"
    path.write_bytes(content)
    out = tmp_path / "out.json"
    code = cli.main(["energy", "--input", str(path), "--output", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["field"] == "in.json"
    assert not os.path.exists(out)


@pytest.mark.parametrize("bad, field", [({"resolution": "abc"}, "resolution"),
                                        ({"start": 5}, "start"),
                                        ({"start": ["clifford_torus"]},
                                         "start"),
                                        ({"resolution": float("inf")},
                                         "resolution")])
def test_cli_continue_bad_start_or_resolution(tmp_path, capsys, bad, field):
    # the start immersion and its resolution are checked like the config
    # keys, before anything is built or written
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"start": "clifford_torus", "resolution": 8,
                   "sigma_schedule": [0.5], **bad}, fh)
    code = cli.main(["continue", "--config", cfg_path,
                     "--output", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["field"] == field
    assert not os.path.exists(tmp_path / "out")


def test_cli_error_exit_codes(tmp_path, capsys):
    # validation failure: exit 2 with structured JSON on stderr
    code = cli.main(["energy", "--input", "x.json", "--sigma", "-3"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutOfRange"
    assert err["field"] == "sigma"
    # runtime failure (missing file): exit 1
    code = cli.main(["energy", "--input", str(tmp_path / "missing.json")])
    assert code == 1


@pytest.mark.parametrize("start, resolution, schedule, extra, unconverged", [
    # every solve of this run ends unconverged (see the refit test above)
    ("perturbed_clifford", 12, [0.5, 0.25, 0.125],
     {"newton_cutoff": 3}, [0, 1, 2]),
    # the Clifford torus is critical at every sigma
    ("clifford_torus", 16, [0.5, 0.25, 0.125, 0.0625], {}, []),
])
def test_cli_continue_verdict_names_unconverged_stages(
        tmp_path, start, resolution, schedule, extra, unconverged):
    cfg_path = str(tmp_path / "run.json")
    out_dir = str(tmp_path / "out")
    with open(cfg_path, "w") as fh:
        json.dump({"start": start, "resolution": resolution,
                   "sigma_schedule": schedule, "spectrum_cutoff": 2,
                   **extra}, fh)
    cli.main(["continue", "--config", cfg_path, "--output", out_dir])
    verdict = json.load(open(os.path.join(out_dir, "verdict.json")))
    detail = verdict["detail"]
    assert detail["unconverged_stages"] == unconverged
    assert len(detail["stage_indices"]) == len(schedule)
    converged = [json.load(open(os.path.join(out_dir, f"stage_{k}.json")))
                 ["converged"] for k in range(1, len(schedule) + 1)]
    assert [k for k, c in enumerate(converged) if not c] == unconverged


def _drop_last_row(d):
    d["coeffs"] = d["coeffs"][:-1]


@pytest.mark.parametrize("preset, resolution, edit", [
    ("equator_s2_in_s3", 4, lambda d: d["basis"].update(type="bogus")),
    ("equator_s2_in_s3", 4, lambda d: d.update(
        topology={"genus": 1, "marked_points": [[0.0, 0.0]]})),
    ("equator_s2_in_s3", 4, _drop_last_row),
    ("equator_s2_in_s3", 4, lambda d: d["ambient"].update(kind="hyperbolic")),
    ("equator_s2_in_s3", 4, lambda d: d["topology"].update(
        marked_points=d["topology"]["marked_points"][:2])),
    # the control: on the torus a short coefficient list was a ParseError
    ("clifford_torus", 8, _drop_last_row),
], ids=["unknown-basis-type", "genus-1-on-sphere", "sphere-coeffs-short",
        "unknown-ambient", "two-marked-points", "torus-coeffs-short"])
def test_cli_checkpoint_disagreeing_with_its_chart_is_parse_error(
        tmp_path, capsys, preset, resolution, edit):
    d = io.immersion_checkpoint(surface.make_preset(preset, resolution))
    edit(d)
    path = tmp_path / "in.json"
    io.write_json(str(path), d)
    out = tmp_path / "out.json"
    code = cli.main(["energy", "--input", str(path), "--output", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["field"] == "in.json"
    assert not os.path.exists(out)


@pytest.mark.parametrize("content, code, error", [
    ("5", 2, "ParseError"),
    ('{"samples": [[1, 2], [3]]}', 2, "ParseError"),
    ('{"samples": "abc"}', 2, "ParseError"),
    # samples that parse but do not fit the grid stay a shape error
    ('{"samples": [[1, 2, 3, 4]]}', 1, "ShapeMismatch"),
], ids=["number", "ragged", "string", "wrong-shape"])
def test_cli_malformed_variation_file(tmp_path, capsys, content, code, error):
    path = tmp_path / "w.json"
    path.write_text(content)
    out = tmp_path / "out.json"
    assert cli.main(["gauge", "--input", "clifford_torus", "--resolution",
                     "8", "--mode", "coulomb", "--variation", str(path),
                     "--output", str(out)]) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert not os.path.exists(out)


def _checkpoint_of(preset, resolution, key, value):
    def write(tmp_path):
        d = io.immersion_checkpoint(surface.make_preset(preset, resolution))
        d["basis"][key] = value
        path = tmp_path / "in.json"
        io.write_json(str(path), d)
        return ["energy", "--input", str(path)]
    return write


def _continue_config(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"start": "clifford_torus",
                                    "resolution": 3}))
    return ["continue", "--config", str(cfg_path)]


@pytest.mark.parametrize("argv, error, field", [
    (lambda p: ["energy", "--input", "clifford_torus", "--resolution", "3"],
     "OutOfRange", "resolution"),
    (lambda p: ["energy", "--input", "equator_s2_in_s3", "--resolution",
                "1"], "OutOfRange", "resolution"),
    (_continue_config, "OutOfRange", "resolution"),
    (_checkpoint_of("clifford_torus", 8, "modes", 3), "ParseError",
     "in.json"),
    (_checkpoint_of("equator_s2_in_s3", 4, "degree", 1), "ParseError",
     "in.json"),
], ids=["torus-flag", "sphere-flag", "continue-config", "torus-checkpoint",
        "sphere-checkpoint"])
def test_cli_resolution_below_the_chart_minimum_exits_2(
        tmp_path, capsys, argv, error, field):
    out = tmp_path / "out"
    assert cli.main(argv(tmp_path) + ["--output", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == (error, field)
    assert not os.path.exists(out)
