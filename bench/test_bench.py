"""Tests of the benchmark itself: every oracle check rejects a planted wrong
answer, the finite-difference and closed-form oracles agree with each other,
the tracer counts what it wraps and puts the program back, and the runner
refuses to run without the program's sources.

    python3 -m pytest bench -q
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from viscmin import morse, surface

import oracles
from spans import Tracer, layer_metrics

BENCH = os.path.dirname(os.path.abspath(__file__))


def _report(eigs, sigma, eps_neg=1e-5):
    return morse.SpectrumReport(eigs, eps_neg, sigma, len(eigs), 0.0)


def _clifford_eigs(sigma, breathing_b=156.0, extra=40):
    """Closed-form Clifford spectrum padded with positive modes to 49."""
    modes = [(-4.0, breathing_b, 1), (-2.0, 62.0, 4), (0.0, 0.0, 4)]
    eigs = [a + sigma ** 2 * b for a, b, m in modes for _ in range(m)]
    return np.array(eigs + [50.0 + k for k in range(extra)])


@pytest.fixture(scope="module")
def clifford():
    return surface.make_preset("clifford_torus", 16)


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def _second_derivative(f, x, h=2e-3):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
            - f(x - 2 * h)) / (12 * h * h)


def test_breathing_coefficients_from_parallel_tori():
    # the tori of radii cos(alpha), sin(alpha): unit-speed normal family
    def energies(alpha):
        area = 2 * math.pi ** 2 * math.sin(2 * alpha)
        f = area * (1 + math.tan(alpha) ** 2 + math.tan(alpha) ** -2) ** 2
        return np.array([area, f])

    a, b = _second_derivative(energies, math.pi / 4) / (2 * math.pi ** 2)
    assert oracles.CLIFFORD_MODES[0][:2] == pytest.approx((a, b), abs=1e-5)


@pytest.mark.parametrize("sigma", [0.0, 0.17, 0.25])
def test_clifford_check_accepts_the_closed_form(sigma):
    assert oracles.check_clifford_spectrum(
        _report(_clifford_eigs(sigma), sigma), sigma, 49) == []


def test_clifford_check_rejects_planted_errors():
    sigma = 0.17
    wrong_b = _report(_clifford_eigs(sigma, breathing_b=155.0), sigma)
    assert oracles.check_clifford_spectrum(wrong_b, sigma, 49)
    dropped = _clifford_eigs(sigma)
    dropped = np.append(np.delete(dropped, 1), 99.0)   # one -2 + 62 s^2 mode
    assert oracles.check_clifford_spectrum(_report(dropped, sigma), sigma, 49)
    short = _clifford_eigs(sigma)[:-1]
    assert oracles.check_clifford_spectrum(_report(short, sigma), sigma, 49)

    class Flipped(morse.SpectrumReport):
        @property
        def index(self):
            return super().index + 1

    flipped = Flipped(_clifford_eigs(sigma), 1e-5, sigma, 49, 0.0)
    assert oracles.check_clifford_spectrum(flipped, sigma, 49)


def test_equator_oracle_values():
    # l = 0 is the -2 + 6 sigma^2 of the parallel spheres, l = 1 the
    # rotations, and the oracle covers every mode of degree <= cutoff
    pred = oracles.equator_predicted(0.3, 3)
    assert len(pred) == 16
    assert pred[0] == pytest.approx(-2 + 6 * 0.09)
    assert np.count_nonzero(pred == 0.0) == 3
    assert pred[-1] == pytest.approx(10 * (1 + 0.09 * 45))


def test_equator_check_rejects_planted_errors():
    sigma = 0.3
    good = oracles.equator_predicted(sigma, 3)
    assert oracles.check_equator_spectrum(_report(good, sigma), sigma, 3) == []
    wrong = good.copy()
    wrong[-1] = 10 * (1 + sigma ** 2 * 46)        # 4 lam - 3 -> 4 lam - 2
    assert oracles.check_equator_spectrum(_report(wrong, sigma), sigma, 3)
    assert oracles.check_equator_spectrum(_report(good[1:], sigma), sigma, 3)
    shifted = good.copy()
    shifted[0] = 1e-7                              # index 1 -> 0
    assert oracles.check_equator_spectrum(_report(shifted, sigma), sigma, 3)


# ---------------------------------------------------------------------------
# finite-difference hessian oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.0, 0.17, 0.25])
def test_fd_hessian_agrees_with_closed_form_on_clifford(clifford, sigma):
    # cutoff 1 is exactly the nine oracle modes, so the two oracles
    # cross-check each other
    fd = np.sort(oracles.fd_spectrum(clifford, sigma, 1))
    assert np.max(np.abs(fd - oracles.clifford_predicted(sigma))) <= 1e-6


def test_fd_check_rejects_planted_errors(clifford):
    fd = oracles.fd_spectrum(clifford, 0.17, 1)
    good = oracles.clifford_predicted(0.17)
    assert oracles.check_against_fd(_report(good, 0.17), fd, "x") == []
    wrong = good.copy()
    wrong[-1] *= 1 + 1e-4
    assert oracles.check_against_fd(_report(wrong, 0.17), fd, "x")
    assert oracles.check_against_fd(_report(good[1:], 0.17), fd, "x")


# ---------------------------------------------------------------------------
# Newton limits
# ---------------------------------------------------------------------------

def test_newton_check_accepts_clifford_rejects_noncritical(clifford):
    ok = {"immersion": clifford, "converged": True}
    assert oracles.check_newton_limit(ok, 0.5, "clifford", 0) == []
    start = surface.make_preset("perturbed_clifford", 16, amplitude=0.002,
                                seed=1)
    bad = {"immersion": start, "converged": True}
    found = oracles.check_newton_limit(bad, 0.5, "clifford", 0)
    assert any("first variation" in e for e in found)
    assert any("clifford defect" in e for e in found)


# ---------------------------------------------------------------------------
# continuation outputs
# ---------------------------------------------------------------------------

SCHEDULE = (0.5, 0.25, 0.125, 0.0625)


def _write_continuation(out_dir, index_shift=0, area_scale=1.0,
                        verdict_pass=True):
    os.makedirs(out_dir, exist_ok=True)
    area, f = 2 * math.pi ** 2 * area_scale, 18 * math.pi ** 2
    rows = []
    for k, sigma in enumerate(SCHEDULE):
        eigs = _clifford_eigs(sigma, extra=16).tolist()
        index = sum(e < -1e-4 for e in eigs) + (index_shift if k == 2 else 0)
        entropy = sigma ** 2 * f * math.log(1 / sigma)
        rows.append([sigma, area, f, entropy, 1e-13, index, 4])
        with open(os.path.join(out_dir, f"stage_{k + 1}.json"), "w") as fh:
            json.dump({"sigma": sigma, "index": index, "eigenvalues": eigs},
                      fh)
    with open(os.path.join(out_dir, "stages.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "area", "f", "entropy_product",
                         "grad_norm", "index", "nullity"])
        writer.writerows([[repr(x) for x in row] for row in rows])
    with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
        json.dump({"pass": verdict_pass, "limit_spectrum": {
            "index": 5, "nullity": 4,
            "eigenvalues": _clifford_eigs(0.0, extra=16).tolist()}}, fh)


def test_continuation_check_accepts_oracle_outputs(tmp_path):
    _write_continuation(str(tmp_path))
    assert oracles.check_continuation(str(tmp_path), SCHEDULE, 0) == []


@pytest.mark.parametrize("planted", [
    {"index_shift": 1}, {"area_scale": 1 + 1e-6}, {"verdict_pass": False}])
def test_continuation_check_rejects_planted_errors(tmp_path, planted):
    _write_continuation(str(tmp_path), **planted)
    assert oracles.check_continuation(str(tmp_path), SCHEDULE, 0)


def test_continuation_check_rejects_exit_code_and_missing_files(tmp_path):
    _write_continuation(str(tmp_path))
    assert oracles.check_continuation(str(tmp_path), SCHEDULE, 2)
    os.remove(os.path.join(str(tmp_path), "stage_3.json"))
    assert oracles.check_continuation(str(tmp_path), SCHEDULE, 0)


# ---------------------------------------------------------------------------
# tracer and runner
# ---------------------------------------------------------------------------

def test_tracer_counts_an_assembly_and_restores(clifford):
    original = morse.assemble_hessian
    tracer = Tracer()
    tracer.install()
    try:
        morse.jacobi_spectrum(clifford, 0.0, cutoff=1, warn_critical=False)
    finally:
        tracer.uninstall()
    assert morse.assemble_hessian is original
    m = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    # M = 9: 9 diagonal and 2 * 36 polarized jet directions, 45 entries
    assert m["morse.assemble_calls"] == 1
    assert m["morse.hessian_entries"] == 45
    assert m["energy.jet_directions"] == 81
    assert m["morse.directions_per_entry"] == pytest.approx(81 / 45)
    assert m["energy.jet_node_evals"] == 81 * 256
    assert m["morse.assemble_s"] > 0 and m["energy.jet_pass_s"] > 0
    assert m["sphharm.evaluate_at_calls"] == 0


def test_runner_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "newton", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
