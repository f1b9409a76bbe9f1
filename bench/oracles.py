"""Checks of the program's outputs against computations it does not share.

None of these goes through the jet pipeline or the hessian assembly:

* the closed-form sigma spectra of the Clifford torus and of the equator
  of S^3 (homogeneous surfaces, so every normal mode has an eigenvalue
  a + sigma^2 b in closed form; README.md derives the equator one);
* a hessian assembled entry by entry from Richardson second differences of
  the plain path evaluator ``energy.projected_path_energies``;
* Richardson first differences of the same path evaluator, which vanish at
  a critical point, and the closed-form energies of the critical fixtures;
* the files a ``viscmin continue`` run writes, read with the standard
  library and compared with the Clifford oracle.

Each check returns a list of failure messages; an empty list is a pass.
"""

import csv
import json
import math
import os

import numpy as np
import scipy.linalg

from viscmin import energy, morse
from viscmin.continuation import clifford_defect
from viscmin.surface import Variation

# Clifford torus: (a, b, multiplicity) of the normal modes whose constrained
# A_sigma eigenvalue is a + sigma^2 b: the breathing mode 1, the four modes
# cos/sin u, cos/sin v, and the four (1, +-1) modes (rotations of S^3, null
# at every sigma).  Derived without the jet pipeline in
# tests/test_morse.py (test_sigma_oracle_*), and re-derived for the
# breathing mode from the parallel-torus family in bench/test_bench.py.
CLIFFORD_MODES = ((-4.0, 156.0, 1), (-2.0, 62.0, 4), (0.0, 0.0, 4))

# absolute eigenvalue tolerance, scaled by max(1, |eigenvalue|); the
# program meets the closed forms to about 1e-12 at resolution 16
EIG_TOL = 1e-8
# finite-difference hessian against the program, relative to the largest
# |eigenvalue| (the 1e-5 level of acceptance criterion 2)
FD_REL_TOL = 1e-5
FD_STEP = 1e-2
# stage energies of the Clifford continuation
ENERGY_RTOL = 1e-9
# a converged Newton limit: closed-form area and F (so A_sigma) and the
# Clifford invariants;
# the solve corrects only the cutoff-4 modes, so an O(amplitude^2) tail of
# higher modes stays (clifford defect 7e-7 from amplitude 0.002, 9e-4 at a
# stalled solve)
LIMIT_ENERGY_RTOL = 1e-8
CLIFFORD_DEFECT_TOL = 1e-5
# first variation along a unit-L2 tangent direction at a converged limit:
# 100 newton_tol, since the solver bounds each Gram-normalized mode and a
# direction spreads over many (converged solves give <= 2e-8, stalled ones
# 5e-6 and up; the Richardson difference error is about 1e-10)
FIRST_VARIATION_TOL = 1e-6
FIRST_STEP = 1e-3


def clifford_predicted(sigma):
    """Sorted closed-form eigenvalues of the nine lowest Clifford modes."""
    return np.sort([a + sigma ** 2 * b for a, b, mult in CLIFFORD_MODES
                    for _ in range(mult)])


def equator_predicted(sigma, cutoff):
    """Sorted closed-form eigenvalues of the equator for degrees <= cutoff.

    (lam - 2)(1 + sigma^2 (4 lam - 3)) with lam = l(l + 1), multiplicity
    2l + 1: the whole spectrum on the degree-<= cutoff basis.
    """
    vals = []
    for ell in range(cutoff + 1):
        lam = ell * (ell + 1)
        vals += [(lam - 2) * (1 + sigma ** 2 * (4 * lam - 3))] * (2 * ell + 1)
    return np.sort(vals)


def _contains(eigs, predicted, tol=EIG_TOL):
    """Whether every predicted value, with multiplicity, is an eigenvalue."""
    free = list(np.sort(eigs))
    for p in np.sort(predicted):
        hit = [k for k, e in enumerate(free)
               if abs(e - p) <= tol * max(1.0, abs(p))]
        if not hit:
            return False
        del free[hit[0]]
    return True


def _counts(predicted, eps):
    predicted = np.asarray(predicted)
    return (int(np.sum(predicted < -eps)),
            int(np.sum(np.abs(predicted) <= eps)))


def check_clifford_spectrum(report, sigma, basis_size):
    """The nine oracle modes, index and nullity against a + sigma^2 b.

    The modes outside the oracle are positive on the Clifford torus, so the
    oracle alone fixes the index and the nullity.
    """
    errors = []
    eigs = np.asarray(report.eigenvalues)
    pred = clifford_predicted(sigma)
    if len(eigs) != basis_size or report.basis_size != basis_size:
        return [f"clifford sigma={sigma}: {len(eigs)} eigenvalues, "
                f"expected {basis_size}"]
    if not _contains(eigs, pred):
        errors.append(f"clifford sigma={sigma}: eigenvalues "
                      f"{np.sort(eigs)[:len(pred)].tolist()}... miss oracle "
                      f"{pred.tolist()}")
    index, nullity = _counts(pred, report.eps_neg)
    if (report.index, report.nullity) != (index, nullity):
        errors.append(f"clifford sigma={sigma}: index/nullity "
                      f"{report.index}/{report.nullity}, oracle "
                      f"{index}/{nullity}")
    return errors


def check_equator_spectrum(report, sigma, cutoff):
    """Every eigenvalue, index and nullity against the equator oracle."""
    errors = []
    pred = equator_predicted(sigma, cutoff)
    eigs = np.sort(report.eigenvalues)
    if len(eigs) != len(pred) or not _contains(eigs, pred):
        errors.append(f"equator sigma={sigma}: eigenvalues {eigs.tolist()} "
                      f"!= oracle {pred.tolist()}")
    index, nullity = _counts(pred, report.eps_neg)
    if (report.index, report.nullity) != (index, nullity):
        errors.append(f"equator sigma={sigma}: index/nullity "
                      f"{report.index}/{report.nullity}, oracle "
                      f"{index}/{nullity}")
    return errors


# ---------------------------------------------------------------------------
# finite-difference hessian
# ---------------------------------------------------------------------------

def _a_sigma_path(immersion, w, sigma):
    def path(t):
        area, f = energy.projected_path_energies(immersion, w, t)
        return area + sigma ** 2 * f
    return path


def _richardson_second(path, base, h=FD_STEP):
    def central(step):
        return (path(step) - 2.0 * base + path(-step)) / step ** 2
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def _richardson_first(path, h=FIRST_STEP):
    def central(step):
        return (path(step) - path(-step)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def l2_gram(immersion, fields):
    """Gram matrix of sample fields against sqrt(det g) chart quadrature."""
    _, Pd, _ = immersion.derivatives()
    g = np.einsum("niq,njq->nij", Pd, Pd)
    dvol = np.sqrt(np.linalg.det(g)) * immersion.basis.chart_weights
    vals = np.stack([f.values for f in fields])
    return np.einsum("anq,bnq,n->ab", vals, vals, dvol)


def fd_spectrum(immersion, sigma, cutoff):
    """Generalized eigenvalues of the finite-difference constrained hessian.

    H_aa is the second t-derivative of A_sigma along the retracted path
    pi(Phi + t w_a), H_ab the polarization of the paths along w_a +- w_b,
    on the same normal-mode basis the program uses.
    """
    fields = morse.normal_variation_basis(immersion, cutoff).fields
    base = _a_sigma_path(immersion, fields[0], sigma)(0.0)
    M = len(fields)

    def q(w):
        return _richardson_second(_a_sigma_path(immersion, w, sigma), base)

    H = np.empty((M, M))
    for a in range(M):
        H[a, a] = q(fields[a])
        for b in range(a):
            H[a, b] = H[b, a] = 0.25 * (q(fields[a] + fields[b])
                                        - q(fields[a] - fields[b]))
    return scipy.linalg.eigh(H, l2_gram(immersion, fields),
                             eigvals_only=True)


def check_against_fd(report, fd_eigs, label):
    eigs = np.sort(report.eigenvalues)
    fd_eigs = np.sort(fd_eigs)
    if eigs.shape != fd_eigs.shape:
        return [f"{label}: {len(eigs)} eigenvalues, finite differences "
                f"give {len(fd_eigs)}"]
    scale = max(1.0, float(np.max(np.abs(fd_eigs))))
    worst = float(np.max(np.abs(eigs - fd_eigs))) / scale
    if worst > FD_REL_TOL:
        return [f"{label}: eigenvalues differ from the finite-difference "
                f"hessian by {worst:.2e} relative"]
    return []


# ---------------------------------------------------------------------------
# Newton limits
# ---------------------------------------------------------------------------

def tangent_directions(immersion, seed, count=3):
    """Seeded unit-L2 variations tangent to S^3 along the immersion.

    Each is a random quadratic polynomial field of the ambient coordinates,
    taken along the immersion and projected pointwise onto the tangent
    space of S^3: smooth on either chart and built without the library's
    random fields.
    """
    rng = np.random.default_rng(seed)
    P = immersion.samples()
    Q = P.shape[1]
    out = []
    for _ in range(count):
        lin = rng.standard_normal((Q, Q))
        quad = rng.standard_normal((Q, Q, Q))
        w = P @ lin.T + np.einsum("qrs,nr,ns->nq", quad, P, P)
        w -= np.sum(w * P, axis=-1, keepdims=True) * P
        field = Variation(immersion, samples=w)
        norm = math.sqrt(l2_gram(immersion, [field])[0, 0])
        out.append(field * (1.0 / norm))
    return out


def check_newton_limit(result, sigma, fixture, seed):
    """A converged solve: first variation zero, closed-form geometry."""
    errors = []
    im = result["immersion"]
    for k, w in enumerate(tangent_directions(im, seed)):
        d = _richardson_first(_a_sigma_path(im, w, sigma))
        if abs(d) > FIRST_VARIATION_TOL:
            errors.append(f"{fixture} sigma={sigma}: first variation "
                          f"{d:.2e} along direction {k}")
    rep = energy.evaluate_energies(im, sigma)
    if fixture == "clifford":
        area, f = 2 * math.pi ** 2, 18 * math.pi ** 2
        defect = max(clifford_defect(im).values())
        if defect > CLIFFORD_DEFECT_TOL:
            errors.append(f"clifford sigma={sigma}: clifford defect "
                          f"{defect:.2e}")
    else:
        area, f = 4 * math.pi, 4 * math.pi
    for name, got, want in (("area", rep.area, area), ("F", rep.f_energy, f)):
        if abs(got - want) > LIMIT_ENERGY_RTOL * want:
            errors.append(f"{fixture} sigma={sigma}: {name} {got!r}, "
                          f"closed form {want!r}")
    return errors


# ---------------------------------------------------------------------------
# continuation outputs
# ---------------------------------------------------------------------------

def _eps_neg(eigs):
    # the library default: 1e-6 * max(1, largest |eigenvalue|)
    return 1e-6 * max(1.0, float(np.max(np.abs(eigs))))


def check_continuation(out_dir, schedule, returncode):
    """Files of a Clifford ``viscmin continue`` run against the oracle."""
    errors = []
    if returncode != 0:
        errors.append(f"viscmin continue exited with {returncode}")
    try:
        with open(os.path.join(out_dir, "stages.csv")) as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out_dir, "verdict.json")) as fh:
            verdict = json.load(fh)
        stages = []
        for k in range(len(schedule)):
            with open(os.path.join(out_dir, f"stage_{k + 1}.json")) as fh:
                stages.append(json.load(fh))
    except (OSError, ValueError) as exc:
        return errors + [f"continuation outputs unreadable: {exc}"]
    if len(rows) != len(schedule):
        return errors + [f"stages.csv has {len(rows)} rows, schedule has "
                         f"{len(schedule)}"]
    area0, f0 = 2 * math.pi ** 2, 18 * math.pi ** 2
    entropies = []
    moving = [(a, b) for a, b, _ in CLIFFORD_MODES if b]
    for sigma, row, stage in zip(schedule, rows, stages):
        if float(row["sigma"]) != sigma or stage["sigma"] != sigma:
            errors.append(f"stage sigma {row['sigma']} != schedule {sigma}")
        area, f = float(row["area"]), float(row["f"])
        if abs(area - area0) > ENERGY_RTOL * area0 or \
                abs(f - f0) > ENERGY_RTOL * f0:
            errors.append(f"stage sigma={sigma}: area {area!r}, F {f!r}")
        entropy = sigma ** 2 * f * math.log(1.0 / sigma)
        if abs(float(row["entropy_product"]) - entropy) > 1e-12 * entropy:
            errors.append(f"stage sigma={sigma}: entropy product "
                          f"{row['entropy_product']} != {entropy!r}")
        entropies.append(entropy)
        eigs = np.asarray(stage["eigenvalues"], dtype=float)
        eps = _eps_neg(eigs)
        pred = clifford_predicted(sigma)
        if not _contains(eigs, pred):
            errors.append(f"stage sigma={sigma}: eigenvalues miss oracle "
                          f"{pred.tolist()}")
        index = int(np.sum(pred < -eps))
        if int(row["index"]) != index or stage["index"] != index:
            errors.append(f"stage sigma={sigma}: index {row['index']}, "
                          f"oracle {index}")
        margin = min(abs(a + sigma ** 2 * b) for a, b in moving) / eps
        if margin <= 10.0:
            errors.append(f"stage sigma={sigma}: an oracle eigenvalue lies "
                          f"within 10 eps_neg of zero")
    if any(b >= a for a, b in zip(entropies, entropies[1:])):
        errors.append(f"entropy products {entropies} do not decrease")
    limit = verdict.get("limit_spectrum", {})
    pred = clifford_predicted(0.0)
    if not _contains(limit.get("eigenvalues", []), pred):
        errors.append(f"limit eigenvalues miss oracle {pred.tolist()}")
    if (limit.get("index"), limit.get("nullity")) != (5, 4):
        errors.append(f"limit index/nullity {limit.get('index')}/"
                      f"{limit.get('nullity')}, oracle 5/4")
    if verdict.get("pass") is not True:
        errors.append("verdict.json does not pass")
    return errors
