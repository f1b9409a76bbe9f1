"""The benchmark's workloads: fixtures, timed operations and their checks.

A workload builds its fixture immersions from the seed (``setup``), then
lists the operations of one round (``ops``).  Each operation is one timed
call into the program plus a check of its output against ``oracles``;
``failed`` names the outcomes that count as failed operations.  Rounds are
whole, so every run attempts the same operations in the same proportion.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import time

from viscmin import cli, continuation, morse, surface

import oracles

RESOLUTION = 16

# sigma values around the Clifford crossings 1/sqrt(31) = 0.180 and
# 1/sqrt(39) = 0.160: index 0 above both, 4 between, 5 below
TORUS_SIGMAS = (0.25, 0.17, 0.0)
TORUS_CUTOFF = 3            # M = 49 normal modes
SPHERE_SIGMAS = (0.0, 0.17, 0.3)
SPHERE_CUTOFF = 3           # M = 16 normal modes
PERTURBED_SIGMA = 0.17
PERTURBED_TORUS_CUTOFF = 1  # M = 9
PERTURBED_SPHERE_CUTOFF = 2  # M = 9

# a prefix of the default 2^-k schedule that crosses both Clifford
# crossings, with the spectra at cutoff 2 (M = 25)
CONTINUATION_SCHEDULE = (0.5, 0.25, 0.125, 0.0625)
CONTINUATION_CUTOFF = 2
CHILD_TIMEOUT_S = 150

# Newton starts: (label, preset, preset parameters, oracle fixture).  The
# starts do not depend on the workload seed: three of the six solves stall
# in solve_critical_point on every run, and a failure that came and went
# with the seed could not be counted.  The seed picks the check directions.
NEWTON_STARTS = (
    ("clifford a=0.002", "perturbed_clifford", {"amplitude": 0.002},
     "clifford"),
    ("clifford a=0.02", "perturbed_clifford", {"amplitude": 0.02},
     "clifford"),
    ("equator a=0.02", "perturbed_equator", {}, "equator"),
)
NEWTON_PRESET_SEED = 1
NEWTON_SIGMAS = (0.5, 0.125)
NEWTON_CUTOFF = 4           # the newton_cutoff run_continuation uses


class Context:
    """What a round needs besides its fixtures."""

    def __init__(self, seed, root, workdir, traced):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.traced = traced


class Op:
    """One timed call into the program and the check of its result."""

    def __init__(self, kind, label, call, check, failed=None):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check
        self.failed = failed or (lambda result: False)


def preset_seed(seed):
    return seed % 2 ** 31


# ---------------------------------------------------------------------------
# spectrum-torus and spectrum-sphere
# ---------------------------------------------------------------------------

def _spectrum_op(label, im, sigma, cutoff, check):
    def call():
        return morse.jacobi_spectrum(im, sigma, cutoff=cutoff,
                                     warn_critical=False)
    return Op("spectrum", f"{label} sigma={sigma} cutoff={cutoff}", call,
              check)


def _fd_check(im, sigma, cutoff, label):
    def check(report):
        return oracles.check_against_fd(
            report, oracles.fd_spectrum(im, sigma, cutoff), label)
    return check


class SpectrumTorus:
    name = "spectrum-torus"

    def setup(self, seed):
        return {
            "clifford": surface.make_preset("clifford_torus", RESOLUTION),
            "perturbed": surface.make_preset(
                "perturbed_clifford", RESOLUTION, seed=preset_seed(seed)),
        }

    def ops(self, fix, ctx):
        ops = []
        for sigma in TORUS_SIGMAS:
            def check(report, sigma=sigma):
                return oracles.check_clifford_spectrum(
                    report, sigma, (2 * TORUS_CUTOFF + 1) ** 2)
            ops.append(_spectrum_op("clifford", fix["clifford"], sigma,
                                    TORUS_CUTOFF, check))
        im = fix["perturbed"]
        ops.append(_spectrum_op(
            "perturbed_clifford", im, PERTURBED_SIGMA, PERTURBED_TORUS_CUTOFF,
            _fd_check(im, PERTURBED_SIGMA, PERTURBED_TORUS_CUTOFF,
                      "perturbed_clifford")))
        return ops


class SpectrumSphere:
    name = "spectrum-sphere"

    def setup(self, seed):
        return {
            "equator": surface.make_preset("equator_s2_in_s3", RESOLUTION),
            "perturbed": surface.make_preset(
                "perturbed_equator", RESOLUTION, seed=preset_seed(seed)),
        }

    def ops(self, fix, ctx):
        ops = []
        for sigma in SPHERE_SIGMAS:
            def check(report, sigma=sigma):
                return oracles.check_equator_spectrum(report, sigma,
                                                      SPHERE_CUTOFF)
            ops.append(_spectrum_op("equator", fix["equator"], sigma,
                                    SPHERE_CUTOFF, check))
        im = fix["perturbed"]
        ops.append(_spectrum_op(
            "perturbed_equator", im, PERTURBED_SIGMA, PERTURBED_SPHERE_CUTOFF,
            _fd_check(im, PERTURBED_SIGMA, PERTURBED_SPHERE_CUTOFF,
                      "perturbed_equator")))
        return ops


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root):
    """Run one child process to its end; returns (returncode, stderr)."""
    proc = subprocess.Popen(argv, cwd=root, env=child_env(root),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    return proc.returncode, err.decode(errors="replace")


def children_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Continuation:
    name = "continuation"

    def setup(self, seed):
        return {}

    def ops(self, fix, ctx):
        config = os.path.join(ctx.workdir, "continue.json")
        out_dir = os.path.join(ctx.workdir, "continue_out")
        os.makedirs(ctx.workdir, exist_ok=True)
        with open(config, "w") as fh:
            json.dump({"start": "clifford_torus", "resolution": RESOLUTION,
                       "sigma_schedule": list(CONTINUATION_SCHEDULE),
                       "spectrum_cutoff": CONTINUATION_CUTOFF,
                       "seed": preset_seed(ctx.seed)}, fh)
        argv = ["continue", "--config", config, "--output", out_dir]
        shutil.rmtree(out_dir, ignore_errors=True)

        def call():
            # a child process cannot be traced from here, so the traced
            # run calls the same entry point in-process
            if ctx.traced:
                return cli.main(argv), ""
            return run_child([sys.executable, "-m", "viscmin.cli"] + argv,
                             ctx.root)

        def check(result):
            code, err = result
            errors = oracles.check_continuation(
                out_dir, CONTINUATION_SCHEDULE, code)
            if errors and err:
                errors.append("stderr: " + err.strip()[-500:])
            return errors

        return [Op("continue", "viscmin continue clifford 4 stages", call,
                   check)]


def cli_startup_s(root):
    """Wall time of a child process that only imports viscmin.cli."""
    t0 = time.perf_counter()
    run_child([sys.executable, "-c", "import viscmin.cli"], root)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# newton
# ---------------------------------------------------------------------------

class Newton:
    name = "newton"

    def setup(self, seed):
        return {label: surface.make_preset(preset, RESOLUTION,
                                           seed=NEWTON_PRESET_SEED, **params)
                for label, preset, params, _ in NEWTON_STARTS}

    def ops(self, fix, ctx):
        ops = []
        k = 0
        for label, _, _, fixture in NEWTON_STARTS:
            for sigma in NEWTON_SIGMAS:
                def call(im=fix[label], sigma=sigma):
                    return continuation.solve_critical_point(
                        im, sigma, cutoff=NEWTON_CUTOFF)

                def check(result, sigma=sigma, fixture=fixture,
                          direction_seed=preset_seed(ctx.seed) + k):
                    return oracles.check_newton_limit(
                        result, sigma, fixture, direction_seed)
                ops.append(Op("newton", f"{label} sigma={sigma}", call,
                              check, failed=lambda r: not r["converged"]))
                k += 1
        return ops


WORKLOADS = {w.name: w for w in (SpectrumTorus(), SpectrumSphere(),
                                 Continuation(), Newton())}
