"""Command line interface.

Subcommands map one-to-one onto library operations; every run reads JSON
inputs, writes JSON/CSV outputs with %.17g floats, and is byte-identical
across reruns with the same config and seed.  Exit codes: 0 success,
1 error, 2 validation failure or a failed semicontinuity verdict.
"""

import os
import sys

# pin BLAS before numpy first loads so eigensolves are single-threaded
# and bit-stable (library users importing viscmin directly are
# unaffected).  No pass starts a thread of its own, so with BLAS pinned no
# output depends on the CPU count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import inspect
from collections import namedtuple

import numpy as np

from . import continuation, energy, gauge, io, morse, surface
from .errors import (ConfigError, OutOfRange, ParseError, ResolutionTooLow,
                     UnknownKey, ViscminError)

_REQUIRED = object()


def _float_pos(field):
    return lambda v: continuation._positive(field, v)


def _float_nonneg(field):
    def cast(v):
        x = float(v)
        if not 0.0 <= x < np.inf:
            raise OutOfRange(field, f"must be finite and >= 0, got {x}")
        return x
    return cast


def _int_pos(field):
    return lambda v: continuation._at_least(field, v, 1)


def _centers(field):
    def cast(v):
        if isinstance(v, str):
            try:
                pairs = [tuple(float(x) for x in part.split(","))
                         for part in v.split(";") if part]
            except ValueError:
                raise ParseError(field, f"cannot parse centers from {v!r}")
        else:
            pairs = [tuple(float(x) for x in p) for p in v]
        if not pairs or any(len(p) != 2 for p in pairs):
            raise ParseError(field, "each center needs exactly two "
                                    "chart coordinates")
        return pairs
    return cast


_GLOBAL_KEYS = {"command", "seed"}


class RunConfig:
    """Validated command name plus normalized parameters."""

    def __init__(self, command, params):
        self.command = command
        self.params = params

    def __getitem__(self, key):
        return self.params[key]

    def get(self, key, default=None):
        return self.params.get(key, default)

    def __repr__(self):
        return f"RunConfig({self.command!r}, {self.params!r})"


def _cast(key, caster, value):
    """caster(value); a value it cannot parse is a ParseError on key."""
    try:
        return caster(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(key, f"cannot parse {key}={value!r}: {exc}")


def validate_config(raw):
    """Normalize a raw config dict against the _COMMANDS table; reject
    unknown keys and bad values."""
    if not isinstance(raw, dict):
        raise ParseError("config", "config must be a JSON object")
    command = raw.get("command")
    if command not in _COMMANDS:
        raise UnknownKey("command", f"unknown command {command!r}; expected "
                         f"one of {', '.join(_COMMANDS)}")
    schema = _COMMANDS[command].params
    params = {}
    for key, value in raw.items():
        if key in _GLOBAL_KEYS:
            continue
        if key not in schema:
            raise UnknownKey(key, f"unknown key {key!r} for {command}")
        if value is None:
            continue
        params[key] = _cast(key, schema[key][0], value)
    for key, (_, default) in schema.items():
        if key in params:
            continue
        if default is _REQUIRED:
            raise ParseError(key, f"{command} requires {key}")
        params[key] = default
    params["seed"] = _cast("seed", int, raw.get("seed", 0))
    if command == "gauge" and params["mode"] not in ("coulomb", "decompose",
                                                     "retract"):
        raise OutOfRange("mode", "mode must be coulomb, decompose or "
                         f"retract, got {params['mode']!r}")
    return RunConfig(command, params)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _load_input(cfg):
    """Immersion from a checkpoint path, or a preset fixture by name."""
    name = cfg["input"]
    if name not in surface.preset_names():
        return io.load_immersion(name)
    try:
        return surface.make_preset(name, resolution=cfg.get("resolution", 16))
    except ResolutionTooLow as exc:
        raise OutOfRange("resolution", str(exc)) from exc


def _emit_json(path, obj):
    if path:
        io.write_json(path, obj)
    else:
        sys.stdout.write(io.dumps_json(obj))


def _emit_csv(path, header, rows):
    if path:
        io.write_csv(path, header, rows)
    else:
        sys.stdout.write(io.dumps_csv(header, rows))


def _cmd_energy(cfg):
    im = _load_input(cfg)
    report = energy.evaluate_energies(im, cfg["sigma"])
    _emit_json(cfg["output"], report.to_dict())
    return 0


def _cmd_geometry(cfg):
    im = _load_input(cfg)
    geom = im.geometry
    _emit_json(cfg["output"], {
        "area": geom.area,
        "euler_characteristic": im.topology.euler_char,
        "gauss_bonnet_defect": surface.gauss_bonnet_defect(geom, im.topology),
        "conformal_defect": geom.conformal_defect,
        "ii_norm2_max": float(np.max(geom.II_norm2)),
        "mean_curvature_sup": float(np.max(
            np.linalg.norm(geom.mean_curvature, axis=-1))),
        "gauss_curvature_range": [float(np.min(geom.gauss_curvature)),
                                  float(np.max(geom.gauss_curvature))],
        "resolution": im.resolution,
    })
    return 0


def _cmd_variation_check(cfg):
    im = _load_input(cfg)
    sigma = cfg["sigma"]
    base_seed = cfg["seed"]
    rows = []

    def record(name, fd, an):
        rel = abs(fd - an) / max(1.0, abs(an))
        rows.append((name, fd, an, rel))

    for k in range(cfg["seeds"]):
        w = surface.random_variation(im, seed=base_seed + k,
                                     amplitude=cfg["amplitude"],
                                     band=cfg["band"], tangent=True)
        fv = energy.first_variation(im, w)
        sv = energy.second_variation_ambient(im, w)
        record("d_area", energy.fd_first(
            lambda t: energy.free_path_energies(im, w, t)[0]), fv["d_area"])
        record("d_f", energy.fd_first(
            lambda t: energy.free_path_energies(im, w, t)[1]), fv["d_f"])
        record("d2_area", energy.fd_second(
            lambda t: energy.free_path_energies(im, w, t)[0]),
            sv["d2_area"])
        record("d2_f", energy.fd_second(
            lambda t: energy.free_path_energies(im, w, t)[1]), sv["d2_f"])
        if im.ambient.kind == "sphere":
            fd_c = (energy.fd_second(
                lambda t: energy.projected_path_energies(im, w, t)[0])
                + sigma ** 2 * energy.fd_second(
                    lambda t: energy.projected_path_energies(im, w, t)[1]))
            an_c = energy.second_variation_constrained(im, w, sigma=sigma)
            record("d2_asigma_constrained", fd_c, an_c)
    _emit_csv(cfg["output"],
              ["formula", "fd_value", "analytic_value", "rel_err"], rows)
    return 0


def _cmd_gauge(cfg):
    im = _load_input(cfg)
    mode = cfg["mode"]
    if mode == "retract":
        target = io.load_immersion(cfg["variation"])
        w, info = gauge.slice_retract(im, target)
        _emit_json(cfg["output"], {
            "mode": mode,
            "residual": info["residual"],
            "iterations": info["iterations"],
            "displacement_sup": info["displacement_sup"],
            "w_sup": w.sup_norm(),
            "w_samples": w.values,
        })
        return 0
    w = io.load_variation(cfg["variation"], im)
    if mode == "coulomb":
        q, mean = gauge.coulomb_operator(im, w)
        _emit_json(cfg["output"], {
            "mode": mode,
            "residual_sup": float(np.max(np.abs(q))),
            "hol_mean": complex(mean),
        })
        return 0
    dec = gauge.gauge_decompose(im, w.values)
    _emit_json(cfg["output"], {
        "mode": mode,
        "residual": dec.residual,
        "h_const": complex(dec.h_const),
        "x_sup": float(np.max(np.abs(dec.X))),
        "x_samples": dec.X,
    })
    return 0


def _cmd_spectrum(cfg):
    im = _load_input(cfg)
    report = morse.jacobi_spectrum(im, cfg["sigma"],
                                   cutoff=cfg["basis_cutoff"],
                                   eps_neg=cfg["eps_neg"],
                                   warn_critical=False)
    rows = list(enumerate(report.eigenvalues))
    _emit_csv(cfg["output"], ["k", "mu_k"], rows)
    summary = {
        "index": report.index,
        "nullity": report.nullity,
        "eps_neg": report.eps_neg,
        "noncritical_flag": bool(report.grad_norm > morse.CRITICAL_GRAD_TOL),
    }
    if cfg["summary"]:
        io.write_json(cfg["summary"], summary)
    sys.stdout.write(io.dumps_json(summary))
    return 0


def _cmd_continue(cfg):
    raw = io.read_json(cfg["config"])
    if not isinstance(raw, dict):
        raise ParseError("config", "continuation config must be an object")
    start = raw.pop("start", None)
    if cfg["input"]:
        start = cfg["input"]
    if start is None:
        raise ParseError("start", "continuation config needs a start "
                         "immersion ('start' key or --input)")
    if not isinstance(start, str):
        raise ParseError("start", f"start must be a preset name or a "
                         f"checkpoint path, got {start!r}")
    resolution = _cast("resolution", _int_pos("resolution"),
                       raw.pop("resolution", 16))
    im = _load_input({"input": start, "resolution": resolution})
    known = inspect.signature(continuation.ContinuationConfig).parameters
    bad = sorted(set(raw) - set(known))
    if bad:
        raise UnknownKey(bad[0], f"unknown continuation keys: {bad}")
    try:
        ccfg = continuation.ContinuationConfig(**raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError("config", f"cannot parse continuation config: {exc}")
    out_dir = cfg["output"]
    os.makedirs(out_dir, exist_ok=True)
    result = continuation.run_continuation(ccfg, im)
    stages = result["stages"]
    rows = []
    for k, stage in enumerate(stages):
        path = os.path.join(out_dir, f"stage_{k + 1}.json")
        stage.checkpoint = path
        payload = stage.to_dict()
        payload["immersion"] = io.immersion_checkpoint(stage.immersion)
        payload["eigenvalues"] = stage.spectrum.eigenvalues
        io.write_json(path, payload)
        rows.append((stage.sigma, stage.energies.area,
                     stage.energies.f_energy, stage.entropy_product,
                     stage.grad_norm, stage.spectrum.index,
                     stage.spectrum.nullity))
    io.write_csv(os.path.join(out_dir, "stages.csv"),
                 ["sigma", "area", "f", "entropy_product", "grad_norm",
                  "index", "nullity"], rows)
    if not stages:
        return 0
    verdict = dict(result["verdict"])
    verdict["entropy_nonincreasing"] = result["entropy_nonincreasing"]
    verdict["limsup_a_sigma"] = result["limsup_a_sigma"]
    verdict["limit_spectrum"] = result["limit_spectrum"].to_dict()
    io.write_json(os.path.join(out_dir, "verdict.json"), verdict)
    return 0 if verdict["pass"] else 2


def _cmd_transfer(cfg):
    im = _load_input(cfg)
    w = io.load_variation(cfg["variation"], im)
    spec = continuation.CutoffSpec(cfg["centers"], cfg["delta"],
                                   smoothing=cfg["smoothing"])
    out = continuation.cutoff_transfer(w, spec)
    _emit_json(cfg["output"], {
        "delta": cfg["delta"],
        "w12_error": out["w12_error"],
        "l2_error_sq": out["l2_error_sq"],
        "grad_error_sq": out["grad_error_sq"],
        "w_delta_samples": out["w_delta"].values,
    })
    return 0


# the subcommands in --help order; params maps each key to (caster,
# default), where _REQUIRED means the key must be present and None means
# optional with no default
_Command = namedtuple("_Command", "help handler params")

_COMMANDS = {
    "energy": _Command(
        "evaluate Area, F and A^sigma on an immersion", _cmd_energy, {
            "input": (str, _REQUIRED),
            "output": (str, None),
            "sigma": (_float_nonneg("sigma"), 0.0),
            "resolution": (_int_pos("resolution"), 16),
        }),
    "geometry": _Command(
        "report curvature and area invariants", _cmd_geometry, {
            "input": (str, _REQUIRED),
            "output": (str, None),
            "resolution": (_int_pos("resolution"), 16),
        }),
    "variation-check": _Command(
        "compare variation formulas with finite differences",
        _cmd_variation_check, {
            "input": (str, _REQUIRED),
            "output": (str, None),
            "sigma": (_float_nonneg("sigma"), 0.0),
            "seeds": (_int_pos("seeds"), 5),
            "amplitude": (_float_pos("amplitude"), 0.01),
            "band": (_int_pos("band"), 2),
            "resolution": (_int_pos("resolution"), 16),
        }),
    "gauge": _Command(
        "Coulomb-slice operator, decomposition or retraction", _cmd_gauge, {
            "input": (str, _REQUIRED),
            "variation": (str, _REQUIRED),
            "mode": (str, _REQUIRED),
            "output": (str, None),
            "resolution": (_int_pos("resolution"), 16),
        }),
    "spectrum": _Command(
        "constrained hessian spectrum with index counts", _cmd_spectrum, {
            "input": (str, _REQUIRED),
            "output": (str, None),
            "summary": (str, None),
            "sigma": (_float_nonneg("sigma"), 0.0),
            "basis_cutoff": (_int_pos("basis_cutoff"), 4),
            "eps_neg": (_float_pos("eps_neg"), None),
            "resolution": (_int_pos("resolution"), 16),
        }),
    "continue": _Command(
        "vanishing-viscosity continuation run", _cmd_continue, {
            "config": (str, _REQUIRED),
            "output": (str, "continuation_out"),
            "input": (str, None),
        }),
    "transfer": _Command(
        "annular cutoff transfer of a variation", _cmd_transfer, {
            "input": (str, _REQUIRED),
            "variation": (str, _REQUIRED),
            "output": (str, None),
            "delta": (_float_pos("delta"), _REQUIRED),
            "centers": (_centers("centers"), _REQUIRED),
            "smoothing": (_float_pos("smoothing"), 2.0),
            "resolution": (_int_pos("resolution"), 16),
        }),
}


def dispatch(cfg):
    """Run a validated config; returns the process exit code."""
    return _COMMANDS[cfg.command].handler(cfg)


class _Parser(argparse.ArgumentParser):
    """Raises ParseError on a malformed command line instead of exiting."""

    def error(self, message):
        raise ParseError("argv", message)


def _build_parser():
    parser = _Parser(
        prog="viscmin",
        description="Relaxed-area functionals, Coulomb gauge slices and "
                    "Morse index continuation for immersed surfaces.")
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.params:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           default=None)
        p.add_argument("--seed", dest="seed", default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            raise UnknownKey(extra[0].lstrip("-").replace("-", "_"),
                             f"unrecognized arguments: {' '.join(extra)}")
        if args.command is None:
            parser.print_help()
            return 1
        raw = {k: v for k, v in vars(args).items() if v is not None}
        return dispatch(validate_config(raw))
    except ConfigError as exc:
        sys.stderr.write(io.dumps_json({
            "error": type(exc).__name__,
            "field": exc.field,
            "message": str(exc),
        }))
        return 2
    except (ViscminError, OSError) as exc:
        sys.stderr.write(io.dumps_json({
            "error": type(exc).__name__,
            "message": str(exc),
        }))
        return 1


if __name__ == "__main__":
    sys.exit(main())
