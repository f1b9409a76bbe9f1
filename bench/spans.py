"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every namespace where a
caller looks it up (``continuation`` imports ``jacobi_spectrum`` by name,
``morse`` looks up ``energy.batched_quadratic`` on the module, and so on)
and ``Tracer.uninstall`` puts the originals back.  Each call records one
span: name, start, end, parent span, and a few counts taken from its
arguments or result.  Spans stay in memory until ``write``.  Nothing under
``src/`` changes.
"""

import json
import os
import statistics
import time

from viscmin import cli, continuation, energy, io, morse, surface
from viscmin.fourier import FourierBasis
from viscmin.sphharm import SphHarmBasis


def _batch(args, kwargs, result):
    W = args[1]
    return {"B": W.shape[0] if W.ndim == 3 else 1, "N": W.shape[-2]}


def _basis_size(args, kwargs, result):
    return {"M": len(args[1]), "immersion": args[0]}


def _newton(args, kwargs, result):
    return {"iterations": result["iterations"],
            "converged": result["converged"]}


def _file_size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (owner, attribute) pairs, and the function that reads the
# span's counts; a function reached from several namespaces gets one wrapper
TRACED = {
    "fourier.fit": ([(FourierBasis, "fit")], None),
    "fourier.evaluate": ([(FourierBasis, "evaluate"),
                          (FourierBasis, "evaluate_at")], None),
    "sphharm.init": ([(SphHarmBasis, "__init__")], None),
    "sphharm.fit": ([(SphHarmBasis, "fit")], None),
    "sphharm.evaluate": ([(SphHarmBasis, "evaluate")], None),
    "sphharm.evaluate_at": ([(SphHarmBasis, "evaluate_at")], None),
    "surface.geometry": ([(surface.GeometryData, "__init__")], None),
    "surface.from_samples": ([(surface.SampledImmersion, "from_samples")],
                             None),
    "surface.synthesis": ([(surface.SampledImmersion, "derivatives"),
                           (surface.Variation, "derivatives")], None),
    "energy.jet_pass": ([(energy, "batched_quadratic")], _batch),
    "energy.linear": ([(energy, "batched_linear")], _batch),
    "energy.energies": ([(energy, "evaluate_energies"),
                         (continuation, "evaluate_energies")], None),
    "morse.jacobi_spectrum": ([(morse, "jacobi_spectrum"),
                               (continuation, "jacobi_spectrum")], None),
    "morse.assemble": ([(morse, "assemble_hessian")], _basis_size),
    "morse.basis_build": ([(morse, "normal_variation_basis"),
                           (continuation, "normal_variation_basis")], None),
    "morse.eigensolve": ([(morse, "spectrum_index")], None),
    "morse.diagonal": ([(morse, "hessian_diagonal"),
                        (continuation, "hessian_diagonal")], _basis_size),
    "continuation.newton": ([(continuation, "solve_critical_point")],
                            _newton),
    "continuation.run": ([(continuation, "run_continuation")], None),
    "io.write": ([(io, "write_json"), (io, "write_csv")], _file_size),
    "cli.main": ([(cli, "main")], None),
}


class Tracer:
    """In-memory spans of the traced calls, with a pause switch."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, counts or None]
        self.spans = []
        self.active = True
        self.bookkeeping_s = 0.0
        self._stack = []
        self._originals = []

    def _wrap(self, name, fn, counts):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            tracer.bookkeeping_s += (span[1] - entered
                                     + time.perf_counter() - span[2])
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        wrappers = {}
        for name, (targets, counts) in TRACED.items():
            for owner, attr in targets:
                raw = vars(owner)[attr]
                if id(raw) not in wrappers:
                    if isinstance(raw, classmethod):
                        wrappers[id(raw)] = classmethod(
                            self._wrap(name, raw.__func__, counts))
                    else:
                        wrappers[id(raw)] = self._wrap(name, raw, counts)
                self._originals.append((owner, attr, raw))
                setattr(owner, attr, wrappers[id(raw)])

    def uninstall(self):
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals = []

    def write(self, path, extra):
        """Write the spans (and the run's metadata) as one JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 **{k: v for k, v in (s[4] or {}).items()
                    if k != "immersion"}} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({**extra, "spans": rows}, fh)


def _self_times(spans):
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    return self_s


def _stage_times(spans):
    """Per-stage wall times inside run_continuation: from each Newton solve
    to the end of the stage spectrum that follows it."""
    out = []
    for i, s in enumerate(spans):
        if s[0] != "continuation.run":
            continue
        start = None
        for child in spans[i + 1:]:
            if child[1] > s[2]:
                break
            if child[3] != i:
                continue
            if child[0] == "continuation.newton":
                start = child[1]
            elif child[0] == "morse.jacobi_spectrum" and start is not None:
                out.append(child[2] - start)
                start = None
    return out


def _under(spans, i, name):
    """Whether span i has an ancestor called name."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(tracer):
    """Per-layer metrics: self times by layer, plus the layer counts."""
    spans = tracer.spans
    self_s = _self_times(spans)
    time_by = {}
    calls_by = {}
    for s, t in zip(spans, self_s):
        time_by[s[0]] = time_by.get(s[0], 0.0) + t
        calls_by[s[0]] = calls_by.get(s[0], 0) + 1

    def t(name):
        return time_by.get(name, 0.0)

    def n(name):
        return calls_by.get(name, 0)

    def total(name, key):
        return sum(s[4][key] for s in spans if s[0] == name)

    jet_node_evals = sum(s[4]["B"] * s[4]["N"] for s in spans
                         if s[0] == "energy.jet_pass")
    entries = sum(s[4]["M"] * (s[4]["M"] + 1) // 2 for s in spans
                  if s[0] == "morse.assemble")
    assembly_directions = sum(s[4]["B"] for i, s in enumerate(spans)
                              if s[0] == "energy.jet_pass"
                              and _under(spans, i, "morse.assemble"))
    immersions = {id(s[4]["immersion"]) for s in spans
                  if s[0] == "morse.assemble"}
    newton = [s[4] for s in spans if s[0] == "continuation.newton"]
    stages = _stage_times(spans)
    dispatch = sum((s[2] - s[1] for s in spans if s[0] == "cli.main"), 0.0)
    return {
        "fourier.fit_s": (t("fourier.fit"), "s"),
        "fourier.evaluate_s": (t("fourier.evaluate"), "s"),
        "fourier.calls": (n("fourier.fit") + n("fourier.evaluate"), "count"),
        "sphharm.basis_build_s": (t("sphharm.init"), "s"),
        "sphharm.evaluate_at_s": (t("sphharm.evaluate_at"), "s"),
        "sphharm.evaluate_at_calls": (n("sphharm.evaluate_at"), "count"),
        "sphharm.fit_s": (t("sphharm.fit"), "s"),
        "sphharm.evaluate_s": (t("sphharm.evaluate"), "s"),
        "surface.geometry_s": (t("surface.geometry"), "s"),
        "surface.geometry_calls": (n("surface.geometry"), "count"),
        "surface.from_samples_s": (t("surface.from_samples"), "s"),
        "surface.from_samples_calls": (n("surface.from_samples"), "count"),
        "surface.synthesis_s": (t("surface.synthesis"), "s"),
        "energy.jet_pass_s": (t("energy.jet_pass"), "s"),
        "energy.jet_pass_calls": (n("energy.jet_pass"), "count"),
        "energy.jet_directions": (total("energy.jet_pass", "B"), "count"),
        "energy.jet_node_evals": (jet_node_evals, "count"),
        "energy.jet_us_per_node_direction": (
            1e6 * t("energy.jet_pass") / jet_node_evals
            if jet_node_evals else 0.0, "us"),
        "energy.linear_s": (t("energy.linear"), "s"),
        "energy.linear_directions": (total("energy.linear", "B"), "count"),
        "energy.energies_s": (t("energy.energies"), "s"),
        "morse.assemble_s": (t("morse.assemble"), "s"),
        "morse.assemble_calls": (n("morse.assemble"), "count"),
        "morse.hessian_entries": (entries, "count"),
        "morse.directions_per_entry": (
            assembly_directions / entries if entries else 0.0, "ratio"),
        "morse.basis_build_s": (t("morse.basis_build"), "s"),
        "morse.eigensolve_s": (t("morse.eigensolve"), "s"),
        "morse.diagonal_s": (t("morse.diagonal"), "s"),
        "morse.diagonal_calls": (n("morse.diagonal"), "count"),
        "continuation.newton_solves": (len(newton), "count"),
        "continuation.newton_iterations": (
            sum(s["iterations"] for s in newton), "count"),
        "continuation.newton_unconverged": (
            sum(not s["converged"] for s in newton), "count"),
        "continuation.assemblies_per_immersion": (
            n("morse.assemble") / len(immersions) if immersions else 0.0,
            "ratio"),
        "continuation.stage_s": (
            statistics.median(stages) if stages else 0.0, "s"),
        "io.write_s": (t("io.write"), "s"),
        "io.bytes_written": (total("io.write", "bytes"), "bytes"),
        "io.files_written": (n("io.write"), "count"),
        "cli.dispatch_s": (dispatch, "s"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_s": (tracer.bookkeeping_s, "s"),
    }
