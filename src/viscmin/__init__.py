"""Relaxed area functionals on immersed surfaces.

Spectral immersions of tori and spheres into round spheres or flat
space, with exact first and second variations of Area and of the
curvature energy F = integral (1 + |II|^2)^2 dvol, Coulomb-slice gauge
machinery on the torus, constrained hessian spectra with index counts,
and a vanishing-viscosity continuation driver for A^sigma = Area +
sigma^2 F.
"""

__version__ = "0.1.0"

import importlib

# the submodules load on first use of one of their names, so importing the
# package loads no numpy: viscmin.cli (run as python -m viscmin.cli or
# through the viscmin entry point) pins the BLAS threads before numpy
# loads.  Library users keep their own BLAS settings.
_EXPORTS = {
    "ambient": ("AmbientManifold", "Euclidean", "UnitSphere"),
    "continuation": ("ContinuationConfig", "CutoffSpec", "StageRecord",
                     "clifford_defect", "cutoff_transfer", "cutoff_values",
                     "default_schedule", "entropy_product",
                     "hessian_convergence_probe", "run_continuation",
                     "semicontinuity_verdict", "solve_critical_point",
                     "transport_variation", "w12_norm"),
    "energy": ("EnergyReport", "evaluate_energies", "first_variation",
               "second_variation_ambient", "second_variation_constrained"),
    "errors": ("ViscminError",),
    "fourier": ("FourierBasis",),
    "gauge": ("GaugeDecomposition", "coulomb_operator", "coupling_residual",
              "dbar_solve", "gauge_decompose", "slice_retract",
              "symbol_check"),
    "morse": ("SpectrumReport", "VariationBasis", "assemble_hessian",
              "jacobi_spectrum", "normal_variation_basis",
              "reparametrization_basis", "spectrum_index"),
    "sphharm": ("SphHarmBasis",),
    "surface": ("SampledImmersion", "SurfaceTopology", "Variation",
                "gauss_bonnet_defect", "make_preset", "preset_names",
                "random_variation"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                    name)
    globals()[name] = value
    return value
