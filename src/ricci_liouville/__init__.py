"""Special Liouville metrics with a Ricci-type curvature condition.

Construction of the two-parameter family of conformal factors
lambda(u) = sqrt(lambda_plus) / cn(s u, k) from Jacobi elliptic functions,
finite-difference certification of the curvature condition
Delta log sqrt(-2 b^2 - K) = 2 K, the surface-of-revolution realization,
and the parameter subfamily induced by parallel mean curvature immersions
into the complex hyperbolic plane.
"""

__version__ = "0.1.0"

# The submodules load on the first access to a name in __all__, so that a
# command which needs only the scalar core starts without NumPy.
_SUBMODULES = ("elliptic", "errors", "metric", "pmc", "revolution", "verify")

__all__ = [
    "__version__",
    "Modulus",
    "complete_elliptic_k",
    "incomplete_elliptic_f",
    "jacobi_am",
    "jacobi_sn_cn_dn",
    "ConvergenceError",
    "DomainError",
    "NotInFamilyError",
    "ParameterError",
    "MetricParams",
    "DerivedConstants",
    "derive_constants",
    "conformal_factor",
    "conformal_factor_derivatives",
    "gaussian_curvature",
    "theta",
    "ode_residual",
    "NormalizationFit",
    "ricci_residual_column",
    "refinement_rows",
    "estimate_order",
    "ricci_residual_1d",
    "ricci_order_1d",
    "fit_normalization",
    "residual_floor",
    "in_family_verdict",
    "grid_to_csv",
    "summary_to_json",
    "ProfileCurve",
    "RevolutionMesh",
    "embeddable_interval",
    "profile_from_metric",
    "metric_from_profile",
    "tessellate",
    "induced_metric_check",
    "angle_defect_curvature",
    "mesh_to_obj",
    "mesh_to_ply",
    "PMC_B",
    "PMC_RHO",
    "SubfamilyBranch",
    "PmcReport",
    "subfamily_params",
    "second_fundamental_norm",
    "pmc_report",
]


def __getattr__(name):
    """Load all submodules on the first access to a public name (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    names = globals()
    for sub in _SUBMODULES:
        module = importlib.import_module(f"{__name__}.{sub}")
        names.update((attr, getattr(module, attr)) for attr in module.__all__ if attr in __all__)
    return names[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
