"""Special Liouville metrics with a Ricci-type curvature condition.

Construction of the two-parameter family of conformal factors
lambda(u) = sqrt(lambda_plus) / cn(s u, k) from Jacobi elliptic functions,
finite-difference certification of the curvature condition
Delta log sqrt(-2 b^2 - K) = 2 K, the surface-of-revolution realization,
and the parameter subfamily induced by parallel mean curvature immersions
into the complex hyperbolic plane.

The public names are those of the submodules' __all__, plus __version__;
each submodule's list is the only declaration.  The submodules load on the
first access to a public name or to __all__, so that a command which needs
only the scalar core starts without NumPy.
"""

__version__ = "0.1.0"

_SUBMODULES = ("elliptic", "errors", "metric", "pmc", "revolution", "verify")


def __getattr__(name):
    """Bind __all__ and every public name on the first access to one (PEP 562)."""
    names = globals()
    # a private or dunder probe, or any miss once the names are bound, loads nothing
    if "__all__" not in names and (name == "__all__" or not name.startswith("_")):
        import importlib

        modules = [importlib.import_module(f"{__name__}.{sub}") for sub in _SUBMODULES]
        public = [(attr, getattr(module, attr)) for module in modules for attr in module.__all__]
        names.update(public)
        names["__all__"] = ["__version__", *(attr for attr, _ in public)]
    if name in names:
        return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
