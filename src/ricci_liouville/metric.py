"""Closed-form family of special Liouville metrics lambda(u)^2 (du^2 + dv^2).

The conformal factor solves

    lambda'^2 = -c1 + c2 lambda^2 + 2 b^2 lambda^4,   c1 > 0, b > 0,

whose bounded-below solution branch is lambda(u) = sqrt(lambda_plus) / cn(s u, k)
with s = (c2^2 + 8 b^2 c1)^(1/4) and the modulus fixed by the same constants.
The Gaussian curvature of these metrics satisfies
lambda^4 (-2 b^2 - K) = c1, hence K < -2 b^2 everywhere.

The metric lives on the open interval |u| < u_max = K(k)/s centred at the
minimum of lambda.  Every evaluation at ``u``, here and in pmc, passes one
domain check that keeps |u| below u_max by DEFAULT_EPS_DOM and raises
DomainError, a ParameterError, otherwise.  All functions are pure and
accept scalar or ndarray ``u``.  NumPy is imported inside the functions
that evaluate at ``u``, so MetricParams and derive_constants load without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .elliptic import Modulus, complete_elliptic_k, jacobi_am, jacobi_sn_cn_dn
from .errors import DomainError, ParameterError

__all__ = [
    "MetricParams",
    "DerivedConstants",
    "derive_constants",
    "conformal_factor",
    "conformal_factor_derivatives",
    "gaussian_curvature",
    "theta",
    "ode_residual",
]

DEFAULT_EPS_DOM = 1e-9


@dataclass(frozen=True)
class MetricParams:
    """Generating triple (b, c1, c2) of one metric of the family.

    b is half the mean curvature norm of the associated immersions
    (|H| = 2b), c1 and c2 are the integration constants of the conformal
    factor ODE.  Requires b > 0 and c1 > 0.
    """

    b: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("b", "c1", "c2"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise ParameterError(f"{name} must be finite, got {val!r}")
            object.__setattr__(self, name, val)
        if self.b <= 0.0:
            raise ParameterError("b must be positive")
        if self.c1 <= 0.0:
            raise ParameterError("c1 must be positive")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from MetricParams.

    disc        = c2^2 + 8 b^2 c1              (positive discriminant)
    s           = disc^(1/4)                   (argument scaling)
    k           = modulus, k^2 = (c2 + sqrt(disc)) / (2 sqrt(disc))
    lambda_plus  = (-c2 + sqrt(disc)) / (4 b^2) > 0
    lambda_minus = (-c2 - sqrt(disc)) / (4 b^2) < 0
    u_max       = K(k) / s                     (half-width of the domain)
    """

    disc: float
    s: float
    k: Modulus
    lambda_plus: float
    lambda_minus: float
    u_max: float


@lru_cache(maxsize=256)
def derive_constants(p: MetricParams) -> DerivedConstants:
    """Compute the derived constants of the closed form for parameters p."""
    b2 = p.b * p.b
    disc = p.c2 * p.c2 + 8.0 * b2 * p.c1
    sqrt_disc = math.sqrt(disc)
    # b^2 and the discriminant divide below, so reject their underflow first
    if not (b2 > 0.0):
        raise ParameterError(f"b = {p.b!r} is too small: b^2 underflows to zero")
    if not (disc > 0.0):
        raise ParameterError(
            f"the discriminant c2^2 + 8 b^2 c1 underflows to zero at "
            f"b = {p.b!r}, c1 = {p.c1!r}, c2 = {p.c2!r}"
        )
    k2 = (p.c2 + sqrt_disc) / (2.0 * sqrt_disc)
    lam_p = (-p.c2 + sqrt_disc) / (4.0 * b2)
    lam_m = (-p.c2 - sqrt_disc) / (4.0 * b2)
    # written so that a NaN fails each check as well
    if not disc > p.c2 * p.c2:
        raise ParameterError("discriminant must exceed c2^2 when c1 > 0")
    if not lam_p > 0.0 > lam_m:
        raise ParameterError("root ordering lambda_plus > 0 > lambda_minus")
    if not 0.0 < k2 < 1.0:
        raise ParameterError("modulus squared must lie strictly inside (0, 1)")
    # factorization 2 b^2 (t - lambda_plus)(t - lambda_minus) = 2 b^2 t^2 + c2 t - c1
    for t in (0.0, 1.0, lam_p):
        lhs = 2.0 * b2 * (t - lam_p) * (t - lam_m)
        rhs = 2.0 * b2 * t * t + p.c2 * t - p.c1
        scale = max(1.0, abs(lhs), abs(rhs))
        if not abs(lhs - rhs) <= 1e-10 * scale:
            raise ParameterError("quartic factorization failed")
    k = Modulus(math.sqrt(k2))
    s = disc**0.25
    u_max = complete_elliptic_k(k) / s
    return DerivedConstants(
        disc=disc, s=s, k=k, lambda_plus=lam_p, lambda_minus=lam_m, u_max=u_max
    )


def _scaled_argument(p: MetricParams, u):
    """Derived constants and s u, after the domain check (_domain_rows, one row).

    Inside the domain |s u| < K(k): am(s u, k) needs no half-period shift,
    and sn = sin am, cn = cos am.
    """
    import numpy as np

    dc = derive_constants(p)
    u = np.asarray(u, dtype=float)
    exc = _domain_rows([dc], u)[0]
    if exc is not None:
        raise exc
    return dc, dc.s * u


def _domain_rows(constants, u):
    """The domain check of the nodes ``u`` (any shape) for one row per DerivedConstants.

    Returns one entry per row: None when every node lies inside that row's
    domain, else the DomainError at the farthest node outside it (NaN
    fails the comparison, so it is rejected with the boundary).  Every
    closed-form evaluation runs this check.
    """
    import numpy as np

    absu = np.abs(np.asarray(u, dtype=float)).ravel()
    u_max = np.array([dc.u_max for dc in constants])
    outside = ~(absu < (u_max - DEFAULT_EPS_DOM)[:, None])
    if not outside.any():
        return [None] * len(constants)
    worst = np.max(np.where(outside, absu, -np.inf), axis=1, initial=-np.inf)
    return [
        DomainError(
            f"|u| = {w:.17g} is NaN or not inside the metric domain "
            f"|u| < u_max - {DEFAULT_EPS_DOM:g} with u_max = {dc.u_max:.17g}, "
            f"where cn(s u, k) vanishes and the conformal factor has a pole"
        )
        if out
        else None
        for dc, w, out in zip(constants, worst.tolist(), outside.any(axis=1).tolist())
    ]


def _factor_rows(constants, u):
    """lambda at the shared nodes ``u`` (1-d) for one row per DerivedConstants.

    Every row must have passed _domain_rows.  One Jacobi call with one
    modulus per row gives the (rows, len(u)) array, each row bit-identical
    to conformal_factor of its own triple.
    """
    import numpy as np

    s = np.array([dc.s for dc in constants])[:, None]
    root = np.sqrt(np.array([dc.lambda_plus for dc in constants]))[:, None]
    _, cn, _ = jacobi_sn_cn_dn(s * u, [dc.k for dc in constants])
    return root / cn


def _sn_cn_dn(p: MetricParams, u):
    """Derived constants and (sn, cn, dn)(s u, k) for u inside the metric domain."""
    dc, su = _scaled_argument(p, u)
    return (dc, *jacobi_sn_cn_dn(su, dc.k))


def conformal_factor(p: MetricParams, u):
    """Conformal factor lambda(u) = sqrt(lambda_plus) / cn(s u, k).

    Even in u, minimal at u = 0 with lambda(0) = sqrt(lambda_plus), and
    increasing towards +inf at the domain boundary.
    """
    dc, _, cn, _ = _sn_cn_dn(p, u)
    return math.sqrt(dc.lambda_plus) / cn


def conformal_factor_derivatives(p: MetricParams, u):
    """Return (lambda, lambda', lambda'') at u.

    lambda'  = sqrt(lambda_plus) s sn(s u) dn(s u) / cn(s u)^2,
    lambda'' = c2 lambda + 4 b^2 lambda^3  (from differentiating the ODE,
    exact wherever the first integral holds, removable at u = 0).
    """
    dc, sn, cn, dn = _sn_cn_dn(p, u)
    root = math.sqrt(dc.lambda_plus)
    lam = root / cn
    dlam = root * dc.s * sn * dn / (cn * cn)
    d2lam = p.c2 * lam + 4.0 * p.b * p.b * lam**3
    return lam, dlam, d2lam


def gaussian_curvature(p: MetricParams, u):
    """Gaussian curvature K(u) = -2 b^2 - c1 / lambda(u)^4.

    Strictly below -2 b^2 everywhere, even in u, and approaching -2 b^2 as
    |u| -> u_max.
    """
    curv = _curvature_from_factor(p.b, p.c1, conformal_factor(p, u))
    return float(curv) if curv.ndim == 0 else curv


def _curvature_from_factor(b, c1, lam):
    """K = -2 b^2 - c1 / lambda^4 from conformal-factor samples (an array).

    b and c1 are floats, or columns with one entry per row of ``lam``.
    """
    import numpy as np

    lam = np.asarray(lam, dtype=float)
    return -2.0 * b * b - c1 / lam**4


def theta(p: MetricParams, u):
    """Amplitude angle theta(u) = am(s u, k), odd in u.

    Satisfies cos(theta) = sqrt(lambda_plus) / lambda(u) and
    theta'^2 = sqrt(disc) - ((c2 + sqrt(disc))/2) sin^2 theta.
    """
    dc, su = _scaled_argument(p, u)
    return jacobi_am(su, dc.k)


def ode_residual(p: MetricParams, u):
    """Residual lambda'^2 - (-c1 + c2 lambda^2 + 2 b^2 lambda^4).

    Vanishes identically for the closed form; the numerical value stays
    below 1e-9 * max(1, lambda^4) across the domain.
    """
    import numpy as np

    lam, dlam, _ = conformal_factor_derivatives(p, u)
    lam = np.asarray(lam, dtype=float)
    dlam = np.asarray(dlam, dtype=float)
    res = dlam**2 - (-p.c1 + p.c2 * lam**2 + 2.0 * p.b * p.b * lam**4)
    return float(res) if res.ndim == 0 else res
