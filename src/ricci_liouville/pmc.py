"""Parameter subfamily realized by parallel mean curvature immersions.

Fixing 6 b^2 = 1 (so |H| = 2 b = 2/sqrt(6)) and coupling the integration
constants by c2 = c1/6 - 2 for 0 < c1 < 3/2 (low branch) or
c2 = 2 - c1/6 for c1 > 3/2 (high branch) singles out the metrics that are
induced by immersions into the complex hyperbolic plane of holomorphic
sectional curvature -2 with parallel mean curvature vector.  The ambient
curvature constant is hardwired to rho = -3 b^2 = -1/2 throughout.

On the low branch the derived constants simplify to k^2 = c1/(c1 + 12)
and lambda_plus = 6, and the amplitude obeys
theta'^2 = 2 + c1/6 - (c1/6) sin^2(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .fileio import json_text
from .metric import MetricParams, _curvature_from_factor, _scaled_argument, _sn_cn_dn
from .verify import _residual_column, residual_floor

__all__ = [
    "PMC_B",
    "PMC_RHO",
    "SubfamilyBranch",
    "PmcReport",
    "subfamily_params",
    "amplitude_equation_check",
    "kaehler_angle",
    "second_fundamental_norm",
    "pmc_report",
]

PMC_B = 1.0 / math.sqrt(6.0)
PMC_RHO = -0.5  # -3 b^2 under 6 b^2 = 1


@dataclass(frozen=True)
class SubfamilyBranch:
    """Choice of c1 > 0, c1 != 3/2, selecting the low or high coupling."""

    c1: float

    def __post_init__(self):
        c1 = float(self.c1)
        if not math.isfinite(c1) or c1 <= 0.0:
            raise ParameterError("c1 must be positive")
        if c1 == 1.5:
            raise ParameterError("c1 = 3/2 separates the branches and is rejected")
        object.__setattr__(self, "c1", c1)

    @property
    def branch(self) -> str:
        return "low" if self.c1 < 1.5 else "high"


@dataclass(frozen=True)
class PmcReport:
    """Aggregated constants and sampled ranges for one subfamily member."""

    params: MetricParams
    branch: str
    k_squared: float
    lambda_plus: float
    H_norm: float
    K_range: tuple
    alpha_range: tuple
    c_norm_range: tuple
    ricci_max_residual: float
    verdict: str

    def to_json(self) -> str:
        return json_text({
            "c1": self.params.c1,
            "branch": self.branch,
            "b": self.params.b,
            "c2": self.params.c2,
            "k2": self.k_squared,
            "lambda_plus": self.lambda_plus,
            "H_norm": self.H_norm,
            "K_min": self.K_range[0],
            "K_max": self.K_range[1],
            "alpha_min": self.alpha_range[0],
            "alpha_max": self.alpha_range[1],
            "c_norm_min": self.c_norm_range[0],
            "c_norm_max": self.c_norm_range[1],
            "ricci_max_residual": (
                None if math.isnan(self.ricci_max_residual) else self.ricci_max_residual
            ),
            "verdict": self.verdict,
        })


def subfamily_params(s: SubfamilyBranch) -> MetricParams:
    """Metric parameters (b = 1/sqrt(6), c1, c2) of the branch member."""
    if s.branch == "low":
        c2 = s.c1 / 6.0 - 2.0
    else:
        c2 = 2.0 - s.c1 / 6.0
    return MetricParams(b=PMC_B, c1=s.c1, c2=c2)


def amplitude_equation_check(s: SubfamilyBranch, u):
    """Residual of the branch amplitude equation at u.

    Low branch: theta'^2 - (2 + c1/6 - (c1/6) sin^2 theta), with
    theta' = s dn(s u, k).  High branch: the same specialization evaluated
    through the derived constants, theta'^2 - (sqrt(disc)
    - ((c2 + sqrt(disc))/2) sin^2 theta).  One Jacobi call gives both,
    with sin theta = sn(s u, k).
    """
    p = subfamily_params(s)
    dc, sn, _, dn = _sn_cn_dn(p, u)
    dtheta2 = (dc.s * np.asarray(dn)) ** 2
    sin2 = np.asarray(sn) ** 2
    if s.branch == "low":
        rhs = 2.0 + s.c1 / 6.0 - (s.c1 / 6.0) * sin2
    else:
        sqrt_disc = math.sqrt(dc.disc)
        rhs = sqrt_disc - 0.5 * (p.c2 + sqrt_disc) * sin2
    res = dtheta2 - rhs
    return float(res) if np.ndim(res) == 0 else res


def kaehler_angle(s: SubfamilyBranch, u):
    """Kaehler angle alpha(u) in (0, pi) with 3 cos(alpha) = -sin(theta(u)).

    Defined on the low branch, with sin theta = sn(s u, k).  |cos alpha|
    <= 1/3, so sin(alpha) >= sqrt(8)/3 > 0 along the whole metric domain.
    """
    if s.branch != "low":
        raise ParameterError("Kaehler angle relation is stated on the low branch")
    _, sn, _, _ = _sn_cn_dn(subfamily_params(s), u)
    alpha = np.arccos(-np.asarray(sn) / 3.0)
    return float(alpha) if alpha.ndim == 0 else alpha


def second_fundamental_norm(K, b: float):
    """Norm |c| of the trace-free second fundamental form at curvature K.

    |c|^2 = (4 b^2 + 2 rho - K)/4 with rho = -3 b^2, i.e.
    |c| = sqrt((-2 b^2 - K)/4).  Requires K <= -2 b^2; for family metrics
    this equals sqrt(c1) / (2 lambda^2).
    """
    K = np.asarray(K, dtype=float)
    w = -2.0 * b * b - K
    if np.any(w < 0.0):
        raise DomainError("K > -2 b^2: curvature bound of the family violated")
    out = np.sqrt(w / 4.0)
    return float(out) if out.ndim == 0 else out


def pmc_report(s: SubfamilyBranch, u_interval, n: int) -> PmcReport:
    """Sampled report over a u-interval for one subfamily member.

    Collects the derived constants, the curvature / Kaehler angle /
    second-fundamental-form ranges on n samples, and the max Ricci
    residual of the sampled column at the sample spacing.  The verdict
    states whether the sampled data is consistent with the hypotheses
    (curvature strictly below -1/3 and residual below residual_floor).

    One Jacobi evaluation per sample gives everything: lambda =
    sqrt(lambda_plus) / cn, K from lambda, and alpha = arccos(-sn / 3).
    The interval ends pass the metric's domain check before the samples
    are allocated.
    """
    p = subfamily_params(s)
    u_lo, u_hi = float(u_interval[0]), float(u_interval[1])
    if u_lo > u_hi:
        raise ParameterError("interval must satisfy u_lo <= u_hi")
    if n < 1:
        raise ParameterError("need at least one sample")
    _scaled_argument(p, (u_lo, u_hi))
    u = np.linspace(u_lo, u_hi, n) if n > 1 else np.asarray([u_lo])
    dc, sn, cn, _ = _sn_cn_dn(p, u)
    lam = math.sqrt(dc.lambda_plus) / cn
    curv = _curvature_from_factor(p.b, p.c1, lam)
    alpha = np.arccos(-sn / 3.0)
    c_norm = second_fundamental_norm(curv, p.b)

    residual = math.nan
    h = (u_hi - u_lo) / (n - 1) if n > 1 else math.nan
    if n >= 5 and u_hi > u_lo:
        residual = float(np.max(np.abs(_residual_column(lam, curv, p.b, h))))

    curvature_ok = bool(np.all(curv < -1.0 / 3.0))
    residual_ok = not math.isnan(residual) and residual < residual_floor(h)
    if curvature_ok and residual_ok:
        verdict = "hypotheses satisfied at sampled resolution"
    elif curvature_ok and math.isnan(residual):
        verdict = "curvature bound holds; interval too small for the residual stencil"
    else:
        verdict = "hypotheses violated at sampled resolution"

    return PmcReport(
        params=p,
        branch=s.branch,
        k_squared=dc.k.k2,
        lambda_plus=dc.lambda_plus,
        H_norm=2.0 * p.b,
        K_range=(float(np.min(curv)), float(np.max(curv))),
        alpha_range=(float(np.min(alpha)), float(np.max(alpha))),
        c_norm_range=(float(np.min(c_norm)), float(np.max(c_norm))),
        ricci_max_residual=residual,
        verdict=verdict,
    )
