"""Parameter subfamily realized by parallel mean curvature immersions.

Fixing 6 b^2 = 1 (so |H| = 2 b = 2/sqrt(6)) and coupling the integration
constants by c2 = c1/6 - 2 for 0 < c1 < 3/2 (low branch) or
c2 = 2 - c1/6 for c1 > 3/2 (high branch) singles out the metrics that are
induced by immersions into the complex hyperbolic plane of holomorphic
sectional curvature -2 with parallel mean curvature vector.  The ambient
curvature constant is hardwired to rho = -3 b^2 = -1/2 throughout.

On the low branch the derived constants simplify to k^2 = c1/(c1 + 12)
and lambda_plus = 6, and the amplitude obeys
theta'^2 = 2 + c1/6 - (c1/6) sin^2(theta).  pmc_report samples one member
and is the module's one path to the sampled quantities: curvature, the
Kaehler angle alpha with 3 cos(alpha) = -sin(theta), the norm of the
trace-free second fundamental form and the Ricci residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .metric import MetricParams, _curvature_from_factor, _scaled_argument, _sn_cn_dn
from .verify import _curvature_gap, _stencil_spacing_ok, residual_floor, ricci_residual_column

__all__ = [
    "PMC_B",
    "PMC_RHO",
    "SubfamilyBranch",
    "subfamily_params",
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


def subfamily_params(s: SubfamilyBranch) -> MetricParams:
    """Metric parameters (b = 1/sqrt(6), c1, c2) of the branch member."""
    if s.branch == "low":
        c2 = s.c1 / 6.0 - 2.0
    else:
        c2 = 2.0 - s.c1 / 6.0
    return MetricParams(b=PMC_B, c1=s.c1, c2=c2)


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


def pmc_report(s: SubfamilyBranch, u_interval, n: int) -> dict:
    """The pmc_report.json payload for one subfamily member, as a dict.

    Holds the member's constants, the min and max of the curvature K, the
    Kaehler angle alpha and the second-fundamental-form norm c on n
    samples, the max Ricci residual of the sampled column at the sample
    spacing, and a verdict: whether the sampled data is consistent with
    the hypotheses (curvature strictly below -2 b^2 = -1/3, the bound the
    residual kernel needs, and residual below residual_floor).  The
    curvature bound is judged first: where it fails the residual is not
    formed and the verdict is "violated".  Where it holds but there are
    fewer than 5 samples, or the spacing squared is not a normal float
    (verify's one spacing rule), the residual is not formed either and
    the verdict says the interval is too small for the residual stencil.
    ricci_max_residual is None wherever no residual is formed.

    One Jacobi evaluation per sample gives everything: lambda =
    sqrt(lambda_plus) / cn, K from lambda, and alpha = arccos(-sn / 3) in
    (0, pi), with sin theta = sn inside the metric domain.
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

    curvature_ok = not _curvature_gap(curv, p.b)[1]
    residual = math.nan
    h = (u_hi - u_lo) / (n - 1) if n > 1 else 0.0
    if curvature_ok and n >= 5 and _stencil_spacing_ok(h):
        residual = float(np.max(np.abs(ricci_residual_column(lam, curv, p.b, h))))
    if curvature_ok and math.isnan(residual):  # too few samples, or too fine a spacing
        verdict = "curvature bound holds; interval too small for the residual stencil"
    elif curvature_ok and residual < residual_floor(h):
        verdict = "hypotheses satisfied at sampled resolution"
    else:
        verdict = "hypotheses violated at sampled resolution"

    return {
        "c1": p.c1,
        "branch": s.branch,
        "b": p.b,
        "c2": p.c2,
        "k2": dc.k.k2,
        "lambda_plus": dc.lambda_plus,
        "H_norm": 2.0 * p.b,
        "K_min": float(np.min(curv)),
        "K_max": float(np.max(curv)),
        "alpha_min": float(np.min(alpha)),
        "alpha_max": float(np.max(alpha)),
        "c_norm_min": float(np.min(c_norm)),
        "c_norm_max": float(np.max(c_norm)),
        "ricci_max_residual": None if math.isnan(residual) else residual,
        "verdict": verdict,
    }
