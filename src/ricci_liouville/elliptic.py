"""Elliptic integrals of the first kind and Jacobi elliptic functions.

Self-contained double precision implementation: the quarter period comes
from the arithmetic-geometric mean, the incomplete integral F(phi, k) and
am/sn/cn/dn are evaluated with the descending Landen (Gauss)
transformation, cf. A&S 17.6 and DLMF 22.20(ii).  Everything takes the
modulus k, never the parameter m = k^2.

The Jacobi functions accept a scalar or an ndarray for the argument ``u``,
F takes a scalar amplitude; the modulus is always scalar.  All functions
are pure (thread-safe).  Only the Jacobi functions import NumPy, inside
their bodies, so K(k) and F(phi, k) load without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

__all__ = [
    "Modulus",
    "complete_elliptic_k",
    "incomplete_elliptic_f",
    "jacobi_am",
    "jacobi_sn_cn_dn",
]

_EPS = sys.float_info.epsilon
_AGM_MAX_ITER = 64


@dataclass(frozen=True)
class Modulus:
    """Jacobi modulus k, restricted to [0, 1]."""

    k: float

    def __post_init__(self):
        k = float(self.k)
        if not math.isfinite(k) or not 0.0 <= k <= 1.0:
            raise DomainError(f"modulus k must lie in [0, 1], got {self.k!r}")
        object.__setattr__(self, "k", k)

    @property
    def k2(self) -> float:
        return self.k * self.k

    @property
    def complement(self) -> float:
        """k' = sqrt(1 - k^2), computed without cancellation."""
        return math.sqrt((1.0 - self.k) * (1.0 + self.k))


def _as_modulus(k) -> Modulus:
    return k if isinstance(k, Modulus) else Modulus(float(k))


def _agm_scale(k: Modulus):
    """Descending Landen scale for modulus k.

    Returns arrays a[0..N], c[0..N] with a0 = 1, b0 = k', c0 = k and
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2.
    Iteration stops once successive means agree to 4 machine epsilons.
    """
    a, b, c = 1.0, k.complement, k.k
    aa, cc = [a], [c]
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) < 4.0 * _EPS:
            return aa, cc
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        aa.append(a)
        cc.append(c)
    raise ConvergenceError(
        f"AGM did not converge for k = {k.k!r} within {_AGM_MAX_ITER} iterations"
    )


def complete_elliptic_k(k) -> float:
    """Quarter period K(k) = \\int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t).

    Computed as pi / (2 AGM(1, k')).  Monotone increasing in k; K(0) = pi/2.
    Raises DomainError for k = 1 (the integral diverges) and for k outside
    [0, 1).
    """
    k = _as_modulus(k)
    if k.k == 1.0:
        raise DomainError("K(k) diverges at k = 1")
    aa, _ = _agm_scale(k)
    return math.pi / (2.0 * aa[-1])


def incomplete_elliptic_f(phi: float, k) -> float:
    """Incomplete integral F(phi, k) = \\int_0^phi dt / sqrt(1 - k^2 sin^2 t).

    Forward phi recursion of the descending Landen transformation (A&S
    17.6): phi_{n+1} = 2 phi_n - atan(2 c_{n+1} sin phi_n cos phi_n /
    (a_n - 2 c_{n+1} sin^2 phi_n)), where the subtracted angle is small and
    the denominator a_n cos^2 + b_n sin^2 stays positive, then
    F = phi_N / (2^N a_N).  Inverse of the amplitude: am(F(phi, k), k) = phi.
    Raises DomainError unless 0 <= phi <= pi/2 and 0 <= k < 1.
    """
    k = _as_modulus(k)
    phi = float(phi)
    if not 0.0 <= phi <= 0.5 * math.pi:
        raise DomainError(f"amplitude phi must lie in [0, pi/2], got {phi!r}")
    if k.k == 1.0:
        raise DomainError("F(phi, k) is only supported for k < 1")
    aa, cc = _agm_scale(k)
    n = len(aa) - 1
    for i in range(n):
        sin, cos = math.sin(phi), math.cos(phi)
        twice_c = 2.0 * cc[i + 1]
        phi = 2.0 * phi - math.atan(twice_c * sin * cos / (aa[i] - twice_c * sin * sin))
    return math.ldexp(phi, -n) / aa[n]


def _amplitude_reduced(ur, k: Modulus):
    """Jacobi amplitude on the reduced range |ur| <= K(k), k < 1.

    Backward phi recursion of the descending Landen transformation:
    phi_N = 2^N a_N u, then phi_{n-1} = (phi_n + asin(c_n sin(phi_n)/a_n))/2.
    """
    import numpy as np

    aa, cc = _agm_scale(k)
    n = len(aa) - 1
    phi = math.ldexp(aa[n], n) * ur
    for i in range(n, 0, -1):
        arg = np.clip(cc[i] / aa[i] * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(arg))
    return phi


def _reduce(u, k: Modulus):
    """Split u = 2 n K + ur with |ur| <= K, exploiting am(u + 2K) = am(u) + pi."""
    import numpy as np

    quarter = complete_elliptic_k(k)
    n = np.round(u / (2.0 * quarter))
    return n, u - 2.0 * n * quarter


def jacobi_am(u, k):
    """Jacobi amplitude am(u, k).

    Solves theta' = sqrt(1 - k^2 sin^2 theta), theta(0) = 0.  Odd and
    strictly increasing in u.  At k = 1 the closed form
    am(u, 1) = 2 atan(tanh(u/2)) (the gudermannian) is used.
    """
    import numpy as np

    k = _as_modulus(k)
    u = np.asarray(u, dtype=float)
    if k.k == 1.0:
        out = 2.0 * np.arctan(np.tanh(0.5 * u))
    else:
        n, ur = _reduce(u, k)
        out = n * math.pi + _amplitude_reduced(ur, k)
    return float(out) if out.ndim == 0 else out


def jacobi_sn_cn_dn(u, k):
    """The triple (sn, cn, dn)(u, k).

    sn = sin am, cn = cos am with the amplitude obtained from the Landen
    recursion (after reduction by the half period 2K), and
    dn = sqrt(1 - k^2 sn^2).  At k = 1: (tanh u, sech u, sech u).
    """
    import numpy as np

    k = _as_modulus(k)
    u = np.asarray(u, dtype=float)
    if k.k == 1.0:
        sn = np.tanh(u)
        cn = 1.0 / np.cosh(u)
        dn = cn
    else:
        n, ur = _reduce(u, k)
        phi = _amplitude_reduced(ur, k)
        sign = np.where(n % 2.0 == 0.0, 1.0, -1.0)
        sn = sign * np.sin(phi)
        cn = sign * np.cos(phi)
        dn = np.sqrt(1.0 - k.k2 * sn * sn)
    if sn.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn
