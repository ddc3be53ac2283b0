"""Elliptic integrals of the first kind and Jacobi elliptic functions.

Self-contained double precision implementation: the quarter period comes
from the arithmetic-geometric mean, the incomplete integral F(phi, k) and
am/sn/cn/dn are evaluated with the descending Landen (Gauss)
transformation, cf. A&S 17.6 and DLMF 22.20(ii).  Everything takes the
modulus k, never the parameter m = k^2.

The Jacobi functions accept a scalar or an ndarray for the argument ``u``,
F takes a scalar amplitude.  The modulus is scalar, except that
jacobi_sn_cn_dn also takes one modulus per row of a 2-d ``u``.  All functions
are pure (thread-safe).  Only the Jacobi functions import NumPy, inside
their bodies, so K(k) and F(phi, k) load without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, ParameterError

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


def _scale_table(moduli, ks):
    """Descending Landen scales of ``moduli`` (Modulus objects) at one depth.

    ``ks`` is their k as _moduli gives it.  Returns a, c indexed by step:
    lists of floats for one float k, else arrays of shape
    (N_max + 1, *ks.shape).  A modulus with N < N_max steps is padded on
    top with (a_N, c = 0): a padded backward step halves phi exactly, so
    each row of _amplitude_reduced keeps the bits of its own N-step
    recursion.  k = 1 gets the k = 0 scale, whose result jacobi_sn_cn_dn
    replaces.
    """
    import numpy as np

    scales = [_agm_scale(k) if k.k < 1.0 else ([1.0], [0.0]) for k in moduli]
    depth = max((len(aa) for aa, _ in scales), default=1)
    a = [aa + aa[-1:] * (depth - len(aa)) for aa, _ in scales]
    c = [cc + [0.0] * (depth - len(cc)) for _, cc in scales]
    if isinstance(ks, float):
        return a[0], c[0]
    return np.array(a).T.reshape(depth, *ks.shape), np.array(c).T.reshape(depth, *ks.shape)


def _amplitude_reduced(ur, a, c):
    """Jacobi amplitude on the reduced range |ur| <= K(k), k < 1, for a _scale_table.

    Backward phi recursion of the descending Landen transformation:
    phi_N = 2^N a_N u, then phi_{n-1} = (phi_n + asin(c_n sin(phi_n)/a_n))/2.
    """
    import numpy as np

    n = len(a) - 1
    phi = a[n] * 2.0**n * ur
    for i in range(n, 0, -1):
        arg = np.clip(c[i] / a[i] * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(arg))
    return phi


def _reduce(u, a):
    """Split u = 2 n K + ur with |ur| <= K, exploiting am(u + 2K) = am(u) + pi.

    K = pi / (2 a_N) comes from the _scale_table ``a``, as in complete_elliptic_k.
    """
    import numpy as np

    quarter = math.pi / (2.0 * a[-1])
    n = np.round(u / (2.0 * quarter))
    return n, u - 2.0 * n * quarter


def _moduli(k, u):
    """The Modulus objects of ``k`` and k as a value that broadcasts against ``u``.

    One modulus gives a float; a sequence of moduli, one per row of a 2-d
    ``u``, gives a (rows, 1) column.  Each must lie in [0, 1].
    """
    import numpy as np

    if isinstance(k, (Modulus, float, int)) or np.ndim(k) == 0:
        k = _as_modulus(k)
        return [k], k.k
    if np.ndim(k) != 1 or u.ndim != 2 or len(k) != u.shape[0]:
        raise ParameterError(
            f"one modulus per row needs a sequence of moduli and a 2-d u with one row "
            f"each, got {np.ndim(k)}-d moduli and u of shape {u.shape}"
        )
    moduli = [_as_modulus(x) for x in k]
    return moduli, np.array([m.k for m in moduli]).reshape(-1, 1)


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
        a, c = _scale_table([k], k.k)
        n, ur = _reduce(u, a)
        out = n * math.pi + _amplitude_reduced(ur, a, c)
    return float(out) if out.ndim == 0 else out


def jacobi_sn_cn_dn(u, k):
    """The triple (sn, cn, dn)(u, k).

    sn = sin am, cn = cos am with the amplitude obtained from the Landen
    recursion (after reduction by the half period 2K), and
    dn = sqrt(1 - k^2 sn^2).  At k = 1: (tanh u, sech u, sech u).

    ``k`` is one modulus, or a sequence of moduli, one per row of a 2-d
    ``u``; each row then carries the bits of a call with its own modulus.
    """
    import numpy as np

    u = np.asarray(u, dtype=float)
    moduli, ks = _moduli(k, u)
    ones = sum(m.k == 1.0 for m in moduli)
    if ones == len(moduli):
        sn = np.tanh(u)
        cn = 1.0 / np.cosh(u)
        dn = cn
    else:
        a, c = _scale_table(moduli, ks)
        n, ur = _reduce(u, a)
        phi = _amplitude_reduced(ur, a, c)
        sign = np.where(n % 2.0 == 0.0, 1.0, -1.0)
        sn = sign * np.sin(phi)
        cn = sign * np.cos(phi)
        dn = np.sqrt(1.0 - ks * ks * sn * sn)
    if 0 < ones < len(moduli):
        one = np.equal(ks, 1.0)
        sn = np.where(one, np.tanh(u), sn)
        cn = np.where(one, 1.0 / np.cosh(u), cn)
        dn = np.where(one, cn, dn)
    if sn.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn
