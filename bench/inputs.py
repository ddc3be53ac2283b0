"""Seeded benchmark inputs, built without the library under test.

Every parameter value and every profile CSV the workloads feed to
ricci-liouville is drawn here from the seed with NumPy and SciPy only
(``scipy.special.ellipj`` / ``ellipk`` for the closed form,
``scipy.integrate`` for profiles), so a parent commit and a change see
byte-identical inputs.  Sizes are constants: a different seed changes
values, never the amount of work.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ellipj, ellipk  # the library loads scipy.special itself

REF_B = 1.0 / math.sqrt(6.0)
REF_C1 = 1.0
REF_C2 = -11.0 / 6.0

# fixed sizes of every workload
SIZES = {
    "verify_span": 0.4,          # verify on [-0.4, 0.4]^2 ...
    "verify_h": 0.0025,          # ... on grids 321^2 to 1281^2 over 3 levels
    "verify_levels": 3,
    "sweep_shape": [4, 5, 5],    # b x c1 x c2 = 100 triples
    "sweep_span": 0.5,           # the sweep's default u-range [-0.5, 0.5]
    "sweep_h_levels": [0.01, 0.005, 0.0025],
    "mesh_span": 0.33,
    "ply_nu": 801, "ply_nv": 314,
    "obj_nu": 201, "obj_nv": 157,
    "roundtrip_n": 4001, "roundtrip_resample": 1001,
    "roundtrip_share": 0.8,      # share of the embeddable interval
    "defect_nu": 801, "defect_nv": 314,
    "derive_calls": 3,
    "pmc_n": 401, "pmc_span": 0.4,
    "profile_samples": 4001,
    "classify_resample": 51,
}


def _round(x: float) -> float:
    """Ten significant digits, so the CLI text of a value is short and exact."""
    return float(f"{x:.10g}")


class Closed:
    """Closed form lambda = sqrt(lambda_plus) / cn(s u | k^2) via SciPy."""

    def __init__(self, b: float, c1: float, c2: float):
        self.b, self.c1, self.c2 = b, c1, c2
        self.disc = disc = c2 * c2 + 8.0 * b * b * c1
        root = math.sqrt(disc)
        self.s = math.sqrt(root)
        self.m = (c2 + root) / (2.0 * root)
        self.lambda_plus = (root - c2) / (4.0 * b * b)
        self.u_max = float(ellipk(self.m)) / self.s

    def lam(self, u):
        _, cn, _, _ = ellipj(self.s * np.asarray(u, dtype=float), self.m)
        return math.sqrt(self.lambda_plus) / cn

    def dlam(self, u):
        sn, cn, dn, _ = ellipj(self.s * np.asarray(u, dtype=float), self.m)
        return math.sqrt(self.lambda_plus) * self.s * sn * dn / (cn * cn)

    def curvature(self, u):
        return -2.0 * self.b * self.b - self.c1 / self.lam(u) ** 4

    def embeddable_half_width(self) -> float:
        """First positive zero of lambda^2 - lambda'^2 (the domain edge if none)."""
        from scipy.optimize import brentq

        gap = lambda u: float(self.lam(u) ** 2 - self.dlam(u) ** 2)
        edge = self.u_max * (1.0 - 1e-9)
        if gap(edge) >= 0.0:
            return edge
        return brentq(gap, 0.0, edge, xtol=1e-14)


def arc_length_profile(closed: Closed, u_lo: float, u_hi: float, n: int):
    """Arc-length samples (s, x, y) of the revolution profile over [u_lo, u_hi].

    Integrates du/ds = 1/lambda and dx/ds = sqrt(lambda^2 - lambda'^2)/lambda
    so that x'(s)^2 + y'(s)^2 = 1 holds by construction.
    """
    # imported here, so the crosscheck pass, whose memory is measured, never loads them
    from scipy.integrate import quad, solve_ivp

    length, _ = quad(lambda u: float(closed.lam(u)), u_lo, u_hi, epsabs=1e-14, epsrel=1e-13)

    def rhs(_, state):
        lam = float(closed.lam(state[0]))
        dlam = float(closed.dlam(state[0]))
        return [1.0 / lam, math.sqrt(max(lam * lam - dlam * dlam, 0.0)) / lam]

    s = np.linspace(0.0, length, n)
    sol = solve_ivp(rhs, (0.0, length), [u_lo, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-14, t_eval=s)
    if not sol.success:
        raise RuntimeError(f"profile integration failed: {sol.message}")
    return s, sol.y[1], closed.lam(sol.y[0])


def profile_csv(s, x, y) -> bytes:
    rows = ["s,x,y"] + [f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(s, x, y)]
    return ("\r\n".join(rows) + "\r\n").encode("ascii")


def draw(seed: int) -> dict:
    """All seeded parameter values of one benchmark run."""
    rng = np.random.default_rng(seed)
    c1 = _round(REF_C1 + rng.uniform(-0.05, 0.05))
    c2 = _round(REF_C2 + rng.uniform(-0.05, 0.05))
    nb, nc1, nc2 = SIZES["sweep_shape"]
    sweep_b = sorted(_round(v) for v in rng.uniform(0.4, 1.0, nb))
    sweep_c1 = sorted(_round(v) for v in np.exp(rng.uniform(math.log(0.25), math.log(4.0), nc1)))
    sweep_c2 = sorted(_round(v) for v in rng.uniform(-2.0, 3.0, nc2))
    derive = [
        (_round(rng.uniform(0.3, 1.2)),
         _round(math.exp(rng.uniform(math.log(0.1), math.log(10.0)))),
         _round(rng.uniform(-3.0, 3.0)))
        for _ in range(SIZES["derive_calls"])
    ]
    inputs = {
        "seed": seed,
        "sizes": SIZES,
        "ref": {"b": REF_B, "c1": c1, "c2": c2},
        "sweep": {"b": sweep_b, "c1": sweep_c1, "c2": sweep_c2},
        "derive": derive,
        "pmc_c1": [_round(rng.uniform(0.2, 1.4)), _round(rng.uniform(2.0, 6.0))],
        "sphere_s0": _round(rng.uniform(0.25, 0.35)),
    }
    _check_domains(inputs)
    inputs["expect"] = _expectations(inputs)
    return inputs


def _pmc_c2(c1: float) -> float:
    return c1 / 6.0 - 2.0 if c1 < 1.5 else 2.0 - c1 / 6.0


def _expectations(inputs: dict) -> dict:
    """Reference values the output checks compare against."""
    derive = []
    for b, c1, c2 in inputs["derive"]:
        c = Closed(b, c1, c2)
        derive.append({"disc": c.disc, "s": c.s, "k2": c.m,
                       "lambda_plus": c.lambda_plus, "u_max": c.u_max})
    ref = inputs["ref"]
    return {
        "derive": derive,
        "pmc_k2": [Closed(REF_B, c1, _pmc_c2(c1)).m for c1 in inputs["pmc_c1"]],
        "embeddable_half_width": Closed(ref["b"], ref["c1"], ref["c2"]).embeddable_half_width(),
    }


def _check_domains(inputs: dict) -> None:
    """Every drawn value must keep every operation inside its domain."""
    ref = inputs["ref"]
    closed = Closed(ref["b"], ref["c1"], ref["c2"])
    if (closed.u_max <= SIZES["verify_span"] + 0.05
            or closed.embeddable_half_width() <= SIZES["mesh_span"] + 0.02):
        raise ValueError(f"reference jitter left the domain: {ref}")
    for b in inputs["sweep"]["b"]:
        for c1 in inputs["sweep"]["c1"]:
            for c2 in inputs["sweep"]["c2"]:
                if Closed(b, c1, c2).u_max <= SIZES["sweep_span"] + 0.05:
                    raise ValueError(f"sweep triple {(b, c1, c2)} too close to its pole")
    for c1 in inputs["pmc_c1"]:
        if Closed(REF_B, c1, _pmc_c2(c1)).u_max <= SIZES["pmc_span"] + 0.05:
            raise ValueError(f"pmc c1 = {c1} too close to its pole")


def profiles(inputs: dict) -> dict:
    """The classify inputs: a family trumpet (in family) and a sphere (rejected)."""
    ref = inputs["ref"]
    closed = Closed(ref["b"], ref["c1"], ref["c2"])
    half = SIZES["roundtrip_share"] * inputs["expect"]["embeddable_half_width"]
    trumpet = profile_csv(*arc_length_profile(closed, -half, half, SIZES["profile_samples"]))
    s0 = inputs["sphere_s0"]
    s = np.linspace(s0, math.pi - s0, SIZES["profile_samples"])
    sphere = profile_csv(s, -np.cos(s), np.sin(s))
    return {"trumpet.csv": trumpet, "sphere.csv": sphere}
