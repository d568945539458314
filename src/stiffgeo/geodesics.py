"""Geodesics of canonical models along straight lines.

A line x0 + s*e meets the potential in a quadratic psi_s(s); reducing that
quadratic to one of five normal forms (constant, y, y^2-1, y^2, y^2+1) turns
the geodesic equation into F(y(t)) = alpha*t + beta for an explicit
antiderivative F.  This module performs the reduction, inverts F, computes
maximal existence intervals, completeness verdicts, isochrone travel times
and the triangle-inequality experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError
from .models import (CanonicalModel, contains, interior_point, parse_model,
                     segment_margin)

C1_CONSTANT = "C1_Constant"
C2_SINGLE_POLE = "C2_SinglePole"
C3_TWO_POLES = "C3_TwoPoles"
C4_DOUBLE_POLE = "C4_DoublePole"
C5_NO_POLE = "C5_NoPole"

_DISC_TOL = 1e-12


@dataclass(frozen=True)
class GeodesicLine:
    """The line s -> x0 + s*e inside a canonical model."""

    model: CanonicalModel
    x0: np.ndarray
    e: np.ndarray

    def __init__(self, model: CanonicalModel, x0, e) -> None:
        x0 = np.asarray(x0, dtype=float)
        e = np.asarray(e, dtype=float)
        if not contains(model, x0):
            raise DomainError(f"base point {x0} outside model {model}")
        if float(e @ e) == 0.0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "e", e)

    def psi_coeffs(self) -> Tuple[float, float, float]:
        """psi_s(s) = A s^2 + B s + C along the line."""
        sig = self.model.sig
        return (sig.q(self.e), 2.0 * sig.dot(self.x0, self.e),
                self.model.psi(self.x0))

    def point(self, s: float) -> np.ndarray:
        return self.x0 + s * self.e


@dataclass(frozen=True)
class GeodesicCase:
    """Normal form of psi along a line: psi_s(s) = sign * scale * P(y),
    y = alpha_r*s + beta_r, with P one of 1, y, y^2-1, y^2, y^2+1."""

    case: str
    alpha_r: float
    beta_r: float
    scale: float          # positive
    flipped: bool         # True when psi was negated to reach the normal form
    lambda_prime: Optional[int] = None  # -1, 0, 1 for C3, C4, C5
    inside: Optional[bool] = None       # C3: base point between the roots

    def to_y(self, s: float) -> float:
        return self.alpha_r * s + self.beta_r

    def from_y(self, y: float) -> float:
        return (y - self.beta_r) / self.alpha_r

    def normal_poly(self, y: float) -> float:
        if self.case == C1_CONSTANT:
            return 1.0
        if self.case == C2_SINGLE_POLE:
            return y
        if self.case == C3_TWO_POLES:
            return y * y - 1.0
        if self.case == C4_DOUBLE_POLE:
            return y * y
        return y * y + 1.0


def reduce_line(line: GeodesicLine) -> GeodesicCase:
    """Classify psi along the line and compute the affine normalization."""
    A, B, C = line.psi_coeffs()
    mag = max(abs(A), abs(B), abs(C))
    # C = psi(x0) != 0 in the domain, so psi_s is never the zero polynomial
    if mag == 0.0:
        raise AssertionError("psi vanishes along the line; point outside domain")
    if abs(A) <= 1e-14 * mag:
        if abs(B) <= 1e-14 * mag:
            return GeodesicCase(C1_CONSTANT, 1.0, 0.0, abs(C), C < 0)
        sgn = 1.0 if B > 0 else -1.0
        return GeodesicCase(C2_SINGLE_POLE, sgn, C / abs(B), abs(B), False)
    flipped = A < 0
    if flipped:
        A, B, C = -A, -B, -C
    disc = B * B - 4.0 * A * C
    disc_scale = max(B * B, abs(4.0 * A * C))
    s_mid = -B / (2.0 * A)
    if abs(disc) <= _DISC_TOL * disc_scale:
        return GeodesicCase(C4_DOUBLE_POLE, 1.0, -s_mid, A, flipped,
                            lambda_prime=0)
    rho = math.sqrt(abs(disc)) / (2.0 * A)
    alpha_r = 1.0 / rho
    beta_r = -s_mid / rho
    scale = A * rho * rho
    if disc > 0:
        return GeodesicCase(C3_TWO_POLES, alpha_r, beta_r, scale, flipped,
                            lambda_prime=-1, inside=C < 0)
    return GeodesicCase(C5_NO_POLE, alpha_r, beta_r, scale, flipped,
                        lambda_prime=1)


# ---------------------------------------------------------------------------
# the antiderivatives F and their inversion


def F_eval(lambda_prime: int, y: float) -> float:
    """Antiderivatives with F' = k/P(y)^2: F1 (k=2), F0 (k=3), F-1 (k=4)."""
    if lambda_prime == 1:
        return y / (1.0 + y * y) + math.atan(y)
    if lambda_prime == 0:
        if y == 0.0:
            raise ZeroDivisionError("F0 pole at y = 0")
        return -1.0 / y**3
    if lambda_prime == -1:
        if y == 1.0 or y == -1.0:
            raise ZeroDivisionError("F-1 pole at y = +/-1")
        return (-1.0 / (y - 1.0) - 1.0 / (y + 1.0)
                + math.log(abs((y + 1.0) / (y - 1.0))))
    raise ValueError("lambda_prime must be -1, 0 or 1")


def _F_for_case(case: GeodesicCase) -> Tuple[Callable[[float], float],
                                             Callable[[float], float], int]:
    """(F, F', divisor k) with F' = k/P(y)^2 for the case's normal form."""
    if case.case == C1_CONSTANT:
        return (lambda y: y), (lambda y: 1.0), 1
    if case.case == C2_SINGLE_POLE:
        return (lambda y: -1.0 / y), (lambda y: 1.0 / (y * y)), 1
    lp = case.lambda_prime
    k = {1: 2, 0: 3, -1: 4}[lp]

    def fp(y: float) -> float:
        p = case.normal_poly(y)
        return k / (p * p)

    return (lambda y: F_eval(lp, y)), fp, k


def _component_of(case: GeodesicCase, y0: float) -> Tuple[float, float]:
    """Open y-interval on which F is defined and contains y0."""
    if case.case in (C1_CONSTANT, C5_NO_POLE):
        return (-math.inf, math.inf)
    if case.case in (C2_SINGLE_POLE, C4_DOUBLE_POLE):
        if y0 == 0.0:
            raise DomainError("initial point sits on the boundary psi = 0")
        return (0.0, math.inf) if y0 > 0 else (-math.inf, 0.0)
    # C3: poles at -1 and 1
    if y0 in (-1.0, 1.0):
        raise DomainError("initial point sits on the boundary psi = 0")
    if y0 < -1.0:
        return (-math.inf, -1.0)
    if y0 < 1.0:
        return (-1.0, 1.0)
    return (1.0, math.inf)


def _F_range(case: GeodesicCase, comp: Tuple[float, float]) -> Tuple[float, float]:
    """Open range of the strictly increasing F on a component."""
    if case.case == C1_CONSTANT:
        return (-math.inf, math.inf)
    if case.case == C2_SINGLE_POLE:
        return (-math.inf, 0.0) if comp[0] == 0.0 else (0.0, math.inf)
    lp = case.lambda_prime
    if lp == 1:
        return (-math.pi / 2.0, math.pi / 2.0)
    if lp == 0:
        return (-math.inf, 0.0) if comp[0] == 0.0 else (0.0, math.inf)
    # lambda_prime == -1
    if comp == (-1.0, 1.0):
        return (-math.inf, math.inf)
    return (0.0, math.inf) if comp[1] == -1.0 else (-math.inf, 0.0)


def F_invert(case: GeodesicCase, component: Tuple[float, float],
             value: float) -> float:
    """Solve F(y) = value on the component; F is strictly increasing there.

    Closed forms where available; otherwise bracketed bisection with a Newton
    polish to |F(y) - value| <= 1e-12 * max(1, |value|).
    """
    lo_r, hi_r = _F_range(case, component)
    if not (lo_r < value < hi_r):
        raise DomainError(f"value {value} outside F range {(lo_r, hi_r)}")
    if case.case == C1_CONSTANT:
        return value
    if case.case == C2_SINGLE_POLE:
        return -1.0 / value
    if case.lambda_prime == 0:
        return -math.copysign(abs(value) ** (-1.0 / 3.0), value)

    F, Fp, _ = _F_for_case(case)
    lo, hi = _bracket(F, component, value)
    y = 0.5 * (lo + hi)
    target = 1e-12 * max(1.0, abs(value))
    for _ in range(200):
        fy = F(y)
        if abs(fy - value) <= target:
            return y
        if fy < value:
            lo = y
        else:
            hi = y
        step = (fy - value) / Fp(y)
        cand = y - step
        y = cand if lo < cand < hi else 0.5 * (lo + hi)
    if abs(F(y) - value) <= 1e-9 * max(1.0, abs(value)):
        return y
    raise RuntimeError("F inversion did not converge")


def _bracket(F: Callable[[float], float], comp: Tuple[float, float],
             value: float) -> Tuple[float, float]:
    """Find [lo, hi] inside the open component with F(lo) < value < F(hi)."""
    a, b = comp
    mid = (0.0 if a < 0 < b else
           (a + 1.0 if math.isinf(b) else b - 1.0 if math.isinf(a)
            else 0.5 * (a + b)))

    def approach(endpoint: float, want_low: bool) -> float:
        # walk from mid toward the open endpoint until F passes the value;
        # stop short of float-resolution collision with a finite pole
        for k in range(1, 360):
            if math.isinf(endpoint):
                y = math.copysign(2.0**k, endpoint)
            else:
                y = endpoint + math.copysign(2.0**-k, mid - endpoint)
                if y == endpoint:
                    break
            fy = F(y)
            if (fy < value) if want_low else (fy > value):
                return y
        raise RuntimeError("bracket for F inversion failed (value too extreme)")

    lo = mid if F(mid) < value else approach(a, True)
    hi = mid if F(mid) > value else approach(b, False)
    return min(lo, hi), max(lo, hi)


# ---------------------------------------------------------------------------
# solving


@dataclass(frozen=True)
class GeodesicSolution:
    """Geodesic through x0 + s(t)*e with F(y(t)) = alpha*t + beta."""

    line: GeodesicLine
    case: GeodesicCase
    alpha: float
    beta: float
    t_interval: Tuple[float, float]
    component: Tuple[float, float]
    asymptotics: dict = field(default_factory=dict)

    def y_at(self, t: float) -> float:
        return F_invert(self.case, self.component, self.alpha * t + self.beta)

    def s_at(self, t: float) -> float:
        return self.case.from_y(self.y_at(t))

    def point(self, t: float) -> np.ndarray:
        return self.line.point(self.s_at(t))

    def velocity(self, t: float) -> np.ndarray:
        _, Fp, _ = _F_for_case(self.case)
        ydot = self.alpha / Fp(self.y_at(t))
        return (ydot / self.case.alpha_r) * self.line.e

    def sample(self, ts) -> np.ndarray:
        return np.array([self.point(t) for t in np.asarray(ts, dtype=float)])


def solve_geodesic(line: GeodesicLine, t0: float, s0: float,
                   sdot0: float) -> GeodesicSolution:
    """Geodesic with s(t0) = s0, s'(t0) = sdot0 on its maximal interval."""
    if not all(map(math.isfinite, (t0, s0, sdot0))):
        raise ValueError(f"t0, s0 and sdot0 must be finite, got {(t0, s0, sdot0)}")
    if sdot0 == 0.0:
        raise ValueError("initial speed must be nonzero (degenerate geodesic)")
    if not contains(line.model, line.point(s0)):
        raise DomainError("initial point outside the model")
    case = reduce_line(line)
    y0 = case.to_y(s0)
    ydot0 = case.alpha_r * sdot0
    comp = _component_of(case, y0)
    F, Fp, _ = _F_for_case(case)
    alpha = Fp(y0) * ydot0
    beta = F(y0) - alpha * t0
    lo_r, hi_r = _F_range(case, comp)
    if alpha > 0:
        t_interval = ((lo_r - beta) / alpha, (hi_r - beta) / alpha)
    else:
        t_interval = ((hi_r - beta) / alpha, (lo_r - beta) / alpha)
    return GeodesicSolution(line, case, alpha, beta, t_interval, comp,
                            asymptotics=_asymptotics(line, case, comp))


def _asymptotics(line: GeodesicLine, case: GeodesicCase,
                 comp: Tuple[float, float]) -> dict:
    if case.case == C1_CONSTANT:
        return {"kind": "affine", "note": "affine parameterization of the line"}
    if case.case == C2_SINGLE_POLE:
        s_pole = case.from_y(0.0)
        return {
            "kind": "infinite-time-limit",
            "x_inf": line.point(s_pole),
            "note": "tends to the boundary point in infinite time, "
                    "distance ~ cst/|t|",
        }
    return {
        "kind": "finite-time-blowup",
        "note": "|s(t)| ~ kappa/|t - t_edge|^(1/3) at any finite interval edge "
                "where |y| -> infinity",
    }


# ---------------------------------------------------------------------------
# completeness


@dataclass(frozen=True)
class CompletenessVerdict:
    complete: bool
    witness: Optional[GeodesicLine] = None
    witness_interval: Optional[Tuple[float, float]] = None

    def __bool__(self) -> bool:
        return self.complete


def completeness_verdict(model: CanonicalModel) -> CompletenessVerdict:
    """Complete exactly for the negative-definite-interior disks and their
    duals: nu=-1, m=0, lambda<0 and nu=+1, p=0, lambda>0 (rescaling classes of
    the two complete canonical models)."""
    sig = model.sig
    if (model.nu < 0 and sig.m == 0 and model.lam < 0) or \
       (model.nu > 0 and sig.p == 0 and model.lam > 0):
        return CompletenessVerdict(True)
    # witness direction with q(v)*nu > 0; such a basis vector always exists
    # for the nonempty incomplete models
    d = sig.d
    v = np.eye(d)[0] if model.nu > 0 else np.eye(d)[d - 1]
    line = GeodesicLine(model, interior_point(model), v)
    sol = solve_geodesic(line, 0.0, 0.0, 1.0)
    lo, hi = sol.t_interval
    if math.isinf(lo) and math.isinf(hi):
        raise AssertionError(f"witness line for {model} has unbounded interval")
    return CompletenessVerdict(False, line, sol.t_interval)


# ---------------------------------------------------------------------------
# travel time


@dataclass(frozen=True)
class TravelTime:
    time: float
    regime: str  # "Spacelike" | "Null" | "Crosses"
    note: str = ""


def travel_time(model: CanonicalModel, a, b, alpha: float = 1.0) -> TravelTime:
    """Time along the straight chord [a, b] in the isochrone metric h.

    T = alpha * sqrt(|q(b-a)|) * |F(y_b) - F(y_a)| / (k * scale^2 * |alpha_r|)
    through the line's normal form; null chords carry no information and are
    flagged.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"gauge alpha must be finite and positive, got {alpha}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for p in (a, b):
        if not contains(model, p):
            raise DomainError(f"endpoint {p} outside model {model}")
    e = b - a
    if float(e @ e) == 0.0:
        return TravelTime(0.0, "Spacelike", "coincident endpoints")
    qe = model.sig.q(e)
    if abs(qe) <= 1e-14 * float(e @ e):
        return TravelTime(0.0, "Null",
                          "null chord: the isochrone speed vanishes "
                          "identically, no information")
    if not segment_margin(model, a, b) > 0.0:
        raise DomainError("segment exits the domain")
    line = GeodesicLine(model, a, e)
    case = reduce_line(line)
    F, _, k = _F_for_case(case)
    y_a = case.to_y(0.0)
    y_b = case.to_y(1.0)
    T = (alpha * math.sqrt(abs(qe)) * abs(F(y_b) - F(y_a))
         / (k * case.scale**2 * abs(case.alpha_r)))
    return TravelTime(T, "Spacelike")


# ---------------------------------------------------------------------------
# the triangle experiment in the disk model


@dataclass(frozen=True)
class TriangleResult:
    s: float
    T_ab: float
    T_sum: float
    violates: bool


_DISK = parse_model("S(2,0;-1;-)")


def triangle_experiment(s: float) -> TriangleResult:
    """a = (s,0), b = (0,s), o = 0 in the unit-disk model: does the chord a-b
    take longer than the two legs through the center?"""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    o = np.zeros(2)
    a = np.array([s, 0.0])
    b = np.array([0.0, s])
    T_ab = travel_time(_DISK, a, b).time
    T_sum = travel_time(_DISK, o, a).time + travel_time(_DISK, o, b).time
    return TriangleResult(s, T_ab, T_sum, T_ab > T_sum)


def find_s0(tol: float = 1e-6) -> float:
    """Bisection for the crossover where the chord time equals the leg sum."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    lo, hi = 0.05, 0.95

    def g(s):
        res = triangle_experiment(s)
        return res.T_ab - res.T_sum

    glo, ghi = g(lo), g(hi)
    if not (glo < 0 < ghi):
        raise AssertionError("crossover bracket failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
