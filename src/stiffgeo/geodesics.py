"""Geodesics of canonical models along straight lines.

Geodesics run along lines x0 + s e at constant speed in the isochrone metric
h = g / psi^4, where psi(s) = A s^2 + B s + C (models.chord_quadratic): so
s(t) inverts J0(s0, s) = int ds / psi^2 = rate (t - t0), which psi_integral
gives in closed form.  This module solves for s(t), maximal existence
intervals, completeness verdicts, travel times alpha sqrt|A| J0(0, 1) and the
triangle-inequality experiment.  reduce_line names the normal form of psi
(constant, y, y^2-1, y^2, y^2+1) that the CLI reports; no solve reads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError
from .models import (CanonicalModel, chord_quadratic, contains, interior_point,
                     parse_model)
from .pseudospace import as_floats

C1_CONSTANT = "C1_Constant"
C2_SINGLE_POLE = "C2_SinglePole"
C3_TWO_POLES = "C3_TwoPoles"
C4_DOUBLE_POLE = "C4_DoublePole"
C5_NO_POLE = "C5_NoPole"

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
        if not any(as_floats(e)):
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "e", e)

    def psi_coeffs(self) -> Tuple[float, float, float]:
        """psi_s(s) = A s^2 + B s + C along the line."""
        return _chord_quadratic(self.model, self.x0, self.e)

    def point(self, s: float) -> np.ndarray:
        return self.x0 + s * self.e


def _chord_quadratic(model: CanonicalModel, a, e) -> Tuple[float, float, float]:
    """models.chord_quadratic, refused with DomainError where A or B lies
    below the normal range after a product of nonzero factors in it
    underflowed: a nonzero e would read as null (A == 0) or as orthogonal to
    a (B == 0), and no chord answer is then exact.  Above that range an
    underflowed product is below A's or B's own rounding."""
    A, B, C = coeffs = chord_quadratic(model, a, e)
    if ((abs(A) < sys.float_info.min and _underflows(e, e))
            or (abs(B) < sys.float_info.min and _underflows(a, e))):
        raise DomainError(f"psi along the chord {np.array(a)} + s {np.array(e)} "
                          f"underflows: {coeffs}")
    return coeffs


def _underflows(xs: list, ys: list) -> bool:
    """Is some product x*y of nonzero factors below the normal float range?"""
    return any(x and y and abs(x * y) < sys.float_info.min
               for x, y in zip(as_floats(xs), as_floats(ys)))


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
    return _normal_form(*line.psi_coeffs())


def _normal_form(A: float, B: float, C: float) -> GeodesicCase:
    """The normal form of psi(s) = A s^2 + B s + C, picked by the exact signs
    of A, B and delta = 4AC - B^2, the quadratic and discriminant the solve
    uses; C = psi(x0) != 0 in the domain."""
    if A == 0.0:
        if B == 0.0:
            return GeodesicCase(C1_CONSTANT, 1.0, 0.0, abs(C), C < 0)
        sgn = 1.0 if B > 0 else -1.0
        return GeodesicCase(C2_SINGLE_POLE, sgn, C / abs(B), abs(B), False)
    flipped = A < 0
    if flipped:
        A, B, C = -A, -B, -C
    delta = 4.0 * A * C - B * B
    s_mid = -B / (2.0 * A)
    if delta == 0.0:
        return GeodesicCase(C4_DOUBLE_POLE, 1.0, -s_mid, A, flipped,
                            lambda_prime=0)
    rho = math.sqrt(abs(delta)) / (2.0 * A)
    alpha_r = 1.0 / rho
    beta_r = -s_mid / rho
    scale = A * rho * rho
    if delta < 0:
        return GeodesicCase(C3_TWO_POLES, alpha_r, beta_r, scale, flipped,
                            lambda_prime=-1, inside=C < 0)
    return GeodesicCase(C5_NO_POLE, alpha_r, beta_r, scale, flipped,
                        lambda_prime=1)


# ---------------------------------------------------------------------------
# the normal-form antiderivatives, kept for the parameters the CLI prints


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


# ---------------------------------------------------------------------------
# the chord integral J0 = int ds / psi^2


def psi_integral(A: float, B: float, C: float, s0: float, s1: float) -> float:
    """J0 = int_{s0}^{s1} ds / psi(s)^2 with psi(s) = A s^2 + B s + C.

    s0 is finite; s1 may be +-inf (the closed-form limit).  The value is +-inf
    when [s0, s1] holds a root of psi, where the integral diverges.  With
    delta = 4AC - B^2 and u = 2As + B, the antiderivative u / (delta psi) +
    (2A / delta) int ds / psi is taken in difference form, so nothing cancels
    as s1 -> s0; where |delta| <= 0.1 u^2 on one side of the vertex its two
    terms would cancel, and the series of 16 A^2 / (u^2 + delta)^2 in delta
    replaces it.
    """
    ds = s1 - s0
    end = math.isinf(s1)
    psi0 = (A * s0 + B) * s0 + C
    if A == 0.0:
        psi1 = C if B == 0.0 else B * s1 + C
        if not psi0 * psi1 > 0.0:
            return math.copysign(math.inf, ds)
        return 1.0 / (B * psi0) if end and B != 0.0 else ds / (psi0 * psi1)
    delta = 4.0 * A * C - B * B
    u0 = 2.0 * A * s0 + B
    u1 = 2.0 * A * s1 + B
    psi1 = math.copysign(math.inf, A) if end else (A * s1 + B) * s1 + C
    if not psi0 * psi1 > 0.0 or (u0 * u1 < 0.0 and delta <= 0.0 < A * psi0):
        return math.copysign(math.inf, ds)   # a root between s0 and s1
    m = min(abs(u0), abs(u1))
    if u0 * u1 > 0.0 and abs(delta) <= 0.1 * m * m:
        # 8A sum_n (n+1) (-delta)^n (u0^-k - u1^-k) / k, k = 3 + 2n, where
        # u0^-k - u1^-k = (1/u0 - 1/u1) m^(1-k) S_k(m/u0, m/u1) and
        # S_k(a, b) = sum_{j<k} a^j b^(k-1-j) adds terms of one sign
        a, b, x = m / u0, m / u1, -delta / (m * m)
        S, bk, xn, total = 1.0, b, 1.0, 0.0   # S_1, b^1, x^0
        for n in range(60):
            S = a * (a * S + bk) + bk * b     # S_{k+2} from S_k
            bk *= b * b
            term = (n + 1) * xn * S / (3 + 2 * n)
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
            xn *= x
        diff = 1.0 / u0 if end else 2.0 * A * ds / (u0 * u1)
        return 8.0 * A * diff * total / (m * m)
    if delta == 0.0:  # an end on the double root
        return math.copysign(math.inf, ds)
    du = 2.0 * A * ds
    t1 = -u0 / psi0 if end else -ds * (u0 * u1 - delta) / (2.0 * psi0 * psi1)
    if delta > 0.0:
        w = math.sqrt(delta)
        sig = math.copysign(1.0, u1)
        I = 2.0 / w * (math.atan2(sig * w, sig * u0) if end
                       else math.atan2(w * du, delta + u0 * u1))
    else:
        # I = log1p(x) / r, 1 + x = (u1 - r)(u0 + r) / ((u1 + r)(u0 - r)); the
        # factor that cancels comes from (u + r)(u - r) = 4 A psi, and
        # du / (u1 + r) -> 1 as u1 -> +-inf
        r = math.sqrt(-delta)
        m0 = u0 - r if u0 < 0.0 else 4.0 * A * psi0 / (u0 + r)
        p1 = u1 + r if u1 >= 0.0 else 4.0 * A * psi1 / (u1 - r)
        I = math.log1p(2.0 * r * (1.0 if end else du / p1) / m0) / r
    return (t1 + 2.0 * A * I) / delta


# ---------------------------------------------------------------------------
# solving


@dataclass(frozen=True)
class GeodesicSolution:
    """Geodesic t -> x0 + s(t) e with s' = rate psi(s)^2, so that
    J0(s0, s(t)) = rate (t - t0); alpha, beta: F(y(t)) = alpha t + beta."""

    line: GeodesicLine
    case: GeodesicCase
    alpha: float
    beta: float
    t_interval: Tuple[float, float]
    t0: float
    s0: float
    rate: float
    s_interval: Tuple[float, float]   # psi has no root inside
    coeffs: Tuple[float, float, float]   # (A, B, C) of psi along the line
    asymptotics: dict = field(default_factory=dict)

    def _solve(self, t: float, s: float) -> float:
        """s(t) by Newton from s on J0(s0, s) = rate (t - t0), bracketed."""
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        if not self.t_interval[0] < t < self.t_interval[1]:
            raise DomainError(f"t = {t} outside the maximal interval {self.t_interval}")
        A, B, C = self.coeffs
        target = self.rate * (t - self.t0)
        lo, hi = self.s_interval
        for _ in range(200):
            g = psi_integral(A, B, C, self.s0, s) - target
            if not math.isfinite(target) or math.isnan(g):
                raise DomainError(f"s(t) at t = {t} leaves the float range")
            if g == 0.0:
                return s
            lo, hi = (s, hi) if g < 0.0 else (lo, s)
            psi = (A * s + B) * s + C
            cand = s - g * psi * psi
            if abs(cand - s) <= 1e-15 * abs(cand):   # a step of rounding size
                return cand
            if not lo < cand < hi:
                # toward an infinite end, step out by more than |s|
                cand = (lo + 1.0 + abs(lo) if math.isinf(hi) else
                        hi - 1.0 - abs(hi) if math.isinf(lo) else 0.5 * (lo + hi))
                if not lo < cand < hi:   # lo and hi are adjacent floats
                    return s
            s = cand
        raise RuntimeError(f"s(t) at t = {t} did not converge")

    def s_at(self, t: float) -> float:
        return self._solve(t, self.s0)

    def point(self, t: float) -> np.ndarray:
        return self.line.point(self.s_at(t))

    def velocity(self, t: float) -> np.ndarray:
        psi = self.line.model.psi(self.point(t))
        return (self.rate * psi * psi) * self.line.e

    def sample(self, ts) -> np.ndarray:
        """Points at the times ts, in any order; each solve starts from the
        root of the one before."""
        ss = [self.s0]
        for t in np.asarray(ts, dtype=float).tolist():
            ss.append(self._solve(t, ss[-1]))
        return self.line.x0 + np.array(ss[1:]).reshape(-1, 1) * self.line.e


def solve_geodesic(line: GeodesicLine, t0: float, s0: float,
                   sdot0: float) -> GeodesicSolution:
    """Geodesic with s(t0) = s0, s'(t0) = sdot0 on its maximal interval."""
    if not all(map(math.isfinite, (t0, s0, sdot0))):
        raise ValueError(f"t0, s0 and sdot0 must be finite, got {(t0, s0, sdot0)}")
    if sdot0 == 0.0:
        raise ValueError("initial speed must be nonzero (degenerate geodesic)")
    if not contains(line.model, line.point(s0)):
        raise DomainError("initial point outside the model")
    A, B, C = coeffs = line.psi_coeffs()
    case = _normal_form(A, B, C)
    # alpha = F'(y0) y'(0) with F' = k/P(y)^2, read at y0 only
    y0 = case.to_y(s0)
    p = case.normal_poly(y0)
    if not p * p > 0.0:   # also where 1/P(y0)^2 overflows
        raise DomainError("initial point sits on the boundary psi = 0")
    k = {None: 1, 1: 2, 0: 3, -1: 4}[case.lambda_prime]
    alpha = k / (p * p) * (case.alpha_r * sdot0)
    beta = (y0 if case.case == C1_CONSTANT else -1.0 / y0 if case.case ==
            C2_SINGLE_POLE else F_eval(case.lambda_prime, y0)) - alpha * t0
    psi0 = (A * s0 + B) * s0 + C
    rate = sdot0 / (psi0 * psi0) if psi0 * psi0 > 0.0 else math.inf
    # s_interval: the roots of psi next to s0, where J0 diverges, so that only
    # an infinite end of s is reached in finite time
    delta = 4.0 * A * C - B * B
    if A != 0.0 and delta <= 0.0:
        q = -0.5 * (B + math.copysign(math.sqrt(-delta), B))
        roots = [q / A, C / q]
    else:
        roots = [-C / B] if A == 0.0 and B != 0.0 else []
    s_interval = (max((r for r in roots if r < s0), default=-math.inf),
                  min((r for r in roots if r > s0), default=math.inf))
    ends = sorted(t0 + (psi_integral(A, B, C, s0, edge) if math.isinf(edge)
                        else math.copysign(math.inf, edge - s0)) / rate
                  for edge in s_interval)
    if not (all(map(math.isfinite, (rate, alpha, beta))) and rate != 0.0
            and ends[0] <= ends[1]):   # False on NaN
        raise DomainError(f"the geodesic with s'({t0}) = {sdot0} at psi = {psi0} "
                          "leaves the float range")
    return GeodesicSolution(line, case, alpha, beta, (ends[0], ends[1]), t0, s0,
                            rate, s_interval, coeffs, _asymptotics(line, case))


def _asymptotics(line: GeodesicLine, case: GeodesicCase) -> dict:
    if case.case == C1_CONSTANT:
        return {"kind": "affine", "note": "affine parameterization of the line"}
    if case.case == C2_SINGLE_POLE:
        return {
            "kind": "infinite-time-limit",
            "x_inf": line.point(-case.beta_r / case.alpha_r),   # y = 0
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
    regime: str  # "Spacelike" | "Null"
    note: str = ""


def travel_time(model: CanonicalModel, a, b, alpha: float = 1.0) -> TravelTime:
    """Time along the straight chord [a, b] in the isochrone metric h.

    T = alpha sqrt|A| J0(0, 1) for the chord's psi(s) = A s^2 + B s + C; null
    chords (A == 0) carry no information and are flagged.  A chord through
    psi = 0, where J0 diverges, and a time that overflows are refused.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"gauge alpha must be finite and positive, got {alpha}")
    a, b = as_floats(a), as_floats(b)
    for p in (a, b):
        if not contains(model, p):
            raise DomainError(f"endpoint {np.array(p)} outside model {model}")
    e = [y - x for x, y in zip(a, b)]
    if not any(e):
        return TravelTime(0.0, "Spacelike", "coincident endpoints")
    A, B, C = _chord_quadratic(model, a, e)
    if A == 0.0:
        return TravelTime(0.0, "Null",
                          "null chord: the isochrone speed vanishes "
                          "identically, no information")
    J = psi_integral(A, B, C, 0.0, 1.0)
    T = alpha * math.sqrt(abs(A)) * J
    if not math.isfinite(T):
        raise DomainError("segment exits the domain" if math.isinf(J)
                          else f"travel time {T} is not finite")
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
    # the legs o-a and o-b have the same chord quadratic (A, B, C) = (s^2, 0,
    # -1) bit for bit, as x <-> y swaps them, so one travel time serves both
    T_sum = 2.0 * travel_time(_DISK, o, a).time
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
