"""Exact reference answers, written independently of the stiffgeo code paths.

Every check the benchmark makes goes through this module: model domains are
re-parsed from their tags, psi along a chord is treated as the exact quadratic
it is, transport matrices come from the closed forms of the paper, and
isochrone travel times from Gauss-Legendre quadrature of the h-length.  Only
numpy and the standard library are used, so a defect in the library cannot
hide itself by also appearing in the check.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

_TAG = re.compile(r"^S\((\d+),(\d+);([^;]+);([+-])(?:;([LR]))?\)$")

# composite Gauss-Legendre rule on [0, 1]: 32 panels of 16 nodes
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANELS = 32
_S = ((np.arange(_PANELS)[:, None] + 0.5 * (_NODES[None, :] + 1.0))
      / _PANELS).ravel()
_W = np.tile(_WEIGHTS / (2.0 * _PANELS), _PANELS)


class Domain:
    """The domain {nu (q + lambda) > 0} of a canonical model, plus its branch."""

    def __init__(self, tag: str) -> None:
        mt = _TAG.match(tag)
        if not mt:
            raise ValueError(f"unsupported model tag {tag!r}")
        p, m = int(mt.group(1)), int(mt.group(2))
        self.tag = tag
        self.d = p + m
        self.eps = np.array([1.0] * p + [-1.0] * m)
        self.lam = float(mt.group(3))
        self.nu = 1.0 if mt.group(4) == "+" else -1.0
        # a disconnected domain keeps the component where one coordinate has
        # a fixed sign: x_1 for p = 1, nu = +, lambda <= 0; x_d for m = 1,
        # nu = -, lambda >= 0
        if p == 1 and self.nu > 0 and self.lam <= 0:
            self.branch = 0
        elif m == 1 and self.nu < 0 and self.lam >= 0:
            self.branch = self.d - 1
        else:
            self.branch = None
        self.side = -1.0 if mt.group(5) == "L" else 1.0

    def q(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.dot(self.eps * v, v))

    def dot(self, u, v) -> float:
        return float(np.dot(self.eps * np.asarray(u, float), np.asarray(v, float)))

    def psi(self, x) -> float:
        return self.q(x) + self.lam

    def margin(self, x) -> float:
        """nu * psi(x), or -inf off the kept branch."""
        x = np.asarray(x, dtype=float)
        if self.branch is not None and self.side * x[self.branch] <= 0.0:
            return -math.inf
        return self.nu * self.psi(x)

    def chord_quadratic(self, a, b):
        """(A, B, C) with psi(a + s (b - a)) = A s^2 + B s + C."""
        a = np.asarray(a, dtype=float)
        e = np.asarray(b, dtype=float) - a
        return self.q(e), 2.0 * self.dot(a, e), self.psi(a)

    def chord_min(self, a, b) -> float:
        """Exact minimum of nu * psi over the chord [a, b].

        psi is quadratic along the chord, so the minimum sits at an endpoint
        or at the vertex.  The branch coordinate is linear along the chord,
        so checking the endpoints decides the branch.
        """
        ends = min(self.margin(a), self.margin(b))
        A, B, C = self.chord_quadratic(a, b)
        if A != 0.0:
            s = -B / (2.0 * A)
            if 0.0 < s < 1.0:
                ends = min(ends, self.nu * ((A * s + B) * s + C))
        return ends

    def chord_outside_length(self, a, b) -> float:
        """Length, as a share of [0, 1], of the part of the chord [a, b] on
        which nu * psi < 0 (branch ignored); exact from the quadratic's roots."""
        A, B, C = (self.nu * c for c in self.chord_quadratic(a, b))
        if A == 0.0:
            if B == 0.0:
                return 1.0 if C < 0.0 else 0.0
            root = -C / B
            lo, hi = (root, 1.0) if B < 0.0 else (0.0, root)
            return max(0.0, min(hi, 1.0) - max(lo, 0.0))
        disc = B * B - 4.0 * A * C
        if disc <= 0.0:
            return 1.0 if A < 0.0 else 0.0
        r = math.sqrt(disc)
        r1, r2 = sorted(((-B - r) / (2.0 * A), (-B + r) / (2.0 * A)))
        inner = max(0.0, min(r2, 1.0) - max(r1, 0.0))
        return inner if A > 0.0 else 1.0 - inner


def must_refuse(dom: Domain, points) -> bool:
    """A piecewise-linear path must be refused iff it leaves the domain."""
    return any(dom.chord_min(a, b) <= 0.0 for a, b in zip(points[:-1], points[1:]))


# ---------------------------------------------------------------------------
# isochrone lengths


def h_length(dom: Domain, a, b, alpha: float = 1.0) -> float:
    """h-length of the chord [a, b]: alpha sqrt|q(b-a)| int_0^1 ds / psi^2."""
    A, B, C = dom.chord_quadratic(a, b)
    psi = (A * _S + B) * _S + C
    return alpha * math.sqrt(abs(A)) * float(np.dot(_W, 1.0 / (psi * psi)))


def h_length_to_end(dom: Domain, x0, e) -> float:
    """h-length of the half-line x0 + s e, s >= 0, with q(e) != 0.

    Infinite when psi has a root on the half-line, because the boundary is at
    infinite h-distance; otherwise finite, because psi grows like s^2.  The
    integral runs over s = u / (1 - u), u in [0, 1).
    """
    A, B, C = dom.chord_quadratic(x0, np.asarray(x0, float) + np.asarray(e, float))
    if A == 0.0:
        raise ValueError("half-line length needs a non-null direction")
    disc = B * B - 4.0 * A * C
    if disc >= 0.0:
        r = math.sqrt(disc)
        if max((-B - r) / (2.0 * A), (-B + r) / (2.0 * A)) > 0.0:
            return math.inf
    u = _S
    s = u / (1.0 - u)
    psi = (A * s + B) * s + C
    return math.sqrt(abs(A)) * float(np.dot(_W, 1.0 / (psi * (1.0 - u)) ** 2))


DISK = Domain("S(2,0;-1;-)")


def triangle(s: float):
    """(T_ab, T_sum) of the unit-disk triangle experiment at side s."""
    a, b, o = np.array([s, 0.0]), np.array([0.0, s]), np.zeros(2)
    return h_length(DISK, a, b), h_length(DISK, o, a) + h_length(DISK, o, b)


def triangle_crossover(tol: float = 1e-13) -> float:
    """Side s0 at which the chord time equals the two legs, by bisection."""
    lo, hi = 0.05, 0.95
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        t_ab, t_sum = triangle(mid)
        if t_ab < t_sum:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# parallel transport


def det_law(dom: Domain, start, end) -> float:
    """det of any transport map from start to end: (psi(end)/psi(start))^(d+1)."""
    return (dom.psi(end) / dom.psi(start)) ** (dom.d + 1)


def ray_matrix(dom: Domain, e, t0: float, t1: float) -> np.ndarray:
    """Transport along t -> t e: Lambda^2 on e, Lambda on its q-complement."""
    e = np.asarray(e, dtype=float)
    lam_ratio = dom.psi(t1 * e) / dom.psi(t0 * e)
    proj = np.outer(e, dom.eps * e) / dom.q(e)
    return lam_ratio * np.eye(dom.d) + (lam_ratio ** 2 - lam_ratio) * proj


def arc_matrix(dom: Domain, u, w, r: float, th0: float, th1: float) -> np.ndarray:
    """Transport along the equipotential arc r (cos/cosh th u + sin/sinh th w).

    In the moving frame (g/r, g'/r) the transport solves a' = eps b,
    b' = eps s a with s = eps (q_g - lambda)/(q_g + lambda), so it is
    [[C, eps S], [eps s S, C]] with C = cosh(sqrt(s) t), S = sinh(sqrt(s) t)
    / sqrt(s); the q-complement of the plane is fixed pointwise.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    eps_pm = 1.0 if dom.q(u) * dom.q(w) > 0 else -1.0
    q_g = r * r * dom.q(u)
    s = eps_pm * (q_g - dom.lam) / (q_g + dom.lam)
    t = th1 - th0
    root = cmath.sqrt(s)
    c = cmath.cosh(root * t).real
    sh = t if s == 0.0 else (cmath.sinh(root * t) / root).real
    moving = np.eye(dom.d)
    moving[:2, :2] = [[c, eps_pm * sh], [eps_pm * s * sh, c]]
    rest = [v for v in np.eye(dom.d)
            if abs(float(v @ u)) < 0.5 and abs(float(v @ w)) < 0.5]

    def frame(th: float) -> np.ndarray:
        if eps_pm > 0:
            g = math.cos(th) * u + math.sin(th) * w
            dg = -math.sin(th) * u + math.cos(th) * w
        else:
            g = math.cosh(th) * u + math.sinh(th) * w
            dg = math.sinh(th) * u + math.cosh(th) * w
        return np.column_stack([g, dg, *rest])

    return frame(th1) @ moving @ np.linalg.inv(frame(th0))


def arc_point(dom: Domain, u, w, r: float, th: float) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if dom.q(u) * dom.q(w) > 0:
        return r * (math.cos(th) * u + math.sin(th) * w)
    return r * (math.cosh(th) * u + math.sinh(th) * w)


def rel_dev(got, want) -> float:
    """max |got - want| over max(1, max |want|)."""
    want = np.asarray(want, dtype=float)
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


# ---------------------------------------------------------------------------
# geodesics of h = g / psi^4 (d = 2)


def h_energy(dom: Domain, x, v) -> float:
    """Conserved h-speed squared q(v) / psi^4."""
    return dom.q(v) / dom.psi(x) ** 4


def h_momentum(dom: Domain, x, v) -> float:
    """Noether charge of the planar q-rotation: (x1 v2 - x2 v1) / psi^4."""
    return (x[0] * v[1] - x[1] * v[0]) / dom.psi(x) ** 4


def invariant_circle_radius(dom: Domain) -> float:
    """Radius of the circle |x| = r that is an h-geodesic (definite planes).

    A circle is a geodesic of e^{2f} g when 1/r = -df/dr; with f = -2 ln|psi|
    and psi = sigma r^2 + lambda (sigma = +-1) that is psi = 4 sigma r^2.
    """
    sigma = dom.eps[0]
    r2 = dom.lam / (3.0 * sigma)
    if dom.d != 2 or dom.eps[1] != sigma or r2 <= 0.0 \
            or dom.nu * dom.psi([math.sqrt(r2), 0.0]) <= 0.0:
        raise ValueError(f"{dom.tag} has no invariant circle")
    return math.sqrt(r2)
