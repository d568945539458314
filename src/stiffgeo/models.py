"""Canonical models of stiff connections.

A stiff potential reduces, by an affine similarity, to psi = q + lambda on a
domain where psi keeps one sign nu.  The resulting models S^nu_lambda(p, m)
live on {nu (q + lambda) > 0}; when that set is disconnected (p = 1, nu = +,
lambda <= 0, split by the sign of x_1, or m = 1, nu = -, lambda >= 0, split by
the sign of x_d) the canonical choice keeps the component where the
coordinate is positive.  Models S^-_lambda(d,0) with lambda >= 0 and
S^+_lambda(0,d) with lambda <= 0 are empty and rejected.

Up to isomorphism everything is governed by: similarity of ratio r sends
lambda to lambda r^2 keeping (p, nu); negalitude of ratio r sends lambda to
-lambda r^2 swapping p <-> m and nu <-> -nu; both fix the origin.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError
from .pseudospace import AffineMap, Signature, classify_affine_map
from .projconn import (ProjectiveMap, QuadraticFunction, QuadraticPotential,
                       is_flat)

__all__ = [
    "CanonicalModel",
    "DomainFacts",
    "ClassificationResult",
    "IsomorphismCheck",
    "parse_model",
    "format_model",
    "contains",
    "chord_quadratic",
    "segment_margin",
    "arc_margin",
    "domain_facts",
    "stiffness_check",
    "classify",
    "rescale",
    "is_isomorphism",
    "automorphism_descriptor",
    "relative_scalar_curvature",
    "interior_point",
    "sample_domain_points",
]

BRANCH_WHOLE = "whole"
BRANCH_RIGHT = "right"
BRANCH_LEFT = "left"


def _branch_coordinate(sig: Signature, lam: float, nu: int) -> Optional[int]:
    """0-based index of the coordinate splitting the domain, or None."""
    if sig.p == 1 and nu > 0 and lam <= 0:
        return 0
    if sig.m == 1 and nu < 0 and lam >= 0:
        return sig.d - 1
    return None


@dataclass(frozen=True)
class CanonicalModel:
    """S^nu_lambda(p, m), optionally restricted to one branch of its domain."""

    sig: Signature
    lam: float
    nu: int
    branch: str = "auto"

    def __post_init__(self):
        if self.nu not in (+1, -1):
            raise ValueError("nu must be +1 or -1")
        if self.nu < 0 and self.sig.m == 0 and self.lam >= 0:
            raise ValueError(f"S^-_{self.lam}({self.sig.p},0) is empty")
        if self.nu > 0 and self.sig.p == 0 and self.lam <= 0:
            raise ValueError(f"S^+_{self.lam}(0,{self.sig.m}) is empty")
        bc = _branch_coordinate(self.sig, self.lam, self.nu)
        branch = self.branch
        if branch == "auto":
            branch = BRANCH_RIGHT if bc is not None else BRANCH_WHOLE
        if branch not in (BRANCH_WHOLE, BRANCH_RIGHT, BRANCH_LEFT):
            raise ValueError(f"unknown branch {branch!r}")
        if branch != BRANCH_WHOLE and bc is None:
            raise ValueError("model domain is connected; no branch to choose")
        object.__setattr__(self, "branch", branch)

    @property
    def d(self) -> int:
        return self.sig.d

    @property
    def branch_coordinate(self) -> Optional[int]:
        return _branch_coordinate(self.sig, self.lam, self.nu)

    def psi(self, x) -> float:
        return self.sig.q(x) + self.lam

    def potential(self) -> QuadraticPotential:
        return QuadraticPotential.canonical(self.sig, self.lam)

    def __str__(self):
        return format_model(self)


_MODEL_RE = re.compile(
    r"^S\(\s*(\d+)\s*,\s*(\d+)\s*;\s*([^;]+?)\s*;\s*([+-])\s*(?:;\s*([LR])\s*)?\)$")


def parse_model(text: str) -> CanonicalModel:
    """Parse "S(p,m;lambda;nu[;L|R])"; omitted branch means the canonical one."""
    mt = _MODEL_RE.match(text.strip())
    if not mt:
        raise ValueError(f"cannot parse model string {text!r}")
    sig = Signature(int(mt.group(1)), int(mt.group(2)))
    lam = float(mt.group(3))
    nu = +1 if mt.group(4) == "+" else -1
    branch = {"L": BRANCH_LEFT, "R": BRANCH_RIGHT, None: "auto"}[mt.group(5)]
    return CanonicalModel(sig, lam, nu, branch)


def _fmt_lam(lam: float) -> str:
    if lam == int(lam) and abs(lam) < 1e15:
        return str(int(lam))
    return repr(float(lam))


def format_model(M: CanonicalModel) -> str:
    base = f"S({M.sig.p},{M.sig.m};{_fmt_lam(M.lam)};{'+' if M.nu > 0 else '-'}"
    if M.branch_coordinate is not None and M.branch in (BRANCH_RIGHT, BRANCH_LEFT):
        base += ";R" if M.branch == BRANCH_RIGHT else ";L"
    return base + ")"


def contains(M: CanonicalModel, x) -> bool:
    """Strict domain membership nu (q + lambda) > 0, plus the branch sign."""
    x = np.asarray(x, dtype=float)
    if not M.nu * M.psi(x) > 0.0:  # also refuses NaN
        return False
    bc = M.branch_coordinate
    if bc is not None and M.branch == BRANCH_RIGHT:
        return x[bc] > 0.0
    if bc is not None and M.branch == BRANCH_LEFT:
        return x[bc] < 0.0
    return True


def chord_quadratic(M: CanonicalModel, a, e) -> tuple:
    """(q(e), 2 (a.e)_q, psi(a)): psi(a + s e) = A s^2 + B s + C.  Refuses
    with DomainError when one overflows, as no chord answer is then exact."""
    coeffs = (M.sig.q(e), 2.0 * M.sig.dot(a, e), M.psi(a))
    if not all(map(math.isfinite, coeffs)):
        raise DomainError(f"psi along the chord {a} + s {e} overflows: {coeffs}")
    return coeffs


def segment_margin(M: CanonicalModel, a, b) -> float:
    """Exact minimum of nu psi over [a, b]; -inf if a is outside M.

    psi(a + s e) = A s^2 + B s + C (chord_quadratic) dips below its endpoint
    values only at the vertex s* = -B / (2A), when nu A > 0.  As
    nu psi <= 0 where the branch coordinate vanishes, a path keeping
    nu psi > 0 stays on the branch of its start, and contains(M, a) settles
    the branch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not contains(M, a):
        return -math.inf
    e = b - a
    A, B, C = chord_quadratic(M, a, e)
    margin = min(M.nu * C, M.nu * M.psi(b))
    if M.nu * A > 0.0:
        s = -0.5 * B / A
        if 0.0 < s < 1.0:
            margin = min(margin, M.nu * M.psi(a + s * e))
    return margin


def arc_margin(M: CanonicalModel, c0, c1, theta0: float, theta1: float) -> float:
    """Exact minimum of nu psi over C(theta) c0 + S(theta) c1, theta between
    theta0 and theta1; -inf if the start is outside M (see segment_margin).

    (C, S) = (cosh, sinh) if q(c0) q(c1) < 0 (a mixed plane), else (cos, sin),
    and psi = alpha + beta C(2 theta) + gamma S(2 theta), gamma = (c0.c1)_q.
    A trig arc dips to nu alpha - hypot(beta, gamma) once per period; a
    hyperbolic one only when |gamma| < |beta| and nu beta > 0, to
    nu alpha + sqrt(beta^2 - gamma^2) at tanh(2 theta) = -gamma/beta.
    """
    c0 = np.asarray(c0, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    q0, q1, gamma = M.sig.q(c0), M.sig.q(c1), M.sig.dot(c0, c1)
    hyp = q0 * q1 < 0.0
    C, S = (math.cosh, math.sinh) if hyp else (math.cos, math.sin)
    ends = [C(t) * c0 + S(t) * c1 for t in (theta0, theta1)]
    if not contains(M, ends[0]):
        return -math.inf
    nu, lo, hi = M.nu, min(theta0, theta1), max(theta0, theta1)
    margin = min(nu * M.psi(x) for x in ends)
    alpha = M.lam + 0.5 * (q0 - q1 if hyp else q0 + q1)
    beta = 0.5 * (q0 + q1 if hyp else q0 - q1)
    if hyp and abs(gamma) < abs(beta) and nu * beta > 0.0:
        g = gamma / beta
        if lo < 0.5 * math.atanh(-g) < hi:
            margin = min(margin, nu * alpha + abs(beta) * math.sqrt(1.0 - g * g))
    elif not hyp and (beta or gamma):
        # nu psi = nu alpha + nu hypot(beta, gamma) cos(2 theta - phi)
        t = 0.5 * (math.atan2(gamma, beta) + (math.pi if nu > 0 else 0.0))
        if t + math.pi * math.ceil((lo - t) / math.pi) <= hi:
            margin = min(margin, nu * alpha - math.hypot(beta, gamma))
    return margin


@dataclass(frozen=True)
class DomainFacts:
    empty: bool
    connected: bool
    simply_connected: bool
    bounded: bool
    contains_origin: bool


def domain_facts(M: CanonicalModel) -> DomainFacts:
    """Topology of the model domain.

    If nu lambda > 0 the domain contains 0 and deformation retracts to it;
    otherwise it retracts to a sphere S^{n-1} with n = p for nu = + and n = m
    for nu = -.  Boundedness holds exactly when the q-definite directions all
    oppose nu (p = 0 for nu = +, m = 0 for nu = -); the empty set counts as
    bounded.
    """
    p, m = M.sig.p, M.sig.m
    n = p if M.nu > 0 else m
    bounded = (M.nu > 0 and p == 0) or (M.nu < 0 and m == 0)
    if M.nu * M.lam > 0:
        return DomainFacts(False, True, True, bounded, True)
    if M.branch in (BRANCH_RIGHT, BRANCH_LEFT) and M.branch_coordinate is not None:
        # one component of the S^0 split; each component is contractible
        return DomainFacts(False, True, True, bounded, False)
    empty = n == 0  # unreachable for constructible models, kept for completeness
    connected = (not empty) and n != 1
    simply_connected = connected and n >= 3
    return DomainFacts(empty, connected, simply_connected, bounded, False)


def stiffness_check(P: Union[QuadraticPotential, QuadraticFunction],
                    tol: float = 1e-9) -> bool:
    """Is the quadratic a stiff potential for its coordinates' scalar product?

    Requires the Gram matrix to be nondegenerate and the quadratic part to be
    proportional to it (Hessian = K * gram pattern).  Exact for quadratic
    data up to floating round-off.
    """
    if isinstance(P, QuadraticPotential):
        return True
    gram = P.gram
    k = P.dim
    gscale = max(1.0, float(np.abs(gram).max()))
    if abs(np.linalg.det(gram)) <= 1e-9 * gscale ** k:
        return False
    denom = float(np.sum(gram * gram))
    khalf = float(np.sum(P.Q * gram)) / denom
    resid = float(np.abs(P.Q - khalf * gram).max())
    return resid <= tol * max(1.0, float(np.abs(P.Q).max()))


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str                      # "model" or "flat"
    model: Optional[CanonicalModel]
    reducing_map: Optional[AffineMap]  # y = N (x - center) / r, pushes psi to q + lambda
    scale: Optional[float]
    flattening: Optional[ProjectiveMap]
    mode: str
    notes: tuple


def _flattening_map(P: QuadraticPotential) -> Optional[ProjectiveMap]:
    """Projective chart change trivializing a flat (K = 0) connection.

    psi is affine; any projective map with denominator psi works.  Returns
    None when psi is constant (the chart is already flat).
    """
    lin, c = P.lin, P.const
    linmax = float(np.abs(lin).max()) if lin.size else 0.0
    if linmax <= 1e-12 * max(1.0, abs(c)):
        return None
    d = P.sig.d
    candidates = [np.zeros(d)]
    n2 = float(np.dot(lin, lin))
    if n2 > 0:
        candidates += [-lin / n2, lin / n2]
    for w in candidates:
        det = c - float(np.dot(lin, w))
        if abs(det) > 0.25 * max(1.0, abs(c)):
            return ProjectiveMap.from_parts(np.eye(d), w, lin, c)
    raise RuntimeError("no well-conditioned flattening denominator found")


def classify(P: QuadraticPotential, basepoint, mode: str = "similarity",
             tol: float = 1e-12) -> ClassificationResult:
    """Reduce a stiff potential to its canonical model through basepoint.

    Completes the square: center x_c = -diag(eps) lin / K, remainder
    k = psi(x_c), so psi(x_c + r y) = (K r^2 / 2)(q(y) + 2k/(K r^2)).  In
    similarity mode r is chosen to put lambda in {-1, 0, 1}; in isometry mode
    r = 1 and lambda = 2k/K is kept as is.  The sign of psi at the basepoint
    (after normalizing K > 0) fixes nu, and a basepoint in the left component
    of a split domain is moved to the canonical right one by the
    orientation-preserving flip negating x_1 and x_d.
    """
    if mode not in ("similarity", "isometry"):
        raise ValueError("mode must be 'similarity' or 'isometry'")
    basepoint = np.asarray(basepoint, dtype=float)
    notes: list[str] = []
    if is_flat(P):
        flat_map = _flattening_map(P)
        if flat_map is None:
            notes.append("potential is constant; chart already flat")
        return ClassificationResult("flat", None, None, None, flat_map, mode,
                                    tuple(notes))

    K, lin, c = P.K, P.lin.copy(), P.const
    if K < 0:
        # psi and -psi define the same connection; normalize the leading sign
        K, lin, c = -K, -lin, -c
        notes.append("potential negated: psi is a sign gauge and K > 0 is canonical")
    Pw = QuadraticPotential(P.sig, K, lin, c)
    psi_bp = Pw.psi_checked(basepoint)

    center = -(P.sig.eps * lin) / K
    k_eff = Pw.psi(center)
    coeff_scale = max(1.0, abs(K), float(np.abs(lin).max()) if lin.size else 0.0,
                      abs(c))
    if mode == "similarity":
        if abs(k_eff) <= tol * coeff_scale:
            lam, r = 0.0, 1.0
            notes.append("lambda = 0 leaves the scale free; r = 1 chosen")
        else:
            lam = 1.0 if k_eff > 0 else -1.0
            r = float(np.sqrt(2.0 * abs(k_eff) / K))
    else:
        lam, r = 2.0 * k_eff / K, 1.0

    nu = +1 if psi_bp > 0 else -1
    y_bp = (basepoint - center) / r
    N = np.eye(P.sig.d)
    bc = _branch_coordinate(P.sig, lam, nu)
    if bc is not None and y_bp[bc] < 0:
        # move the basepoint to the canonical branch; negating the first and
        # last coordinates preserves q and orientation (d >= 2)
        N[0, 0] = -1.0
        N[-1, -1] = -1.0
        y_bp = N @ y_bp
        notes.append("basepoint lay in the left component; composed with the "
                     "double sign flip onto the canonical branch")
    model = CanonicalModel(P.sig, lam, nu)
    reducing = AffineMap(N / r, -(N @ center) / r)
    if not contains(model, y_bp):
        raise RuntimeError("internal error: reduced basepoint left the model domain")
    return ClassificationResult("model", model, reducing, r, None, mode, tuple(notes))


def rescale(M: CanonicalModel, r: float) -> CanonicalModel:
    """Image of the model under x -> r x: lambda becomes lambda r^2."""
    if r <= 0:
        raise ValueError("scaling ratio must be positive")
    return CanonicalModel(M.sig, M.lam * r * r, M.nu, M.branch)


def interior_point(M: CanonicalModel) -> np.ndarray:
    """A deterministic point of the model domain."""
    d = M.sig.d
    if M.nu * M.lam > 0:
        return np.zeros(d)
    x = np.zeros(d)
    scale = float(np.sqrt(1.0 + abs(M.lam)))
    if M.nu > 0:
        idx = 0          # needs p >= 1, guaranteed for nonempty models
    else:
        idx = d - 1      # needs m >= 1, same reasoning
    x[idx] = scale if M.branch != BRANCH_LEFT else -scale
    if not contains(M, x):
        raise RuntimeError("internal error: interior point construction failed")
    return x


def sample_domain_points(M: CanonicalModel, n: int = 3) -> list:
    """A few deterministic points in the domain, for map and branch checks."""
    x0 = interior_point(M)
    pts = [x0]
    step = 0.05
    k = 0
    while len(pts) < n and k < 8 * M.sig.d:
        i = k % M.sig.d
        delta = np.zeros(M.sig.d)
        delta[i] = step * (1 + k // M.sig.d)
        for cand in (x0 + delta, x0 - delta):
            if len(pts) < n and contains(M, cand):
                pts.append(cand)
        k += 1
    return pts


@dataclass(frozen=True)
class IsomorphismCheck:
    ok: bool
    kind: Optional[str]      # "isometry", "similarity" or "negalitude"
    ratio: Optional[float]
    note: str = ""

    def __bool__(self):
        return self.ok


def is_isomorphism(Ma: CanonicalModel, Mb: CanonicalModel, f: AffineMap,
                   tol: float = 1e-9) -> IsomorphismCheck:
    """Does f carry model Ma onto model Mb?

    Isomorphisms fix the origin.  A similarity of ratio r requires identical
    signatures, lambda_b = lambda_a r^2 and nu_b = nu_a; a negalitude requires
    the swapped signature (m, p), lambda_b = -lambda_a r^2 and nu_b = -nu_a
    and is flagged, since it reverses the sign of the scalar product.
    Branch compatibility is verified on sample points.
    """
    if float(np.abs(f.translation).max()) > tol:
        return IsomorphismCheck(False, None, None, "does not fix the origin")
    kind = classify_affine_map(Ma.sig, Mb.sig, f, tol=tol)
    if kind.kind == "other":
        return IsomorphismCheck(False, None, None, "not a similarity or negalitude")
    r2 = kind.ratio * kind.ratio
    lam_scale = max(1.0, abs(Ma.lam) * r2, abs(Mb.lam))
    if kind.kind in ("isometry", "similarity"):
        structural = (Ma.sig == Mb.sig and Mb.nu == Ma.nu
                      and abs(Mb.lam - Ma.lam * r2) <= tol * lam_scale)
        note = ""
    else:
        structural = (Mb.sig == Signature(Ma.sig.m, Ma.sig.p) and Mb.nu == -Ma.nu
                      and abs(Mb.lam + Ma.lam * r2) <= tol * lam_scale)
        note = "negalitude, not an isomorphism of pseudo-Euclidean structure"
    if not structural:
        return IsomorphismCheck(False, kind.kind, kind.ratio,
                                "model parameters do not correspond")
    for x in sample_domain_points(Ma):
        if not contains(Mb, f(x)):
            return IsomorphismCheck(False, kind.kind, kind.ratio,
                                    "domains do not map onto each other")
    return IsomorphismCheck(True, kind.kind, kind.ratio, note)


FULL_SIMILARITIES = "full_similarities"
ORTHOCHRONOUS_SIMILARITIES = "orthochronous_similarities"
ANTIORTHOCHRONOUS_SIMILARITIES = "antiorthochronous_similarities"
FULL_ISOMETRIES = "full_isometries"
O_PLUS = "o_plus"
O_MINUS = "o_minus"

_AUTOMORPHISM_TEXT = {
    FULL_SIMILARITIES: "R* . O(E), all similarities",
    ORTHOCHRONOUS_SIMILARITIES: "R* . O+(E), similarities with orthochronous part",
    ANTIORTHOCHRONOUS_SIMILARITIES: "R* . O-(E), similarities with antiorthochronous part",
    FULL_ISOMETRIES: "O(E), all isometries",
    O_PLUS: "O+(E), orthochronous isometries",
    O_MINUS: "O-(E), antiorthochronous isometries",
}


def automorphism_descriptor(M: CanonicalModel) -> str:
    """Symmetry group of the model.

    lambda = 0 models are scale invariant, so their groups contain the
    dilations; lambda != 0 pins the scale and only isometries remain.  A
    split domain (kept branch) restricts to the transformations preserving
    the branch coordinate's sign.
    """
    if M.lam == 0:
        if M.sig.p == 1 and M.nu > 0:
            return ORTHOCHRONOUS_SIMILARITIES
        if M.sig.m == 1 and M.nu < 0:
            return ANTIORTHOCHRONOUS_SIMILARITIES
        return FULL_SIMILARITIES
    if M.sig.p == 1 and M.nu > 0 and M.lam < 0:
        return O_PLUS
    if M.sig.m == 1 and M.nu < 0 and M.lam > 0:
        return O_MINUS
    return FULL_ISOMETRIES


def automorphism_text(descriptor: str) -> str:
    return _AUTOMORPHISM_TEXT[descriptor]


def relative_scalar_curvature(M: CanonicalModel, x) -> float:
    """S(nabla, g) = d(d-1) K / psi with K = 2 on canonical models."""
    x = np.asarray(x, dtype=float)
    if not contains(M, x):
        raise DomainError(f"point {x.tolist()} is outside {M}")
    d = M.sig.d
    return 2.0 * d * (d - 1) / M.psi(x)
