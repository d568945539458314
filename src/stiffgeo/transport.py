"""Parallel transport in canonical models.

General ODE transport along paths, the three closed forms (rays through the
origin, light-cone rays, equipotential arcs), loop holonomies and the
infinitesimal holonomy endomorphisms.  Moving-frame matrices and their ambient
conjugates are both exposed because they live in different bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .errors import DomainError
from .models import CanonicalModel, arc_margin, contains, segment_margin
from .pseudospace import complete_orthonormal, inf_rotation_J

# refuse paths that come closer to the boundary than this; Gamma ~ 1/psi
REFUSE_PSI = 1e-9
_GUARD_SAMPLES = 257


# ---------------------------------------------------------------------------
# path specifications


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _positive_tol(tol) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return tol


def _finite_vector(name: str, value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must have finite entries")
    return value


@dataclass(frozen=True)
class Polyline:
    """Piecewise-linear path through the listed points (in order)."""

    points: tuple

    def __init__(self, points: Sequence) -> None:
        pts = tuple(np.asarray(p, dtype=float) for p in points)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two points")
        object.__setattr__(self, "points", pts)

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]


@dataclass(frozen=True)
class Parametric:
    """Path given by a callable t -> point on [t0, t1].

    The derivative is taken by central differences unless dfn is supplied;
    samples controls the in-domain guard density.
    """

    fn: Callable[[float], np.ndarray]
    t0: float
    t1: float
    dfn: Optional[Callable[[float], np.ndarray]] = None
    samples: int = _GUARD_SAMPLES

    @property
    def start(self) -> np.ndarray:
        return np.asarray(self.fn(self.t0), dtype=float)

    @property
    def end(self) -> np.ndarray:
        return np.asarray(self.fn(self.t1), dtype=float)

    def velocity(self, t: float) -> np.ndarray:
        if self.dfn is not None:
            return np.asarray(self.dfn(t), dtype=float)
        h = 1e-7 * max(1.0, abs(t))
        fp = np.asarray(self.fn(t + h), dtype=float)
        fm = np.asarray(self.fn(t - h), dtype=float)
        return (fp - fm) / (2 * h)


@dataclass(frozen=True)
class RaySegment:
    """Segment t -> t*e_r of a ray through the origin, t in [t0, t1]."""

    e_r: np.ndarray
    t0: float
    t1: float

    def __init__(self, e_r, t0: float, t1: float) -> None:
        object.__setattr__(self, "e_r", _finite_vector("e_r", e_r))
        object.__setattr__(self, "t0", _finite("t0", t0))
        object.__setattr__(self, "t1", _finite("t1", t1))

    @property
    def start(self) -> np.ndarray:
        return self.t0 * self.e_r

    @property
    def end(self) -> np.ndarray:
        return self.t1 * self.e_r


@dataclass(frozen=True)
class Arc:
    """Equipotential arc of radius r in the plane spanned by a q-orthonormal
    pair (u, w).

    Definite planes (q(u)q(w) = 1) carry circular arcs
    r*(cos(theta) u + sin(theta) w); mixed planes carry hyperbola branches
    r*(cosh(theta) u + sinh(theta) w), which stay on the leaf q = r^2 q(u).
    Increasing theta rotates u toward w; with a canonical index pair (i, j),
    i < j, that is the positive orientation.  Trig-vs-hyp routing needs the
    form, so points are produced by _arc_data against a model.
    """

    u: np.ndarray
    w: np.ndarray
    r: float
    theta0: float
    theta1: float

    def __init__(self, u, w, r: float, theta0: float, theta1: float) -> None:
        object.__setattr__(self, "u", _finite_vector("u", u))
        object.__setattr__(self, "w", _finite_vector("w", w))
        object.__setattr__(self, "r", _finite("r", r))
        object.__setattr__(self, "theta0", _finite("theta0", theta0))
        object.__setattr__(self, "theta1", _finite("theta1", theta1))


PathSpec = Union[Polyline, Parametric, RaySegment, Arc]


# ---------------------------------------------------------------------------
# transport maps


@dataclass(frozen=True)
class TransportMap:
    """Linear map between tangent spaces produced by parallel transport.

    matrix acts on ambient canonical coordinates.  For the closed forms the
    in-frame matrix and the start/end frames (columns = frame vectors) are
    kept as well, since the two are expressed in different bases.
    """

    matrix: np.ndarray
    from_point: np.ndarray
    to_point: np.ndarray
    method: str  # "ODE" | "ClosedForm"
    est_error: float
    frame: Optional[np.ndarray] = None
    frame_to: Optional[np.ndarray] = None
    moving_matrix: Optional[np.ndarray] = None
    note: str = ""

    def apply(self, v) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def to_json_dict(self) -> dict:
        out = {
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "from": [float(v) for v in self.from_point],
            "to": [float(v) for v in self.to_point],
            "method": self.method,
            "est_error": float(self.est_error),
        }
        if self.frame is not None:
            out["frame"] = [[float(v) for v in col] for col in self.frame.T]
        if self.moving_matrix is not None:
            out["moving_matrix"] = [
                [float(v) for v in row] for row in self.moving_matrix
            ]
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class CharacteristicFrequency:
    """omega with omega^2 = eps*(q(gamma)-lambda)/(q(gamma)+lambda)."""

    omega: complex
    regime: str  # "Real" | "Imaginary" | "Zero"


# ---------------------------------------------------------------------------
# domain guards


def _guard(model: CanonicalModel, margin: float, what: str) -> None:
    """Refuse a path whose smallest nu*psi is not above REFUSE_PSI (or NaN)."""
    if not margin > 0.0:
        raise DomainError(f"{what} leaves the domain of {model}")
    if margin < REFUSE_PSI:
        raise DomainError(
            f"{what} passes within {REFUSE_PSI} of the boundary psi = 0"
        )


# ---------------------------------------------------------------------------
# ODE transport


def _refine(model: CanonicalModel, result, what: str):
    V, err, steps, status = result
    if status == kernels.STATUS_BOUNDARY:
        raise DomainError(f"{what}: path reached the boundary psi = 0 of {model}")
    kernels.raise_for_status(status, what)
    return V, err, steps


def transport_ode(model: CanonicalModel, path: PathSpec,
                  tol: float = 1e-10) -> TransportMap:
    """Parallel transport along path by integrating the transport ODE.

    The full matrix is produced by transporting a basis; apply(v) gives the
    transported vector.
    """
    tol = _positive_tol(tol)
    d = model.sig.d
    eps = model.sig.eps
    V = np.eye(d)
    err_total = 0.0

    if isinstance(path, Polyline):
        for a, b in zip(path.points[:-1], path.points[1:]):
            _guard(model, segment_margin(model, a, b), "segment")
            V, err, _ = _refine(
                model,
                kernels.transport_segment(
                    kernels.PATH_LINE, a, b - a, 0.0, 1.0, model.lam, eps, V,
                    rtol=tol, atol=tol,
                ),
                "polyline transport",
            )
            err_total += err
        start, end = path.start, path.end
    elif isinstance(path, RaySegment):
        _check_ray(model, path)
        V, err_total, _ = _refine(
            model,
            kernels.transport_segment(
                kernels.PATH_LINE, np.zeros(d), path.e_r, path.t0, path.t1,
                model.lam, eps, V, rtol=tol, atol=tol,
            ),
            "ray transport",
        )
        start, end = path.start, path.end
    elif isinstance(path, Arc):
        data = _arc_data(model, path)
        V, err_total, _ = _refine(
            model,
            kernels.transport_segment(
                data["kind"], data["c0"], data["c1"], path.theta0, path.theta1,
                model.lam, eps, V, rtol=tol, atol=tol,
            ),
            "arc transport",
        )
        start, end = data["start"], data["end"]
    elif isinstance(path, Parametric):
        ts = np.linspace(path.t0, path.t1, path.samples)
        pts = np.array([np.asarray(path.fn(t), dtype=float) for t in ts])
        # user callables have no closed-form psi: guard on the samples
        psi = (pts * pts * eps).sum(axis=1) + model.lam
        _guard(model, float(np.min(model.nu * psi)), "parametric path")
        if not all(contains(model, x) for x in pts):
            raise DomainError(f"parametric path leaves the {model.branch} "
                              f"branch of {model}")

        def rhs(t, y):
            g = np.asarray(path.fn(t), dtype=float)
            dg = path.velocity(t)
            psi = model.lam + float((eps * g) @ g)
            if abs(psi) < 1e-12:
                raise kernels.reference._BoundaryHit()
            W = y.reshape(d, d)
            pg = float((eps * g) @ dg)
            return ((2.0 / psi) * (pg * W + np.outer(dg, (eps * g) @ W))).ravel()

        y, err_total, _ = kernels.integrate_adaptive(
            rhs, path.t0, path.t1, V.ravel(), rtol=tol, atol=tol
        )
        V = y.reshape(d, d)
        start, end = path.start, path.end
    else:
        raise TypeError(f"unsupported path specification: {type(path).__name__}")

    return TransportMap(
        matrix=V,
        from_point=start,
        to_point=end,
        method="ODE",
        est_error=err_total,
    )


# ---------------------------------------------------------------------------
# closed form: rays through the origin


def _check_ray(model: CanonicalModel, ray: RaySegment) -> None:
    ee = float(ray.e_r @ ray.e_r)
    if ee == 0.0:
        raise ValueError("ray direction e_r must be nonzero")
    if abs(model.sig.q(ray.e_r)) < 1e-12 * ee:
        raise DomainError("ray closed form needs q(e_r) != 0; "
                          "use transport_lightcone for null rays")
    _guard(model, segment_margin(model, ray.start, ray.end), "ray segment")


def transport_ray(model: CanonicalModel, e_r, t0: float, t1: float) -> TransportMap:
    """Closed-form transport along t -> t*e_r, q(e_r) != 0.

    In a q-orthonormal frame with e_r first the matrix is
    Diag(Lambda^2, Lambda, ..., Lambda) with Lambda = psi(end)/psi(start).
    """
    ray = RaySegment(e_r, t0, t1)
    _check_ray(model, ray)
    sig = model.sig
    qe = sig.q(ray.e_r)
    unit = ray.e_r / math.sqrt(abs(qe))
    frame = complete_orthonormal(sig, [unit])
    lam_ratio = model.psi(ray.end) / model.psi(ray.start)
    moving = np.diag([lam_ratio**2] + [lam_ratio] * (sig.d - 1))
    matrix = frame @ moving @ np.linalg.inv(frame)
    return TransportMap(
        matrix=matrix,
        from_point=ray.start,
        to_point=ray.end,
        method="ClosedForm",
        est_error=1e-14 * max(1.0, abs(lam_ratio) ** 2),
        frame=frame,
        frame_to=frame,
        moving_matrix=moving,
        note="frame: e_r first, then q-orthonormal complement",
    )


def transport_lightcone(model: CanonicalModel, e_r, f0: float, f1: float,
                        v0) -> np.ndarray:
    """Transport along a light-cone ray f -> f*e_r (q(e_r) = 0), lambda != 0.

    v = v0 + (e_r . v0)_q (f1^2 - f0^2)/lambda * e_r; vectors q-orthogonal to
    e_r are constant.
    """
    e_r = np.asarray(e_r, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    sig = model.sig
    if model.lam == 0:
        raise DomainError("lambda = 0: the light cone is not in the domain")
    if abs(sig.q(e_r)) > 1e-9 * max(1.0, float(e_r @ e_r)):
        raise DomainError("lightcone transport needs a null direction q(e_r) = 0")
    for f in (f0, f1):
        if not contains(model, f * e_r):
            raise DomainError(f"cone point {f}*e_r outside model {model}")
    return v0 + sig.dot(e_r, v0) * (f1**2 - f0**2) / model.lam * e_r


# ---------------------------------------------------------------------------
# closed form: equipotential arcs


def characteristic_frequency(model: CanonicalModel, q_gamma: float,
                             eps: int) -> CharacteristicFrequency:
    """omega = sqrt(eps (q_gamma - lambda)/(q_gamma + lambda)), Re, Im >= 0.

    eps is -1 for mixed (1,1) planes, +1 for definite planes.
    """
    lam = model.lam
    if abs(q_gamma + lam) < 1e-14 * max(abs(q_gamma), abs(lam), 1.0):
        raise DomainError("arc lies on the boundary psi = 0")
    if abs(q_gamma) < 1e-14:
        raise DomainError("q(gamma) = 0: arc degenerates to the light cone")
    s = eps * (q_gamma - lam) / (q_gamma + lam)
    if abs(q_gamma - lam) < 1e-14 * max(abs(q_gamma), abs(lam), 1.0):
        return CharacteristicFrequency(omega=0j, regime="Zero")
    if s > 0:
        return CharacteristicFrequency(omega=complex(math.sqrt(s), 0.0), regime="Real")
    return CharacteristicFrequency(omega=complex(0.0, math.sqrt(-s)), regime="Imaginary")


def _cosh_like(s: float, t: float) -> float:
    """cosh(sqrt(s) t) continued through s <= 0 (cos for s < 0)."""
    z = s * t * t
    if abs(z) < 1e-8:
        return 1.0 + z / 2.0 + z * z / 24.0 + z * z * z / 720.0
    if s > 0:
        return math.cosh(math.sqrt(s) * t)
    return math.cos(math.sqrt(-s) * t)


def _sinhc_like(s: float, t: float) -> float:
    """sinh(sqrt(s) t)/sqrt(s) continued through s <= 0 (sin variant)."""
    z = s * t * t
    if abs(z) < 1e-8:
        return t * (1.0 + z / 6.0 + z * z / 120.0 + z * z * z / 5040.0)
    w = math.sqrt(abs(s))
    if s > 0:
        return math.sinh(w * t) / w
    return math.sin(w * t) / w


def oscillator_matrix(s: float, eps: int, t: float) -> np.ndarray:
    """Moving-frame transport over an arc of parameter length t.

    Solves [a', b'] = [[0, eps], [eps*s, 0]] [a, b] with s = omega^2:
    [[C, eps*S], [eps*s*S, C]] where C = cosh(wt) or cos, S = sinh(wt)/w or
    sin(wt)/w.  At s = 0 this is the unipotent shear [[1, eps*t], [0, 1]],
    not the identity: the radial component grows linearly even on the
    omega = 0 leaf, as direct integration of the transport ODE confirms.
    """
    C = _cosh_like(s, t)
    S = _sinhc_like(s, t)
    return np.array([[C, eps * S], [eps * s * S, C]])


def _arc_data(model: CanonicalModel, arc: Arc) -> dict:
    sig = model.sig
    qu = sig.q(arc.u)
    qw = sig.q(arc.w)
    if abs(abs(qu) - 1.0) > 1e-9 or abs(abs(qw) - 1.0) > 1e-9:
        raise ValueError("arc plane vectors must be q-unit")
    if abs(sig.dot(arc.u, arc.w)) > 1e-9:
        raise ValueError("arc plane vectors must be q-orthogonal")
    eps_pm = int(round(qu * qw))
    c0 = arc.r * arc.u
    c1 = arc.r * arc.w
    kind = kernels.PATH_TRIG if eps_pm > 0 else kernels.PATH_HYP
    if eps_pm > 0:
        pnt = lambda th: math.cos(th) * c0 + math.sin(th) * c1
    else:
        pnt = lambda th: math.cosh(th) * c0 + math.sinh(th) * c1
    try:
        margin = arc_margin(model, c0, c1, arc.theta0, arc.theta1)
    except OverflowError:
        raise DomainError(f"arc from theta = {arc.theta0} to {arc.theta1} runs "
                          "past the floating-point range") from None
    _guard(model, margin, "arc")
    return {
        "kind": kind,
        "c0": c0,
        "c1": c1,
        "eps_pm": eps_pm,
        "q_gamma": arc.r**2 * qu,
        "point": pnt,
        "start": pnt(arc.theta0),
        "end": pnt(arc.theta1),
    }


def path_arc(model: CanonicalModel, plane, r: float, theta0: float,
             theta1: float) -> Arc:
    """Arc path in a coordinate plane (i, j) or a q-orthonormal pair (u, w),
    ready for transport_ode or holonomy_loop."""
    if (isinstance(plane, tuple) and len(plane) == 2
            and all(isinstance(i, (int, np.integer)) for i in plane)):
        i, j = plane
        # canonical index pair, 1-based, i < j fixes the positive orientation
        if not (1 <= i < j <= model.sig.d):
            raise ValueError("plane indices must satisfy 1 <= i < j <= d")
        d = model.sig.d
        u = np.eye(d)[i - 1]
        w = np.eye(d)[j - 1]
        return Arc(u, w, r, theta0, theta1)
    u, w = plane
    return Arc(u, w, r, theta0, theta1)


def transport_arc(model: CanonicalModel, plane, r: float, theta0: float,
                  theta1: float) -> TransportMap:
    """Closed-form transport along an equipotential arc.

    plane: canonical index pair (i, j) with i < j, or a q-orthonormal vector
    pair (u, w).  The in-plane part is the oscillator matrix in the moving
    frame (e_r, e_theta); the q-orthocomplement of the plane is preserved
    pointwise.
    """
    arc = path_arc(model, plane, r, theta0, theta1)
    data = _arc_data(model, arc)
    sig = model.sig
    d = sig.d
    eps_pm = data["eps_pm"]
    s = characteristic_frequency(model, data["q_gamma"], eps_pm)
    s_val = eps_pm * (data["q_gamma"] - model.lam) / (data["q_gamma"] + model.lam)
    t = arc.theta1 - arc.theta0
    try:
        M2 = oscillator_matrix(s_val, eps_pm, t)
    except OverflowError:
        raise DomainError("transport along the arc runs past the "
                          "floating-point range") from None
    moving = np.eye(d)
    moving[:2, :2] = M2

    comp = complete_orthonormal(sig, [arc.u, arc.w])[:, 2:]

    def frame_at(theta: float) -> np.ndarray:
        g = data["point"](theta)
        if eps_pm > 0:
            dg = -math.sin(theta) * data["c0"] + math.cos(theta) * data["c1"]
        else:
            dg = math.sinh(theta) * data["c0"] + math.cosh(theta) * data["c1"]
        cols = [g / arc.r, dg / arc.r]
        return np.column_stack([*cols, comp]) if d > 2 else np.column_stack(cols)

    F0 = frame_at(arc.theta0)
    F1 = frame_at(arc.theta1)
    matrix = F1 @ moving @ np.linalg.inv(F0)
    return TransportMap(
        matrix=matrix,
        from_point=data["start"],
        to_point=data["end"],
        method="ClosedForm",
        est_error=1e-13 * max(1.0, float(np.abs(M2).max())),
        frame=F0,
        frame_to=F1,
        moving_matrix=moving,
        note=f"moving frame (e_r, e_theta); omega regime {s.regime}; "
             "increasing theta rotates u toward w",
    )


# ---------------------------------------------------------------------------
# holonomy


def infinitesimal_holonomy(model: CanonicalModel, x, i: int, j: int) -> np.ndarray:
    """M(i,j) = (2/psi(x)) * J(i,j); entries are -R_{ijk}^l."""
    x = np.asarray(x, dtype=float)
    if not contains(model, x):
        raise DomainError(f"point {x} outside model {model}")
    if i == j:
        raise ValueError("need two distinct coordinate indices")
    return (2.0 / model.psi(x)) * inf_rotation_J(model.sig, i, j)


def holonomy_loop(model: CanonicalModel, loop: PathSpec,
                  tol: float = 1e-10) -> TransportMap:
    """Transport around a closed loop; det of the result must be 1."""
    tol = _positive_tol(tol)
    if isinstance(loop, (Polyline, Parametric)):
        a, b = loop.start, loop.end
    elif isinstance(loop, Arc):
        data = _arc_data(model, loop)
        a, b = data["start"], data["end"]
    else:
        raise TypeError("holonomy needs a closable path (polyline, parametric, arc)")
    if not np.allclose(a, b, atol=1e-9 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("loop is not closed")
    tm = transport_ode(model, loop, tol=tol)
    det = tm.det()
    if abs(det - 1.0) > max(1e-5, 1e3 * tol):
        raise RuntimeError(
            f"holonomy determinant {det} is far from 1; integration too loose"
        )
    return tm


def conjugate_rotation_angle(matrix2: np.ndarray) -> float:
    """Rotation angle of a 2x2 map conjugate to a rotation by a diagonal map.

    For [[cos(th), sin(th)/alpha], [-alpha sin(th), cos(th)]] this recovers
    the angle of vector rotation -th (principal value).
    """
    m = np.asarray(matrix2, dtype=float)
    cos_t = 0.5 * (m[0, 0] + m[1, 1])
    prod = -m[0, 1] * m[1, 0]
    sin_t = math.copysign(math.sqrt(max(prod, 0.0)), m[0, 1])
    return -math.atan2(sin_t, cos_t)


def circle_loop(model: CanonicalModel, r: float,
                plane: tuple = (1, 2)) -> Arc:
    """Full-turn circular loop of radius r in a definite coordinate plane."""
    arc = path_arc(model, plane, r, 0.0, 2.0 * math.pi)
    if _arc_data(model, arc)["eps_pm"] < 0:
        raise ValueError("circular loops need a definite plane (hyperbolic "
                         "arcs never close)")
    return arc
