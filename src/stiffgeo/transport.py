"""Parallel transport in canonical models.

General ODE transport along paths, the three closed forms (rays through the
origin, light-cone rays, equipotential arcs), loop holonomies and the
infinitesimal holonomy endomorphisms.  Moving-frame matrices and their ambient
conjugates are both exposed because they live in different bases.  The
closed forms compute the ambient matrix on Python floats, as a low-rank update
of the identity, and build their frames only when one is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .errors import DomainError
from .models import CanonicalModel, arc_margin, contains, segment_margin
from .pseudospace import as_floats, complete_orthonormal, inf_rotation_J, norm2

# refuse paths that come closer to the boundary than this; Gamma ~ 1/psi
REFUSE_PSI = 1e-9


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


PathSpec = Union[Polyline, RaySegment, Arc]


# ---------------------------------------------------------------------------
# transport maps


@dataclass(frozen=True)
class TransportMap:
    """Linear map between tangent spaces produced by parallel transport.

    matrix acts on ambient canonical coordinates.  For the closed forms the
    in-frame matrix and the start/end frames (columns = frame vectors) are
    kept as well, since the two are expressed in different bases.  The frames
    come from frame_builder, which runs the first time one of them is read.
    """

    matrix: np.ndarray
    from_point: np.ndarray
    to_point: np.ndarray
    method: str  # "ODE" | "ClosedForm"
    est_error: float
    moving_matrix: Optional[np.ndarray] = None
    note: str = ""
    frame_builder: Optional[Callable[[], tuple]] = field(
        default=None, repr=False, compare=False)

    @cached_property
    def _frames(self) -> tuple:
        if self.frame_builder is None:
            return None, None
        return self.frame_builder()

    @property
    def frame(self) -> Optional[np.ndarray]:
        return self._frames[0]

    @property
    def frame_to(self) -> Optional[np.ndarray]:
        return self._frames[1]

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
    """omega with omega^2 = s = eps*(q(gamma)-lambda)/(q(gamma)+lambda)."""

    omega: complex
    regime: str  # "Real" | "Imaginary" | "Zero"
    s: float     # omega^2


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
    transported vector.  The kernel runs at rtol = atol = tol *
    kernels.TOL_SCALE.
    """
    tol = _positive_tol(tol)
    d = model.sig.d
    eps = model.sig.eps
    rtol = tol * kernels.TOL_SCALE
    V = np.eye(d)
    err_total = 0.0

    if isinstance(path, Polyline):
        legs = list(zip(path.points[:-1], path.points[1:]))
        # refuse before integrating: a bad last leg must not cost the others
        for a, b in legs:
            _guard(model, segment_margin(model, a, b), "segment")
        for a, b in legs:
            V, err, _ = _refine(
                model,
                kernels.transport_segment(
                    kernels.PATH_LINE, a, b - a, 0.0, 1.0, model.lam, eps, V,
                    rtol=rtol, atol=rtol,
                ),
                "polyline transport",
            )
            err_total += err
        start, end = path.start, path.end
    elif isinstance(path, RaySegment):
        # the scaled e and t of _check_ray: the kernel's steps scale by the
        # same power of two, so its bits change only where a product was
        # subnormal
        e, _, t0, t1, _, _ = _check_ray(model, path)
        V, err_total, _ = _refine(
            model,
            kernels.transport_segment(
                kernels.PATH_LINE, np.zeros(d), e, t0, t1,
                model.lam, eps, V, rtol=rtol, atol=rtol,
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
                model.lam, eps, V, rtol=rtol, atol=rtol,
            ),
            "arc transport",
        )
        start, end = data["start"], data["end"]
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


def _check_ray(model: CanonicalModel, ray: RaySegment) -> tuple:
    """Guard the ray; return e, q(e), t0, t1, the start and the end, on
    floats, with e = 2^k e_r scaled into [0.5, 1) in max norm and t = t_r / 2^k,
    so that e.e neither underflows nor overflows; the scaling is exact."""
    e = as_floats(ray.e_r)
    if not any(e):
        raise ValueError("ray direction e_r must be nonzero")
    k = -math.frexp(max(map(abs, e)))[1]
    e = [math.ldexp(v, k) for v in e]
    try:
        t0, t1 = math.ldexp(ray.t0, -k), math.ldexp(ray.t1, -k)
    except OverflowError:   # then so would the start or the end
        raise _overflow("ray") from None
    qe = model.sig.q_floats(e)
    if abs(qe) < 1e-12 * norm2(e):
        raise DomainError("ray closed form needs q(e_r) != 0; "
                          "use transport_lightcone for null rays")
    start = [t0 * v for v in e]
    end = [t1 * v for v in e]
    _guard(model, segment_margin(model, start, end), "ray segment")
    return e, qe, t0, t1, start, end


def _overflow(what: str) -> DomainError:
    return DomainError(f"transport along the {what} runs past the "
                       "floating-point range")


def _finite_matrix(rows: list, what: str) -> np.ndarray:
    """rows as an array; DomainError if an entry overflowed."""
    if not all(math.isfinite(v) for row in rows for v in row):
        raise _overflow(what)
    return np.array(rows)


def transport_ray(model: CanonicalModel, e_r, t0: float, t1: float) -> TransportMap:
    """Closed-form transport along t -> t*e_r, q(e_r) != 0.

    In a q-orthonormal frame with e_r first the matrix is
    Diag(Lambda^2, Lambda, ..., Lambda) with Lambda = psi(end)/psi(start).
    In ambient coordinates that is Lambda I plus Lambda (Lambda - 1) times
    the q-projector e_r (G e_r)^T / q(e_r) onto the ray, G = diag(eps).  As
    psi(t e_r) = q(e_r) t^2 + lambda, Lambda (Lambda - 1) / q(e_r) is taken as
    Lambda (t1 - t0)(t1 + t0) / psi(start), in which nothing cancels when
    q(e_r) is small.
    """
    ray = RaySegment(e_r, t0, t1)
    e, qe, t0, t1, start, end = _check_ray(model, ray)
    sig = model.sig
    psi0 = model.psi_floats(start)
    lam_ratio = model.psi_floats(end) / psi0
    lam2 = lam_ratio * lam_ratio
    if not math.isfinite(lam2):
        raise _overflow("ray")
    c = lam_ratio * ((t1 - t0) * (t1 + t0)) / psi0
    ge = [g * v for g, v in zip(sig.signs, e)]
    rows = [[c * x * y for y in ge] for x in e]
    for i, row in enumerate(rows):
        row[i] += lam_ratio
    matrix = _finite_matrix(rows, "ray")
    return TransportMap(
        matrix=matrix,
        from_point=np.array(start),
        to_point=np.array(end),
        method="ClosedForm",
        est_error=1e-14 * max(1.0, lam2),
        moving_matrix=np.diag([lam2] + [lam_ratio] * (sig.d - 1)),
        note="frame: e_r first, then q-orthonormal complement",
        frame_builder=partial(_ray_frames, sig, np.array(e) / math.sqrt(abs(qe))),
    )


def _ray_frames(sig, unit: np.ndarray) -> tuple:
    """The ray's frame (unit e_r first), at both ends."""
    frame = complete_orthonormal(sig, [unit])
    return frame, frame


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

    eps is -1 for mixed (1,1) planes, +1 for definite planes.  The regime is
    the exact sign of s; transport_arc's guard has already refused arcs near
    psi = q_gamma + lambda = 0.
    """
    lam = model.lam
    if q_gamma + lam == 0.0:
        raise DomainError("arc lies on the boundary psi = 0")
    s = eps * (q_gamma - lam) / (q_gamma + lam)
    if s == 0.0:
        return CharacteristicFrequency(omega=0j, regime="Zero", s=s)
    if s > 0:
        return CharacteristicFrequency(omega=complex(math.sqrt(s), 0.0),
                                       regime="Real", s=s)
    return CharacteristicFrequency(omega=complex(0.0, math.sqrt(-s)),
                                   regime="Imaginary", s=s)


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
    u, w = as_floats(arc.u), as_floats(arc.w)
    qu = sig.q_floats(u)
    qw = sig.q_floats(w)
    if abs(abs(qu) - 1.0) > 1e-9 or abs(abs(qw) - 1.0) > 1e-9:
        raise ValueError("arc plane vectors must be q-unit")
    if abs(sig.dot_floats(u, w)) > 1e-9:
        raise ValueError("arc plane vectors must be q-orthogonal")
    eps_pm = int(round(qu * qw))
    r = arc.r
    c0 = [r * v for v in u]
    c1 = [r * v for v in w]
    try:
        margin = arc_margin(model, c0, c1, arc.theta0, arc.theta1)
    except OverflowError:
        raise DomainError(f"arc from theta = {arc.theta0} to {arc.theta1} runs "
                          "past the floating-point range") from None
    _guard(model, margin, "arc")
    C, S = (math.cos, math.sin) if eps_pm > 0 else (math.cosh, math.sinh)

    def point(th: float) -> np.ndarray:
        ct, st = C(th), S(th)
        return np.array([ct * x + st * y for x, y in zip(c0, c1)])

    return {
        "kind": kernels.PATH_TRIG if eps_pm > 0 else kernels.PATH_HYP,
        "u": u,
        "w": w,
        "c0": c0,
        "c1": c1,
        "eps_pm": eps_pm,
        "q_gamma": r * r * qu,
        "signs": (math.copysign(1.0, qu), math.copysign(1.0, qw)),
        "start": point(arc.theta0),
        "end": point(arc.theta1),
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
        u, w = np.zeros(model.sig.d), np.zeros(model.sig.d)
        u[i - 1] = w[j - 1] = 1.0
        return Arc(u, w, r, theta0, theta1)
    u, w = plane
    return Arc(u, w, r, theta0, theta1)


def transport_arc(model: CanonicalModel, plane, r: float, theta0: float,
                  theta1: float) -> TransportMap:
    """Closed-form transport along an equipotential arc.

    plane: canonical index pair (i, j) with i < j, or a q-orthonormal vector
    pair (u, w).  The in-plane part is the oscillator matrix M2 in the moving
    frame (e_r, e_theta); the q-orthocomplement of the plane is preserved
    pointwise.  With A(theta) = [g/r, g'/r] (d x 2) and D = diag(q(u), q(w)),
    the frame is q-orthonormal, so its inverse is D A^T G on the plane and
    the complement cancels: M = I - P + A(theta1) M2 D A(theta0)^T G, where
    P = A D A^T G is the q-projector onto the plane, the same at every theta.
    It is taken at A = [u, w], whose entries are O(1): at a far theta0 the
    entries of A(theta0) D A(theta0)^T G carry errors of eps |A(theta0)|^2.
    """
    arc = path_arc(model, plane, r, theta0, theta1)
    if arc.r == 0.0:
        raise DomainError("an arc of radius 0 is a point: it has no moving frame")
    data = _arc_data(model, arc)
    sig = model.sig
    d = sig.d
    eps_pm = data["eps_pm"]
    freq = characteristic_frequency(model, data["q_gamma"], eps_pm)
    t = arc.theta1 - arc.theta0
    try:
        M2 = oscillator_matrix(freq.s, eps_pm, t)
    except OverflowError:
        raise _overflow("arc") from None
    (m00, m01), (m10, m11) = M2.tolist()
    c0, c1, r = data["c0"], data["c1"], arc.r
    trig = eps_pm > 0

    def columns(th: float) -> tuple:
        """g/r and g'/r at theta, as lists of floats."""
        ct, st = (math.cos(th), math.sin(th)) if trig else (math.cosh(th), math.sinh(th))
        dc = -st if trig else st
        return ([(ct * x + st * y) / r for x, y in zip(c0, c1)],
                [(dc * x + ct * y) / r for x, y in zip(c0, c1)])

    a0, b0 = columns(arc.theta0)
    a1, b1 = columns(arc.theta1)
    # the columns of A(theta1) M2, and the rows of D A^T G at theta0 and at
    # A = [u, w]
    p = [m00 * x + m10 * y for x, y in zip(a1, b1)]
    pp = [m01 * x + m11 * y for x, y in zip(a1, b1)]
    du, dw = data["signs"]
    u, w = data["u"], data["w"]
    ra, rb, ru, rw = ([dd * g * x for g, x in zip(sig.signs, col)]
                      for dd, col in ((du, a0), (dw, b0), (du, u), (dw, w)))
    rows = []
    for i in range(d):
        # (I - P) first: on a coordinate plane it is exactly 0 inside the
        # plane, so there the answer is the product term alone
        ip = [-(u[i] * ru[j] + w[i] * rw[j]) for j in range(d)]
        ip[i] += 1.0
        rows.append([y + (p[i] * ra[j] + pp[i] * rb[j]) for j, y in enumerate(ip)])
    matrix = _finite_matrix(rows, "arc")
    moving = np.eye(d)
    moving[:2, :2] = M2
    return TransportMap(
        matrix=matrix,
        from_point=data["start"],
        to_point=data["end"],
        method="ClosedForm",
        est_error=1e-13 * max(1.0, float(np.abs(M2).max())),
        moving_matrix=moving,
        note=f"moving frame (e_r, e_theta); omega regime {freq.regime}; "
             "increasing theta rotates u toward w",
        frame_builder=partial(_arc_frames, sig, arc, (a0, b0), (a1, b1)),
    )


def _arc_frames(sig, arc: Arc, cols0: tuple, cols1: tuple) -> tuple:
    """The frames (g/r, g'/r, q-orthonormal complement) at the arc's ends."""
    comp = complete_orthonormal(sig, [arc.u, arc.w])[:, 2:]
    return (np.column_stack([*cols0, comp]), np.column_stack([*cols1, comp]))


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
    if isinstance(loop, Polyline):
        a, b = loop.start, loop.end
    elif isinstance(loop, Arc):
        data = _arc_data(model, loop)
        a, b = data["start"], data["end"]
    else:
        raise TypeError("holonomy needs a closable path (polyline or arc)")
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
