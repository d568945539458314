"""Conformal metrics attached to a canonical model.

The flat background g = diag(eps), the Ricci tensor read as a metric, and the
isochrone metric h = alpha^2 g / psi^4 in which the straight-line geodesics
of the connection have constant speed.  Includes scalar curvature of h,
volume and curvature form coefficients, Levi-Civita symbols and geodesics of
h, the lambda = 0 flattening map, and the unit-disk comparison table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .errors import DomainError
from .models import CanonicalModel, contains, parse_model

FLAT = "Flat"
RICCI = "Ricci"
ISOCHRONE = "Isochrone"


@dataclass(frozen=True)
class ConformalMetric:
    model: CanonicalModel
    kind: str = ISOCHRONE
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (FLAT, RICCI, ISOCHRONE):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.alpha <= 0:
            raise ValueError("gauge alpha must be positive")


def metric_at(metric: ConformalMetric, x) -> np.ndarray:
    """Coefficient matrix of the metric at x: a multiple of diag(eps)."""
    x = np.asarray(x, dtype=float)
    model = metric.model
    if not contains(model, x):
        raise DomainError(f"point {x} outside model {model}")
    eps = model.sig.eps
    if metric.kind == FLAT:
        return np.diag(eps)
    psi = model.psi(x)
    d = model.sig.d
    if metric.kind == RICCI:
        return ((2 * d - 2) / psi) * np.diag(eps)
    return (metric.alpha**2 / psi**4) * np.diag(eps)


def scalar_curvature_h(model: CanonicalModel, x, alpha: float = 1.0) -> float:
    """S(h) = 8(d-1)(d*lambda - (d-2)q(x)) psi(x)^2 / alpha^2.

    Polynomial in x, hence defined on the closed domain; it vanishes on the
    boundary psi = 0.  For d = 2 it collapses to 16 lambda psi^2.
    """
    x = np.asarray(x, dtype=float)
    d = model.sig.d
    q = model.sig.q(x)
    psi = q + model.lam
    return 8.0 * (d - 1) * (d * model.lam - (d - 2) * q) * psi**2 / alpha**2


def grad_log_factor(model: CanonicalModel, x) -> np.ndarray:
    """Gradient of f = -2 ln|psi|: df_i = -4 eps_i x_i / psi."""
    x = np.asarray(x, dtype=float)
    return -4.0 * model.sig.eps * x / model.psi(x)


def levi_civita_h(model: CanonicalModel, x) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of h = e^{2f} g, f = -2 ln|psi|.

    Conformal change of the flat metric: Gamma^k_ij = delta^k_i df_j +
    delta^k_j df_i - g_ij eps_k df_k.
    """
    x = np.asarray(x, dtype=float)
    if not contains(model, x):
        raise DomainError(f"point {x} outside model {model}")
    d = model.sig.d
    eps = model.sig.eps
    df = grad_log_factor(model, x)
    gamma = np.zeros((d, d, d))
    for k in range(d):
        gamma[k, k, :] += df
        gamma[k, :, k] += df
        gamma[k, :, :] -= np.diag(eps) * (eps[k] * df[k])
    return gamma


# ---------------------------------------------------------------------------
# geodesics of h


@dataclass(frozen=True)
class GeodesicTrace:
    """Sampled h-geodesic: times, points, velocities, and the relative drift
    of the conserved h-speed."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    speed_drift: float
    est_error: float

    def to_csv(self) -> str:
        return trace_csv(self.times, self.points)


def trace_csv(times, points) -> str:
    """CSV text with header t,x1,...,xd and full-precision (repr) floats."""
    d = len(points[0])
    lines = ["t," + ",".join(f"x{i+1}" for i in range(d))]
    for t, p in zip(times, points):
        lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in p]))
    return "\n".join(lines) + "\n"


def h_geodesic_acceleration(model: CanonicalModel, x, v) -> np.ndarray:
    """Acceleration of the h-geodesic flow: (8 (x.v)_q v - 4 q(v) x)/psi."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    sig = model.sig
    return (8.0 * sig.dot(x, v) * v - 4.0 * sig.q(v) * x) / model.psi(x)


def h_geodesic(model: CanonicalModel, x0, v0, t_span: Tuple[float, float],
               tol: float = 1e-10, samples: int = 201,
               alpha: float = 1.0) -> GeodesicTrace:
    """Integrate the h-geodesic from (x0, v0) over t_span, sampling the trace."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"gauge alpha must be finite and positive, got {alpha}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not all(map(math.isfinite, t_span)):
        raise ValueError(f"t_span must be finite, got {t_span}")
    if not contains(model, x0):
        raise DomainError(f"start {x0} outside model {model}")
    grid = np.linspace(t_span[0], t_span[1], samples)
    out, err, _, status = kernels.h_geodesic_sample(
        x0, v0, model.lam, model.sig.eps, grid, rtol=tol, atol=tol
    )
    if status == kernels.STATUS_BOUNDARY:
        raise DomainError("h-geodesic reached the boundary psi = 0")
    kernels.raise_for_status(status, "h-geodesic")
    d, eps = model.sig.d, model.sig.eps
    pts, vels = out[:, :d], out[:, d:]
    psi = (pts * pts) @ eps + model.lam
    qv = (vels * vels) @ eps
    speeds = alpha**2 * qv / psi**4
    ref = max(abs(speeds[0]), 1e-300)
    drift = float(np.abs(speeds - speeds[0]).max() / ref)
    return GeodesicTrace(grid, pts, vels, drift, err)


# ---------------------------------------------------------------------------
# volume and curvature forms


def volume_form_coeff(model: CanonicalModel, beta: float, x) -> float:
    """Coefficient of the preserved volume form beta/psi^{d+1} dx_1^...^dx_d."""
    x = np.asarray(x, dtype=float)
    if not contains(model, x):
        raise DomainError(f"point {x} outside model {model}")
    return beta / model.psi(x) ** (model.sig.d + 1)


def vol_g(model: CanonicalModel, x) -> float:
    """Flat volume coefficient (constant 1)."""
    if not contains(model, np.asarray(x, dtype=float)):
        raise DomainError("point outside model")
    return 1.0


def vol_h(model: CanonicalModel, alpha: float, x) -> float:
    """Isochrone volume coefficient alpha^d / psi^{2d}."""
    x = np.asarray(x, dtype=float)
    if not contains(model, x):
        raise DomainError("point outside model")
    d = model.sig.d
    return alpha**d / model.psi(x) ** (2 * d)


@dataclass(frozen=True)
class CurvatureForms:
    kappa_nabla: float
    kappa_h: float
    gaussian_rel: float


def curvature_forms(model: CanonicalModel, x) -> CurvatureForms:
    """d = 2 curvature form coefficients: kappa_nabla = 2/psi,
    kappa_h = 8 lambda/psi^2, relative Gaussian 2/psi."""
    if model.sig.d != 2:
        raise ValueError("curvature forms are a d = 2 construction")
    x = np.asarray(x, dtype=float)
    if not contains(model, x):
        raise DomainError(f"point {x} outside model {model}")
    psi = model.psi(x)
    return CurvatureForms(2.0 / psi, 8.0 * model.lam / psi**2, 2.0 / psi)


# ---------------------------------------------------------------------------
# flattening of the lambda = 0 isochrone metric (d = 2)


def flatten_lambda0(model: CanonicalModel, x) -> np.ndarray:
    """The d = 2, lambda = 0 isometry (U, h) -> (image, g).

    In (hyperbolic) polar coordinates the map is (r, theta) ->
    (1/(3 r^3), -3 theta); its differential satisfies Dphi^T g Dphi = h with
    alpha = 1.  Each wedge/punctured-plane component maps into itself.
    """
    x = np.asarray(x, dtype=float)
    if model.lam != 0 or model.sig.d != 2:
        raise ValueError("flattening applies to d = 2, lambda = 0 models")
    if not contains(model, x):
        raise DomainError(f"point {x} outside model {model}")
    p, m = model.sig.p, model.sig.m
    if p == 2 or m == 0 or p == 0:
        # definite plane: ordinary polar coordinates
        r = math.hypot(x[0], x[1])
        theta = math.atan2(x[1], x[0])
        R = 1.0 / (3.0 * r**3)
        return np.array([R * math.cos(-3.0 * theta), R * math.sin(-3.0 * theta)])
    # signature (1,1): hyperbolic polar per wedge
    q = model.sig.q(x)
    if q > 0:
        sgn = 1.0 if x[0] > 0 else -1.0
        r = math.sqrt(q)
        u = math.atanh(x[1] / x[0])
        R = 1.0 / (3.0 * r**3)
        return np.array([sgn * R * math.cosh(-3.0 * u),
                         sgn * R * math.sinh(-3.0 * u)])
    sgn = 1.0 if x[1] > 0 else -1.0
    r = math.sqrt(-q)
    u = math.atanh(x[0] / x[1])
    R = 1.0 / (3.0 * r**3)
    return np.array([sgn * R * math.sinh(-3.0 * u),
                     sgn * R * math.cosh(-3.0 * u)])


# ---------------------------------------------------------------------------
# Table: natural connections on the unit disk


@dataclass(frozen=True)
class TableRow:
    name: str
    metric: Optional[np.ndarray]   # None when no metric is preserved
    volume_coeff: float
    curvature_coeff: float


_DISK_MODEL = parse_model("S(2,0;-1;-)")


def comparison_table(x) -> list:
    """Preserved metric / volume / curvature coefficients at a disk point for
    the flat, Cayley-Klein, Poincare and disk-model connections, with
    w = 1 - x^2 - y^2."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or float(x @ x) >= 1.0:
        raise DomainError("comparison table needs a point of the open unit disk")
    a, b = float(x[0]), float(x[1])
    w = 1.0 - a * a - b * b
    klein = (1.0 / w) * np.eye(2) + (1.0 / w**2) * np.array(
        [[a * a, a * b], [a * b, b * b]]
    )
    poincare = (4.0 / w**2) * np.eye(2)
    return [
        TableRow("flat", np.eye(2), 1.0, 0.0),
        TableRow("cayley-klein", klein, w**-1.5, -(w**-1.5)),
        TableRow("poincare", poincare, 4.0 / w**2, -4.0 / w**2),
        TableRow("disk-model", None, 1.0 / w**3, -2.0 / w),
    ]
