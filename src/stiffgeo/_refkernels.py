"""Pure NumPy integrator kernels.

Reference implementation of the adaptive Dormand-Prince 5(4) stepping used for
parallel transport and conformal geodesics.  The compiled core in
_fastkernels.c implements exactly the same tableau and control logic, with no
limit on dimensions or columns; this module is the fallback selected when the
extension is unavailable and the ground truth the extension is tested against
(tests/test_kernels.py compares the two step for step).
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_UNDERFLOW = 2
STATUS_BOUNDARY = 3

PATH_LINE = 0   # gamma(t) = c0 + t c1
PATH_TRIG = 1   # gamma(t) = cos(t) c0 + sin(t) c1
PATH_HYP = 2    # gamma(t) = cosh(t) c0 + sinh(t) c1

# Dormand-Prince 5(4). B propagates the 5th order solution, E = B - B4 is the
# embedded error estimator, and stage 7 equals the next step's stage 1 (FSAL).
_A = [
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
]
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class _BoundaryHit(Exception):
    pass


def _integrate(f, t0: float, t1: float, y0: np.ndarray, rtol: float, atol: float,
               max_steps: int):
    """One adaptive DP45 sweep from t0 to t1.  Returns (y, err_accum, steps, status)."""
    y = np.array(y0, dtype=float)
    if t1 == t0:
        return y, 0.0, 0, STATUS_OK
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    t = t0
    h = span * 0.01
    err_accum = 0.0
    steps = 0
    try:
        k1 = f(t, y)
    except _BoundaryHit:
        return y, err_accum, steps, STATUS_BOUNDARY
    k = [k1] + [None] * 6
    while steps < max_steps:
        if direction * (t + h - t1) > 0:
            h = t1 - t
        if abs(h) < 1e-14 * abs(span):
            return y, err_accum, steps, STATUS_UNDERFLOW
        try:
            for s in range(1, 7):
                ys = y + h * sum(a * ks for a, ks in zip(_A[s], k))
                k[s] = f(t + _C[s] * h, ys)
        except _BoundaryHit:
            return y, err_accum, steps, STATUS_BOUNDARY
        y5 = y + h * sum(b * ks for b, ks in zip(_B, k) if b != 0.0)
        errvec = h * sum(e * ks for e, ks in zip(_E, k) if e != 0.0)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((errvec / sc) ** 2)))
        steps += 1
        if err <= 1.0:
            t = t + h
            y = y5
            k[0] = k[6]  # FSAL
            err_accum += float(np.abs(errvec).max())
            if direction * (t - t1) >= 0:
                return y, err_accum, steps, STATUS_OK
        factor = _SAFETY * (err + 1e-300) ** -0.2
        h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return y, err_accum, steps, STATUS_MAX_STEPS


def _path_eval(kind: int, c0: np.ndarray, c1: np.ndarray, t: float):
    if kind == PATH_LINE:
        return c0 + t * c1, c1
    if kind == PATH_TRIG:
        ct, st = np.cos(t), np.sin(t)
        return ct * c0 + st * c1, -st * c0 + ct * c1
    if kind == PATH_HYP:
        ch, sh = np.cosh(t), np.sinh(t)
        return ch * c0 + sh * c1, sh * c0 + ch * c1
    raise ValueError(f"unknown path kind {kind}")


def transport_segment(kind, c0, c1, t0, t1, lam, eps, V0, rtol=1e-10, atol=1e-10,
                      max_steps=10_000_000, psi_floor=1e-12):
    """Parallel transport dV/dt = (2/psi)[(g.g')V + g' (g.V)] along one path piece.

    g is the path, psi = lambda + q(g), and dots are the eps-weighted scalar
    product.  V0 holds the transported vectors as columns.
    """
    c0 = np.asarray(c0, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    eps = np.asarray(eps, dtype=float)
    V0 = np.asarray(V0, dtype=float)
    single = V0.ndim == 1
    V = V0.reshape(len(c0), -1)

    def rhs(t, Vc):
        g, dg = _path_eval(kind, c0, c1, t)
        eg = eps * g
        psi = lam + float(np.dot(eg, g))
        if abs(psi) < psi_floor:
            raise _BoundaryHit
        coef = 2.0 / psi
        pg = float(np.dot(eg, dg))
        gv = eg @ Vc
        return coef * (pg * Vc + np.outer(dg, gv))

    Vout, err, steps, status = _integrate(rhs, float(t0), float(t1), V,
                                          rtol, atol, int(max_steps))
    return (Vout.ravel() if single else Vout), err, steps, status


def h_geodesic_sample(x0, v0, lam, eps, t_grid, rtol=1e-10, atol=1e-10,
                      max_steps=10_000_000, psi_floor=1e-12):
    """Integrate x'' = [8 (x.x') x' - 4 q(x') x] / psi, sampling at t_grid.

    This is the geodesic flow of the conformal metric g / psi^4.  Returns an
    array of shape (len(t_grid), 2d) with rows (x, x') plus the usual
    (err, steps, status) triple; integration starts at t_grid[0].
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    d = len(x0)

    def rhs(t, y):
        x, v = y[:d], y[d:]
        ex = eps * x
        psi = lam + float(np.dot(ex, x))
        if abs(psi) < psi_floor:
            raise _BoundaryHit
        xu = float(np.dot(ex, v))
        qu = float(np.dot(eps * v, v))
        acc = (8.0 * xu * v - 4.0 * qu * x) / psi
        return np.concatenate([v, acc])

    t_grid = np.asarray(t_grid, dtype=float)
    out = np.empty((len(t_grid), 2 * d))
    y = np.concatenate([x0, v0])
    out[0] = y
    err_accum, steps_total = 0.0, 0
    for i in range(1, len(t_grid)):
        y, err, steps, status = _integrate(rhs, t_grid[i - 1], t_grid[i], y,
                                           rtol, atol, int(max_steps))
        err_accum += err
        steps_total += steps
        if status != STATUS_OK:
            return out[: i], err_accum, steps_total, status
        out[i] = y
    return out, err_accum, steps_total, STATUS_OK
