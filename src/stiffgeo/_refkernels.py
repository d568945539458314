"""Pure-Python integrator kernels.

Reference implementation of the adaptive Dormand-Prince 5(4) stepping used for
parallel transport and conformal geodesics, on lists of Python floats.  A
sampled h-geodesic is one sweep over the whole grid, read at the grid times
through the 4th-order Dormand-Prince dense output.  Every sum is taken in the
order of the loops in _fastkernels.c (stage sums start at 0.0 and skip zero
tableau entries), so the two backends are bit-identical in values, error
estimates, steps and status (tests/test_kernels.py).  This module is the
fallback selected when the extension is unavailable.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "python"

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_UNDERFLOW = 2
STATUS_BOUNDARY = 3

PATH_LINE = 0   # gamma(t) = c0 + t c1
PATH_TRIG = 1   # gamma(t) = cos(t) c0 + sin(t) c1
PATH_HYP = 2    # gamma(t) = cosh(t) c0 + sinh(t) c1

# Dormand-Prince 5(4).  Row 7 of A is the 5th order weight B (so the stage 7
# input is the new state), E = B - B4 is the embedded error estimator, and
# stage 7 equals the next step's stage 1 (FSAL).
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                          22 / 525, -1 / 40)
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
# Dense output (Hairer's dopri5 contd5): the 4th-order term of the interpolant.
D1, D3, D4 = -12715105075 / 11282082432, 87487479700 / 32700410799, \
    -10690763975 / 1880347072
D5, D6, D7 = 701980252875 / 199316789632, -1453857185 / 822651844, \
    69997945 / 29380423


class _BoundaryHit(Exception):
    """Raised by a right-hand side where |psi| drops below the floor."""


def _drive(f, t0, t1, y, rtol, atol, max_steps, stops=(), rows=None):
    """One adaptive DP45 sweep of the float list y from t0 to t1, where f(t, y)
    returns the derivative as a list or raises _BoundaryHit.  stops are times
    before t1 in sweep order; the state at each is appended to rows, read off
    the dense output of the accepted step that passes it.  Returns
    (y, err_accum, steps, status)."""
    span = t1 - t0
    if span == 0.0:
        return y, 0.0, 0, STATUS_OK
    direction, n, t, h = (1.0 if span > 0 else -1.0), len(y), t0, span * 0.01
    err_accum, steps, i, nstops = 0.0, 0, 0, len(stops)
    try:
        k1 = f(t, y)
        while steps < max_steps:
            if direction * (t + h - t1) > 0:
                h = t1 - t
            if abs(h) < 1e-14 * abs(span):
                return y, err_accum, steps, STATUS_UNDERFLOW
            k2 = f(t + C2 * h, [a + h * (0.0 + A21 * p) for a, p in zip(y, k1)])
            k3 = f(t + C3 * h, [a + h * (0.0 + A31 * p + A32 * q)
                                for a, p, q in zip(y, k1, k2)])
            k4 = f(t + C4 * h, [a + h * (0.0 + A41 * p + A42 * q + A43 * r)
                                for a, p, q, r in zip(y, k1, k2, k3)])
            k5 = f(t + C5 * h, [a + h * (0.0 + A51 * p + A52 * q + A53 * r + A54 * s)
                                for a, p, q, r, s in zip(y, k1, k2, k3, k4)])
            k6 = f(t + h, [a + h * (0.0 + A61 * p + A62 * q + A63 * r + A64 * s + A65 * u)
                           for a, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
            y5 = [a + h * (0.0 + B1 * p + B3 * r + B4 * s + B5 * u + B6 * w)
                  for a, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(t + h, y5)
            ev = [h * (0.0 + E1 * p + E3 * r + E4 * s + E5 * u + E6 * w + E7 * z)
                  for p, r, s, u, w, z in zip(k1, k3, k4, k5, k6, k7)]
            err = 0.0
            for a, b, e in zip(y, y5, ev):
                a, b = abs(a), abs(b)
                sc = atol + rtol * (a if a > b else b)
                r = e / sc if sc else e * math.inf  # x / 0 as in C
                err += r * r
            err = math.sqrt(err / n)
            steps += 1
            if err <= 1.0:
                # a step aimed at t1 ends there; t + (t1 - t) can round an ulp short
                tn = t1 if h == t1 - t else t + h
                if i < nstops and direction * (tn - stops[i]) > 0:
                    cont = []
                    for a, b, p, r, s, u, w, z in zip(y, y5, k1, k3, k4, k5, k6, k7):
                        dy = b - a
                        bs = h * p - dy
                        cont.append((a, dy, bs, dy - h * z - bs, h * (
                            0.0 + D1 * p + D3 * r + D4 * s + D5 * u + D6 * w + D7 * z)))
                    while i < nstops and direction * (tn - stops[i]) > 0:
                        th = (stops[i] - t) / h
                        th1 = 1.0 - th
                        rows.append([a + th * (dy + th1 * (bs + th * (c4 + th1 * c5)))
                                     for a, dy, bs, c4, c5 in cont])
                        i += 1
                t = tn
                y = y5
                k1 = k7  # FSAL
                err_accum += max(map(abs, ev))
                if direction * (t - t1) >= 0:
                    return y, err_accum, steps, STATUS_OK
            factor = 0.9 * (err + 1e-300) ** -0.2
            h = h * (min(5.0, factor) if factor > 0.2 else 0.2)  # a NaN error gives 0.2
    except _BoundaryHit:
        return y, err_accum, steps, STATUS_BOUNDARY
    return y, err_accum, steps, STATUS_MAX_STEPS


def _floats(v):
    return np.asarray(v, dtype=float).ravel().tolist()


def _check(d, ts, psi_floor, *vs):
    """ValueError on a non-finite time, a psi floor that is not positive (psi
    = 0 would then be divided by) or a vector whose length is not d."""
    if not all(map(math.isfinite, ts)):
        raise ValueError(f"integration times must be finite, got {ts}")
    if not psi_floor > 0:
        raise ValueError(f"psi_floor must be positive, got {psi_floor}")
    if any(len(v) != d for v in vs):
        raise ValueError(f"vectors of lengths {[len(v) for v in vs]} where {d} expected")


def transport_segment(kind, c0, c1, t0, t1, lam, eps, V0, rtol=1e-10, atol=1e-10,
                      max_steps=10_000_000, psi_floor=1e-12):
    """Parallel transport dV/dt = (2/psi)[(g.g')V + g' (g.V)] along one path piece.

    g is the path, psi = lambda + q(g), and dots are the eps-weighted scalar
    product.  V0 holds the transported vectors as columns.
    """
    if kind not in (PATH_LINE, PATH_TRIG, PATH_HYP):
        raise ValueError(f"unknown path kind {kind}")
    t0, t1, lam = float(t0), float(t1), float(lam)
    c0, c1, eps = _floats(c0), _floats(c1), _floats(eps)
    d = len(c0)
    _check(d, (t0, t1), psi_floor, c1, eps)
    V0 = np.asarray(V0, dtype=float)
    if d == 0 or V0.size % d:
        raise ValueError(f"V0 of size {V0.size} does not split into {d} rows")
    nc, line, trig = V0.size // d, kind == PATH_LINE, kind == PATH_TRIG

    def rhs(t, y):
        psi, pg, eg, dg = lam, 0.0, [], []
        if not line:
            try:
                ct, st = (math.cos(t), math.sin(t)) if trig else (math.cosh(t), math.sinh(t))
            except OverflowError:  # past the float range: inf, as in C
                ct, st = math.inf, math.copysign(math.inf, t)
            sg = -st if trig else st
        for e, a, b in zip(eps, c0, c1):
            x, v = (a + t * b, b) if line else (ct * a + st * b, sg * a + ct * b)
            ex = e * x
            eg.append(ex)
            dg.append(v)
            psi += ex * x
            pg += ex * v
        if abs(psi) < psi_floor:
            raise _BoundaryHit
        coef = 2.0 / psi
        rows = list(zip(*[iter(y)] * nc))
        gv = []
        for col in zip(*rows):
            s = 0.0
            for a, v in zip(eg, col):
                s += a * v
            gv.append(s)
        return [coef * (pg * v + b * w) for row, b in zip(rows, dg) for v, w in zip(row, gv)]

    V, err, steps, status = _drive(rhs, t0, t1, V0.ravel().tolist(), rtol, atol,
                                   int(max_steps))
    return np.array(V).reshape(-1 if V0.ndim == 1 else (d, nc)), err, steps, status


def h_geodesic_sample(x0, v0, lam, eps, t_grid, rtol=1e-10, atol=1e-10,
                      max_steps=10_000_000, psi_floor=1e-12):
    """Integrate x'' = [8 (x.x') x' - 4 q(x') x] / psi, sampling at t_grid.

    This is the geodesic flow of the conformal metric g / psi^4.  Returns an
    array of shape (len(t_grid), 2d) with rows (x, x') plus the usual
    (err, steps, status) triple.  One sweep runs from t_grid[0] to
    t_grid[-1], so t_grid must be monotone; rows at times before the end come
    from the dense output and rows at the end time are the end state.  On a
    non-OK status only the rows passed so far come back.
    """
    x0, v0, eps, times = _floats(x0), _floats(v0), _floats(eps), _floats(t_grid)
    d, lam = len(x0), float(lam)
    if not times:
        raise IndexError("t_grid is empty: no start time")
    _check(d, times, psi_floor, v0, eps)
    t0, t1 = times[0], times[-1]
    direction = 1.0 if t1 >= t0 else -1.0
    if any(direction * (b - a) < 0 for a, b in zip(times, times[1:])):
        raise ValueError("t_grid must be monotone")

    def rhs(t, y):
        v = y[d:]
        psi, xu, qu = lam, 0.0, 0.0
        for e, a, b in zip(eps, y, v):
            ea = e * a
            psi += ea * a
            xu += ea * b
            qu += e * b * b
        if abs(psi) < psi_floor:
            raise _BoundaryHit
        return v + [(8.0 * xu * b - 4.0 * qu * a) / psi for a, b in zip(y, v)]

    rows = [x0 + v0]
    stops = [ts for ts in times[1:] if direction * (t1 - ts) > 0]
    y, err, steps, status = _drive(rhs, t0, t1, rows[0], rtol, atol, int(max_steps),
                                   stops, rows)
    if status == STATUS_OK:
        rows += [y] * (len(times) - len(rows))
    return np.array(rows).reshape(len(rows), 2 * d), err, steps, status
