"""Pure-Python integrator kernels.

Reference implementation of the adaptive Dormand-Prince 8(5,3) stepping
(Hairer's DOP853) used for parallel transport and conformal geodesics, on
lists of Python floats.  A sampled h-geodesic is one sweep over the whole
grid, read at the grid times through DOP853's 7th-order dense output.  Every
sum is taken in the order of the loops in _fastkernels.c (stage sums start at
0.0 and skip zero tableau entries), so the two backends are bit-identical in
values, error estimates, steps and status (tests/test_kernels.py).  This
module is the fallback selected when the extension is unavailable.
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

# Dormand-Prince 8(5,3) (Hairer's dop853): 12 stages, then the derivative at
# the new state, which is the next step's stage 1 (FSAL).  Ai_j is the weight
# of stage j in the input of stage i, B the 8th-order weights, ER the 5th-order
# error estimator and B - BHH the 3rd-order one.  Stages 14-16 and D4-D7 give
# the 7th-order dense output (contd8); they run only on steps that pass a
# sample time.  Literals are the shortest decimals of Hairer's values.
C2, C3, C4, C5 = 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726
C6, C7, C8, C9 = 0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513
C10, C11 = 0.6, 0.8571428571428571
C14, C15, C16 = 0.1, 0.2, 0.7777777777777778
A2_1 = 0.05260015195876773
A3_1, A3_2 = 0.0197250569845379, 0.0591751709536137
A4_1, A4_3 = 0.02958758547680685, 0.08876275643042054
A5_1, A5_3, A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
A6_1, A6_4, A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
A7_1, A7_4, A7_5, A7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
A8_1, A8_4, A8_5 = 0.03709200011850479, 0.17038392571223998, 0.10726203044637328
A8_6, A8_7 = -0.015319437748624402, 0.008273789163814023
A9_1, A9_4, A9_5 = 0.6241109587160757, -3.3608926294469414, -0.868219346841726
A9_6, A9_7, A9_8 = 27.59209969944671, 20.154067550477894, -43.48988418106996
A10_1, A10_4, A10_5 = 0.47766253643826434, -2.4881146199716677, -0.590290826836843
A10_6, A10_7, A10_8 = 21.230051448181193, 15.279233632882423, -33.28821096898486
A10_9 = -0.020331201708508627
A11_1, A11_4, A11_5 = -0.9371424300859873, 5.186372428844064, 1.0914373489967295
A11_6, A11_7, A11_8 = -8.149787010746927, -18.52006565999696, 22.739487099350505
A11_9, A11_10 = 2.4936055526796523, -3.0467644718982196
A12_1, A12_4, A12_5 = 2.273310147516538, -10.53449546673725, -2.0008720582248625
A12_6, A12_7, A12_8 = -17.9589318631188, 27.94888452941996, -2.8589982771350235
A12_9, A12_10, A12_11 = -8.87285693353063, 12.360567175794303, 0.6433927460157636
A14_1, A14_7, A14_8 = 0.056167502283047954, 0.25350021021662483, -0.2462390374708025
A14_9, A14_10, A14_11 = -0.12419142326381637, 0.15329179827876568, 0.00820105229563469
A14_12, A14_13 = 0.007567897660545699, -0.008298
A15_1, A15_6, A15_7 = 0.03183464816350214, 0.028300909672366776, 0.053541988307438566
A15_8, A15_11, A15_12 = -0.05492374857139099, -0.00010834732869724932, 0.0003825710908356584
A15_13, A15_14 = -0.00034046500868740456, 0.1413124436746325
A16_1, A16_6, A16_7 = -0.42889630158379194, -4.697621415361164, 7.683421196062599
A16_8, A16_9, A16_13 = 4.06898981839711, 0.3567271874552811, -0.0013990241651590145
A16_14, A16_15 = 2.9475147891527724, -9.15095847217987
B1, B6, B7 = 0.054293734116568765, 4.450312892752409, 1.8915178993145003
B8, B9, B10 = -5.801203960010585, 0.3111643669578199, -0.1521609496625161
B11, B12 = 0.20136540080403034, 0.04471061572777259
ER1, ER6, ER7 = 0.01312004499419488, -1.2251564463762044, -0.4957589496572502
ER8, ER9, ER10 = 1.6643771824549864, -0.35032884874997366, 0.3341791187130175
ER11, ER12 = 0.08192320648511571, -0.022355307863886294
BHH1, BHH2, BHH3 = 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
D4_1, D4_6, D4_7 = -8.428938276109013, 0.5667149535193777, -3.0689499459498917
D4_8, D4_9, D4_10 = 2.38466765651207, 2.117034582445028, -0.871391583777973
D4_11, D4_12, D4_13 = 2.2404374302607883, 0.6315787787694688, -0.08899033645133331
D4_14, D4_15, D4_16 = 18.148505520854727, -9.194632392478356, -4.436036387594894
D5_1, D5_6, D5_7 = 10.427508642579134, 242.28349177525817, 165.20045171727028
D5_8, D5_9, D5_10 = -374.5467547226902, -22.113666853125306, 7.733432668472264
D5_11, D5_12, D5_13 = -30.674084731089398, -9.332130526430229, 15.697238121770845
D5_14, D5_15, D5_16 = -31.139403219565178, -9.35292435884448, 35.81684148639408
D6_1, D6_6, D6_7 = 19.985053242002433, -387.0373087493518, -189.17813819516758
D6_8, D6_9, D6_10 = 527.8081592054236, -11.57390253995963, 6.8812326946963
D6_11, D6_12, D6_13 = -1.0006050966910838, 0.7777137798053443, -2.778205752353508
D6_14, D6_15, D6_16 = -60.19669523126412, 84.32040550667716, 11.99229113618279
D7_1, D7_6, D7_7 = -25.69393346270375, -154.18974869023643, -231.5293791760455
D7_8, D7_9, D7_10 = 357.6391179106141, 93.40532418362432, -37.45832313645163
D7_11, D7_12, D7_13 = 104.0996495089623, 29.8402934266605, -43.53345659001114
D7_14, D7_15, D7_16 = 96.32455395918828, -39.17726167561544, -149.72683625798564


class _BoundaryHit(Exception):
    """Raised by a right-hand side where |psi| drops below the floor."""


def _drive(f, t0, t1, y, rtol, atol, max_steps, stops=(), rows=None):
    """One adaptive DOP853 sweep of the float list y from t0 to t1, where f(t, y)
    returns the derivative as a list or raises _BoundaryHit.  stops are times
    before t1 in sweep order; the state at each is appended to rows, read off
    the dense output of the accepted step that passes it.  Returns
    (y, err_accum, steps, status).

    The step error is Hairer's err5^2 / sqrt(err5^2 + 0.01 err3^2), from the
    rms norms of the 5th- and 3rd-order estimates scaled by atol + rtol |y|;
    a step is accepted at err <= 1, and the next step is h * 0.9 err^(-1/8),
    clamped to [0.333 h, 6 h] and to at most h right after a rejection.
    err_accum adds, per accepted step, the largest component of the 5th-order
    error vector times the factor err5 / sqrt(err5^2 + 0.01 err3^2) by which
    the combined norm scales it.
    """
    span = t1 - t0
    if span == 0.0:
        return y, 0.0, 0, STATUS_OK
    direction, n, t, h = (1.0 if span > 0 else -1.0), len(y), t0, span * 0.01
    err_accum, steps, i, nstops, rejected = 0.0, 0, 0, len(stops), False
    try:
        k1 = f(t, y)
        while steps < max_steps:
            if direction * (t + h - t1) > 0:
                h = t1 - t
            if abs(h) < 1e-14 * abs(span):
                return y, err_accum, steps, STATUS_UNDERFLOW
            k2 = f(t + C2 * h, [a + h * (0.0 + A2_1 * p1) for a, p1 in zip(y, k1)])
            k3 = f(t + C3 * h, [a + h * (0.0 + A3_1 * p1 + A3_2 * p2)
                                for a, p1, p2 in zip(y, k1, k2)])
            k4 = f(t + C4 * h, [a + h * (0.0 + A4_1 * p1 + A4_3 * p3)
                                for a, p1, p3 in zip(y, k1, k3)])
            k5 = f(t + C5 * h, [a + h * (0.0 + A5_1 * p1 + A5_3 * p3 + A5_4 * p4)
                                for a, p1, p3, p4 in zip(y, k1, k3, k4)])
            k6 = f(t + C6 * h, [a + h * (0.0 + A6_1 * p1 + A6_4 * p4 + A6_5 * p5)
                                for a, p1, p4, p5 in zip(y, k1, k4, k5)])
            k7 = f(t + C7 * h, [a + h * (0.0 + A7_1 * p1 + A7_4 * p4 + A7_5 * p5 + A7_6 * p6)
                                for a, p1, p4, p5, p6 in zip(y, k1, k4, k5, k6)])
            k8 = f(t + C8 * h, [a + h * (0.0 + A8_1 * p1 + A8_4 * p4 + A8_5 * p5 + A8_6 * p6
                                         + A8_7 * p7)
                                for a, p1, p4, p5, p6, p7 in zip(y, k1, k4, k5, k6, k7)])
            k9 = f(t + C9 * h, [a + h * (0.0 + A9_1 * p1 + A9_4 * p4 + A9_5 * p5 + A9_6 * p6
                                         + A9_7 * p7 + A9_8 * p8)
                                for a, p1, p4, p5, p6, p7, p8
                                in zip(y, k1, k4, k5, k6, k7, k8)])
            k10 = f(t + C10 * h, [a + h * (0.0 + A10_1 * p1 + A10_4 * p4 + A10_5 * p5
                                           + A10_6 * p6 + A10_7 * p7 + A10_8 * p8 + A10_9 * p9)
                                  for a, p1, p4, p5, p6, p7, p8, p9
                                  in zip(y, k1, k4, k5, k6, k7, k8, k9)])
            k11 = f(t + C11 * h, [a + h * (0.0 + A11_1 * p1 + A11_4 * p4 + A11_5 * p5
                                           + A11_6 * p6 + A11_7 * p7 + A11_8 * p8 + A11_9 * p9
                                           + A11_10 * p10)
                                  for a, p1, p4, p5, p6, p7, p8, p9, p10
                                  in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
            k12 = f(t + h, [a + h * (0.0 + A12_1 * p1 + A12_4 * p4 + A12_5 * p5 + A12_6 * p6
                                     + A12_7 * p7 + A12_8 * p8 + A12_9 * p9 + A12_10 * p10
                                     + A12_11 * p11)
                            for a, p1, p4, p5, p6, p7, p8, p9, p10, p11
                            in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
            y8, err5, err3, big = [], 0.0, 0.0, 0.0
            for a, p1, p6, p7, p8, p9, p10, p11, p12 in zip(y, k1, k6, k7, k8, k9, k10, k11,
                                                            k12):
                inc = (0.0 + B1 * p1 + B6 * p6 + B7 * p7 + B8 * p8 + B9 * p9 + B10 * p10
                       + B11 * p11 + B12 * p12)
                b = a + h * inc
                y8.append(b)
                e5 = (0.0 + ER1 * p1 + ER6 * p6 + ER7 * p7 + ER8 * p8 + ER9 * p9 + ER10 * p10
                      + ER11 * p11 + ER12 * p12)
                e3 = inc - BHH1 * p1 - BHH2 * p9 - BHH3 * p12
                a, b = abs(a), abs(b)
                sc = atol + rtol * (a if a > b else b)
                if sc:
                    r5, r3 = e5 / sc, e3 / sc
                else:  # x / 0 as in C
                    r5, r3 = e5 * math.inf, e3 * math.inf
                err5 += r5 * r5
                err3 += r3 * r3
                e5 = abs(e5)
                if e5 > big:
                    big = e5
            deno = err5 + 0.01 * err3
            if deno <= 0.0:
                deno = 1.0
            err = abs(h) * err5 / math.sqrt(n * deno)
            steps += 1
            factor = 0.9 * (err + 1e-300) ** -0.125
            factor = min(6.0, factor) if factor > 0.333 else 0.333  # a NaN error gives 0.333
            if err <= 1.0:
                # a step aimed at t1 ends there; t + (t1 - t) can round an ulp short
                tn = t1 if h == t1 - t else t + h
                k13 = f(tn, y8)
                if i < nstops and direction * (tn - stops[i]) > 0:
                    # the 7th-order dense output of this step, with its 3 extra stages
                    k14 = f(t + C14 * h, [
                        a + h * (0.0 + A14_1 * p1 + A14_7 * p7 + A14_8 * p8 + A14_9 * p9
                                 + A14_10 * p10 + A14_11 * p11 + A14_12 * p12 + A14_13 * p13)
                        for a, p1, p7, p8, p9, p10, p11, p12, p13
                        in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)])
                    k15 = f(t + C15 * h, [
                        a + h * (0.0 + A15_1 * p1 + A15_6 * p6 + A15_7 * p7 + A15_8 * p8
                                 + A15_11 * p11 + A15_12 * p12 + A15_13 * p13 + A15_14 * p14)
                        for a, p1, p6, p7, p8, p11, p12, p13, p14
                        in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)])
                    k16 = f(t + C16 * h, [
                        a + h * (0.0 + A16_1 * p1 + A16_6 * p6 + A16_7 * p7 + A16_8 * p8
                                 + A16_9 * p9 + A16_13 * p13 + A16_14 * p14 + A16_15 * p15)
                        for a, p1, p6, p7, p8, p9, p13, p14, p15
                        in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)])
                    cont = []
                    for a, b, p1, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15, p16 in zip(
                            y, y8, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16):
                        dy = b - a
                        bs = h * p1 - dy
                        cont.append((a, dy, bs, dy - h * p13 - bs, h * (
                            0.0 + D4_1 * p1 + D4_6 * p6 + D4_7 * p7 + D4_8 * p8 + D4_9 * p9
                            + D4_10 * p10 + D4_11 * p11 + D4_12 * p12 + D4_13 * p13
                            + D4_14 * p14 + D4_15 * p15 + D4_16 * p16), h * (
                            0.0 + D5_1 * p1 + D5_6 * p6 + D5_7 * p7 + D5_8 * p8 + D5_9 * p9
                            + D5_10 * p10 + D5_11 * p11 + D5_12 * p12 + D5_13 * p13
                            + D5_14 * p14 + D5_15 * p15 + D5_16 * p16), h * (
                            0.0 + D6_1 * p1 + D6_6 * p6 + D6_7 * p7 + D6_8 * p8 + D6_9 * p9
                            + D6_10 * p10 + D6_11 * p11 + D6_12 * p12 + D6_13 * p13
                            + D6_14 * p14 + D6_15 * p15 + D6_16 * p16), h * (
                            0.0 + D7_1 * p1 + D7_6 * p6 + D7_7 * p7 + D7_8 * p8 + D7_9 * p9
                            + D7_10 * p10 + D7_11 * p11 + D7_12 * p12 + D7_13 * p13
                            + D7_14 * p14 + D7_15 * p15 + D7_16 * p16)))
                    while i < nstops and direction * (tn - stops[i]) > 0:
                        th = (stops[i] - t) / h
                        th1 = 1.0 - th
                        rows.append([a + th * (c1 + th1 * (c2 + th * (c3 + th1 * (
                            c4 + th * (c5 + th1 * (c6 + th * c7))))))
                            for a, c1, c2, c3, c4, c5, c6, c7 in cont])
                        i += 1
                t, y, k1 = tn, y8, k13  # FSAL
                err_accum += abs(h) * big * math.sqrt(err5 / deno)
                if direction * (t - t1) >= 0:
                    return y, err_accum, steps, STATUS_OK
                if rejected:
                    factor = min(1.0, factor)
                    rejected = False
            else:
                rejected = True
            h = h * factor
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
