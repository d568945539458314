"""Chord geodesics: the integral J0 = int ds / psi^2 against mpmath, the
solve in s, case reduction, travel times and their symmetries."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffgeo.errors import DomainError
from stiffgeo.geodesics import (
    C1_CONSTANT,
    C2_SINGLE_POLE,
    C3_TWO_POLES,
    C4_DOUBLE_POLE,
    C5_NO_POLE,
    F_eval,
    GeodesicLine,
    completeness_verdict,
    find_s0,
    psi_integral,
    reduce_line,
    solve_geodesic,
    travel_time,
    triangle_experiment,
)
from stiffgeo.models import contains, parse_model, segment_margin
from stiffgeo.projconn import form_from_potential

RNG = np.random.default_rng(20260805)

DISK = parse_model("S(2,0;-1;-)")
PLANE = parse_model("S(2,0;1;+)")

# shared with the acceptance suite
TWO_D_COMPLETE = {"S(2,0;-1;-)", "S(0,2;1;+)"}


# ---------------------------------------------------------------------------
# the five normal forms


def test_case_constant():
    model = parse_model("S(1,1;1;+)")
    case = reduce_line(GeodesicLine(model, [0.5, 0.5], [1.0, 1.0]))
    assert case.case == C1_CONSTANT
    assert case.scale == pytest.approx(1.0)
    assert not case.flipped


def test_case_single_pole():
    model = parse_model("S(1,1;1;+)")
    case = reduce_line(GeodesicLine(model, [1.0, 0.5], [1.0, 1.0]))
    assert case.case == C2_SINGLE_POLE
    assert case.alpha_r == pytest.approx(1.0)
    assert case.beta_r == pytest.approx(1.75)
    assert case.scale == pytest.approx(1.0)


def test_case_two_poles_disk_radial():
    """Radial line in the disk: psi = 0.81 s^2 - 1, roots at +/- 10/9."""
    case = reduce_line(GeodesicLine(DISK, [0.0, 0.0], [0.9, 0.0]))
    assert case.case == C3_TWO_POLES
    assert case.lambda_prime == -1
    assert case.alpha_r == pytest.approx(0.9)
    assert case.beta_r == pytest.approx(0.0)
    assert case.scale == pytest.approx(1.0)
    # A = 0.81 > 0: no sign flip; P(y) = y^2 - 1 is itself negative inside
    assert not case.flipped
    assert case.inside


def test_case_two_poles_exterior():
    model = parse_model("S(2,0;-1;+)")
    case = reduce_line(GeodesicLine(model, [2.0, 0.0], [1.0, 0.0]))
    assert case.case == C3_TWO_POLES
    assert not case.inside
    assert case.to_y(0.0) > 1.0


def test_case_double_pole():
    model = parse_model("S(2,0;0;+)")
    case = reduce_line(GeodesicLine(model, [1.0, 0.0], [1.0, 0.0]))
    assert case.case == C4_DOUBLE_POLE
    assert case.lambda_prime == 0
    assert case.beta_r == pytest.approx(1.0)
    assert case.scale == pytest.approx(1.0)


def test_case_no_pole():
    case = reduce_line(GeodesicLine(PLANE, [0.0, 0.0], [1.0, 0.0]))
    assert case.case == C5_NO_POLE
    assert case.lambda_prime == 1
    assert case.alpha_r == pytest.approx(1.0)
    assert case.beta_r == pytest.approx(0.0)
    assert case.scale == pytest.approx(1.0)


def test_normal_form_reproduces_psi():
    """psi_s(s) = +/- scale * P(alpha_r s + beta_r) for random lines."""
    for tag in ("S(2,0;-1;-)", "S(1,1;1;+)", "S(2,0;1;+)", "S(2,1;-1;-)"):
        model = parse_model(tag)
        d = model.sig.d
        for _ in range(20):
            x0 = 0.3 * RNG.normal(size=d)
            try:
                line = GeodesicLine(model, x0, RNG.normal(size=d))
            except DomainError:
                continue
            case = reduce_line(line)
            sgn = -1.0 if case.flipped else 1.0
            for s in RNG.normal(size=5):
                want = model.psi(line.point(s))
                got = sgn * case.scale * case.normal_poly(case.to_y(s))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# the printed case agrees with the solve


def _random_lines(n):
    for tag in ("S(2,0;-1;-)", "S(2,0;-1;+)", "S(2,0;0;+)", "S(1,1;1;+)",
                "S(1,1;0;-)", "S(1,1;-1;-)", "S(2,1;-1;-)", "S(2,1;0;+)"):
        model = parse_model(tag)
        d = model.sig.d
        for _ in range(n):
            x0 = RNG.normal(size=d)
            if contains(model, x0):
                yield GeodesicLine(model, x0, RNG.normal(size=d))


def _constructed_lines():
    # null directions (c, +-c): A is exactly 0, and B too when x0 is null
    model = parse_model("S(1,1;1;+)")
    for x0 in ([0.5, 0.5], [1.0, 0.5], [0.2, -0.7], [-0.3, -0.3]):
        for c in (1.0, -0.7):
            yield GeodesicLine(model, x0, [c, c])
            yield GeodesicLine(model, x0, [c, -c])
    # A a few ulps from 0: chords next to a null direction
    for k in (5e-15, 1e-12, 1e-8):
        yield GeodesicLine(model, [0.0, 0.0], [1.0, 1.0 + k])
        yield GeodesicLine(model, [0.3, 0.1], [1.0, 1.0 - k])
    # delta a few ulps either side of 0: a line missing the double root at
    # the origin by h, or crossing the light cone next to its vertex
    for h in (1e-7, 1e-5, 3e-3):
        yield GeodesicLine(parse_model("S(2,0;0;+)"), [1.0, h], [1.0, 0.0])
        yield GeodesicLine(parse_model("S(1,1;0;+)"), [1.0, h], [1.0, 0.0])
    # exact double roots: radial lines of lambda = 0 models, where
    # (A, B, C) = (q, 2q, q) and delta = 4 q q - (2q)^2 is exactly 0
    for tag in ("S(2,0;0;+)", "S(1,1;0;+)", "S(1,1;0;-)", "S(2,1;0;+)"):
        model = parse_model(tag)
        for _ in range(5):
            x0 = RNG.normal(size=model.sig.d)
            if contains(model, x0):
                yield GeodesicLine(model, x0, x0 * RNG.uniform(0.1, 3.0))


def test_printed_case_agrees_with_the_solve():
    """C1/C2 exactly when A == 0, C3 when psi has two roots, C4 when
    delta == 0 (with an infinite t edge on the side of the root), C5 when
    A != 0 and psi has none: the case names the quadratic the solve used."""
    lines = list(_random_lines(40)) + list(_constructed_lines())
    seen = set()
    for line in lines:
        sol = solve_geodesic(line, 0.0, 0.0, 1.0)
        A, B, C = sol.coeffs
        case = sol.case
        seen.add(case.case)
        assert case == reduce_line(line)
        assert (A == 0.0) == (case.case in (C1_CONSTANT, C2_SINGLE_POLE))
        assert (A != 0.0 and 4.0 * A * C - B * B == 0.0) == (case.case == C4_DOUBLE_POLE)
        # the finite edges of s_interval are the roots of psi next to s0 = 0,
        # reached only in infinite time; an infinite edge is reached in
        # finite time unless psi is constant
        roots = [edge for edge in sol.s_interval if math.isfinite(edge)]
        assert len(roots) == {C1_CONSTANT: 0, C2_SINGLE_POLE: 1, C4_DOUBLE_POLE: 1,
                              C5_NO_POLE: 0}.get(case.case, 1 + bool(case.inside))
        for edge, t_edge in zip(sol.s_interval, sol.t_interval):
            if math.isfinite(edge):
                size = abs(A) * edge * edge + abs(B * edge) + abs(C)
                assert abs((A * edge + B) * edge + C) <= 1e-12 * size
                assert math.isinf(t_edge)
            else:
                assert math.isfinite(t_edge) or case.case == C1_CONSTANT
        # y = 0 is C2's and C4's root and the midpoint of C3's two: one of
        # them lies on its side of s0
        if len(roots) == 1:
            assert (roots[0] < 0.0) == (-case.beta_r / case.alpha_r < 0.0)
    assert seen == {C1_CONSTANT, C2_SINGLE_POLE, C3_TWO_POLES, C4_DOUBLE_POLE,
                    C5_NO_POLE}


# ---------------------------------------------------------------------------
# the antiderivatives


def test_F_values():
    """Frozen spot values: F-1(0.5) = 2 - 2/3 + ln 3; F1(1) = 1/2 + pi/4."""
    assert F_eval(-1, 0.5) == pytest.approx(2.4319456220014435, rel=1e-15)
    assert F_eval(-1, 0.0) == 0.0
    assert F_eval(-1, 0.9) == pytest.approx(
        10.0 - 1.0 / 1.9 + math.log(19.0), rel=1e-15)
    assert F_eval(1, 1.0) == pytest.approx(0.5 + math.pi / 4.0, rel=1e-15)
    assert F_eval(0, 2.0) == pytest.approx(-0.125, rel=1e-15)
    with pytest.raises(ZeroDivisionError):
        F_eval(0, 0.0)
    with pytest.raises(ZeroDivisionError):
        F_eval(-1, 1.0)


def test_F_derivative_identity():
    """F' = k/P(y)^2 with k = 2, 3, 4 for lambda' = 1, 0, -1 (central FD)."""
    h = 1e-6
    cases = [(1, 2, lambda y: y * y + 1.0),
             (0, 3, lambda y: y * y),
             (-1, 4, lambda y: y * y - 1.0)]
    for lp, k, P in cases:
        for y in (0.3, 0.7, 2.5, -1.8):
            if lp == -1 and abs(abs(y) - 1.0) < 0.2:
                continue
            fd = (F_eval(lp, y + h) - F_eval(lp, y - h)) / (2.0 * h)
            assert fd == pytest.approx(k / P(y) ** 2, rel=1e-8), (lp, y)


# ---------------------------------------------------------------------------
# the chord integral J0 against mpmath

EPS = sys.float_info.epsilon
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def _mp_quad(A, B, C, s0, s1):
    """int_{s0}^{s1} ds / psi^2 by mpmath.quad at 30 digits, split at the
    vertex; a finite interval is mapped onto [0, 1] (quad's tolerance is
    absolute)."""
    with mpmath.workdps(30):
        A, B, C, s0 = mpmath.mpf(A), mpmath.mpf(B), mpmath.mpf(C), mpmath.mpf(s0)
        f = lambda s: 1 / (A * s * s + B * s + C) ** 2
        if math.isinf(s1):
            pts = [s0, s1 * mpmath.inf]
        else:
            ds = mpmath.mpf(s1) - s0
            pts, f0 = [0, 1], f
            f = lambda t: ds * f0(s0 + t * ds)
        if A != 0:
            v = -B / (2 * A) if math.isinf(s1) else (-B / (2 * A) - s0) / ds
            if min(pts) < v < max(pts):
                pts = [pts[0], v, pts[1]]
        return mpmath.quad(f, pts)


def _mp_exact(A, B, C, s0, s1):
    """J0 = G(s1) - G(s0) for the textbook antiderivative G of 1/psi^2, at
    60 digits and as many more as G(s1) - G(s0) cancels on a short interval:
    with float inputs exact, the up to 16 digits that cancel near a double
    root leave more than 40."""
    short = 0 if math.isinf(s1) else -math.log10(abs(s1 - s0) / (1 + abs(s0)))
    with mpmath.workdps(60 + max(0, int(short))):
        A, B, C = mpmath.mpf(A), mpmath.mpf(B), mpmath.mpf(C)
        delta = 4 * A * C - B * B

        def G(s):
            end = math.isinf(s)
            s = s * mpmath.inf if end else mpmath.mpf(s)
            if A == 0 and B == 0:
                return s / (C * C)
            if A == 0:
                return 0 if end else -1 / (B * (B * s + C))
            u = 2 * A * s + B
            if delta == 0:
                return 0 if end else -8 * A / (3 * u**3)
            head = 0 if end else u / (delta * (A * s * s + B * s + C))
            if delta > 0:
                w = mpmath.sqrt(delta)
                return head + 4 * A / (delta * w) * mpmath.atan(u / w)
            r = mpmath.sqrt(-delta)
            return head + (0 if end else 2 * A / (delta * r)
                           * mpmath.log(abs((u - r) / (u + r))))

        return G(s1) - G(s0)


def _rel_err(A, B, C, s0, s1):
    got = psi_integral(A, B, C, s0, s1)
    if s0 == s1:
        return abs(got)
    want = _mp_exact(A, B, C, s0, s1)
    return float(abs((got - want) / want))


def _condition(A, B, C, s0, s1):
    """Relative condition number sum_X |X dJ0/dX| / |J0| over X = A, B, C,
    by central differences of _mp_exact at 60 digits.  Over the vertex of a
    nearly square psi, J0 moves like delta^(-3/2) and delta = 4AC - B^2
    cancels, so this number grows without bound as delta -> 0."""
    with mpmath.workdps(60):
        J, total = _mp_exact(A, B, C, s0, s1), 0
        for i in range(3):
            X = [mpmath.mpf(c) for c in (A, B, C)]
            if X[i] == 0:
                continue
            h, X0 = X[i] * mpmath.mpf(10) ** -25, X[i]
            X[i] = X0 + h
            up = _mp_exact(*X, s0, s1)
            X[i] = X0 - h
            total += abs(X0 * (up - _mp_exact(*X, s0, s1)) / (2 * h))
        return float(total / abs(J))


# (A, B, C, s0, s1): constant, single pole, two poles (inside, then outside),
# double pole and no pole, each with a finite and an infinite end, except the
# constant one, whose J0 is infinite at an infinite end
FIVE_CASES = [
    (0.0, 0.0, 1.75, -0.3, 2.0), (0.0, 0.0, -2.0, 0.5, -3.0),
    (0.0, 1.0, 1.75, -0.5, 3.0), (0.0, -2.0, 1.0, -1.0, -math.inf),
    (0.81, 0.0, -1.0, 0.0, 1.0), (1.0, 4.0, 2.0, 0.5, math.inf),
    (1.0, 2.0, 1.0, 0.0, 1.0), (-2.0, 4.0, -2.0, 2.5, math.inf),
    (1.0, 0.0, 1.0, 0.0, 0.7), (2.0, -1.0, 3.0, -1.0, math.inf),
]


@pytest.mark.parametrize("A,B,C,s0,s1", FIVE_CASES)
def test_psi_integral_five_cases_match_mpmath(A, B, C, s0, s1):
    """Well-conditioned examples of each normal form: a few roundings in u,
    psi and the closing sum, so 1e-14 relative.  Quadrature checks the
    closed-form reference the sweeps below use."""
    assert _rel_err(A, B, C, s0, s1) < 1e-14
    exact = _mp_exact(A, B, C, s0, s1)
    assert abs(_mp_quad(A, B, C, s0, s1) - exact) < 1e-25 * abs(exact)
    assert math.isinf(s1) or psi_integral(A, B, C, s1, s0) == -psi_integral(A, B, C, s0, s1)


def test_psi_integral_limits():
    """The closed forms at s1 = s0, at an infinite end, and across a root."""
    assert psi_integral(1.0, 0.0, 1.0, 0.3, 0.3) == 0.0
    assert psi_integral(1.0, 0.0, 1.0, 0.0, math.inf) == pytest.approx(math.pi / 4, rel=1e-15)
    assert psi_integral(0.0, 0.0, 1.0, 0.0, -math.inf) == -math.inf
    # [0, 2] holds the root s = 1 of s^2 - 1 and of 1 - s: the integral diverges
    assert psi_integral(1.0, 0.0, -1.0, 0.0, 2.0) == math.inf
    assert psi_integral(0.0, -1.0, 1.0, 0.0, 2.0) == math.inf
    # psi = (s - 1)^2 + 1e-30: outside the roots of s^2 - 2s + 1 - 1e-30 at both ends
    assert psi_integral(1.0, -2.0, 1.0 - 1e-15, -1.0, 3.0) == math.inf


@PROPERTY
@given(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0]),
       st.floats(-16.0, -2.0), st.sampled_from([-1.0, 1.0]),
       st.floats(-1.0, 1.0), st.floats(0.5, 2.0), st.sampled_from([-1.0, 1.0]),
       st.floats(0.5, 3.0), st.one_of(st.floats(0.5, 3.0), st.just(math.inf),
                                      st.floats(-12.0, -1.0)))
def test_psi_integral_near_a_double_root(log_a, sign_a, log_rel, sign_delta, v,
                                         w, side, d0, d1):
    """psi = A ((s - v)^2 + rel w^2) with |rel| from 1e-16 to 1e-2, of either
    sign, on one side of the vertex v and at least 0.5 from it: the series in
    delta (|delta| <= 0.1 u^2) or the closed form.  With |v| <= 1, J0 depends
    on A, B and C with a condition number below 10, so a fixed 1e-14."""
    A = sign_a * 10.0**log_a
    B, C = -2.0 * A * v, A * (v * v + sign_delta * 10.0**log_rel * w * w)
    s0 = v + side * d0
    if d1 < 0.0:               # a short interval, down to 1e-12
        s1 = s0 + side * 10.0**d1
    else:                      # either way from s0, or out to infinity
        s1 = v + side * d1
    assert _rel_err(A, B, C, s0, s1) < 1e-14


@PROPERTY
@given(st.floats(-20.0, 0.0), st.sampled_from([-1.0, 1.0]),
       st.floats(-1.0, 1.0), st.floats(1.0, 2.0), st.sampled_from([-1.0, 1.0]),
       st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_psi_integral_as_A_tends_to_zero(log_a, sign_a, B, C, sign_c, s0, s1):
    """A from 1 down to 1e-20 with |B| <= 1 <= |C|: the near root -C/B lies
    outside [-0.9, 0.9] and the far one near -B/A, so psi stays away from 0
    and the closed form (delta of either sign) is well conditioned: 1e-14."""
    A, C = sign_a * 10.0**log_a, sign_c * C
    assert _rel_err(A, B, C, s0, s1) < 1e-14


@PROPERTY
@given(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0]),
       st.floats(-12.0, 0.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
       st.floats(0.01, 2.0), st.one_of(st.floats(0.01, 2.0), st.just(math.inf)),
       st.sampled_from([-1.0, 1.0]))
def test_psi_integral_across_the_vertex(log_a, sign_a, log_rel, v, w, d0, d1, side):
    """Intervals over the vertex of psi = A ((s - v)^2 + rel w^2), rel > 0:
    the value there is 1/psi(v)^2 = 16 A^2 / delta^2, and delta = 4AC - B^2
    cancels, so the bound grows with the condition number in (A, B, C)."""
    A = sign_a * 10.0**log_a
    B, C = -2.0 * A * v, A * (v * v + 10.0**log_rel * w * w)
    s0, s1 = v - side * d0 * w, v + side * d1 * w
    err = _rel_err(A, B, C, s0, s1)
    assert err < 1e-14 + 4.0 * EPS * _condition(A, B, C, s0, s1)


# ---------------------------------------------------------------------------
# solutions of the geodesic equation


SOLVE_LINES = {
    "two-poles-inside": GeodesicLine(DISK, [0.0, 0.0], [0.9, 0.0]),
    "two-poles-outside": GeodesicLine(parse_model("S(2,0;-1;+)"), [2.0, 0.0], [1.0, 0.0]),
    "double-pole": GeodesicLine(parse_model("S(2,0;0;+)"), [1.0, 0.0], [1.0, 0.0]),
    "no-pole": GeodesicLine(PLANE, [0.0, 0.0], [1.0, 0.0]),
    "single-pole": GeodesicLine(parse_model("S(1,1;1;+)"), [1.0, 0.5], [1.0, 1.0]),
    "constant": GeodesicLine(parse_model("S(1,1;1;+)"), [0.5, 0.5], [1.0, 1.0]),
}


@pytest.mark.parametrize("line", SOLVE_LINES.values(), ids=SOLVE_LINES.keys())
def test_solved_s_satisfies_the_integral_equation(line):
    """J0(s0, s(t)) = rate (t - t0) to rounding, inside t_interval."""
    sol = solve_geodesic(line, 0.25, 0.1, -0.7)
    lo, hi = sol.t_interval
    lo, hi = max(lo, 0.25 - 10.0), min(hi, 0.25 + 10.0)
    for t in np.linspace(lo, hi, 41)[1:-1]:
        got = psi_integral(*sol.coeffs, sol.s0, sol.s_at(t))
        assert got == pytest.approx(sol.rate * (t - sol.t0), rel=1e-13, abs=1e-15)


def test_solve_refuses_times_outside_the_interval():
    sol = solve_geodesic(SOLVE_LINES["no-pole"], 0.0, 0.0, 1.0)   # (-pi/4, pi/4)
    for t in (math.pi / 4, 1.0, -2.0):
        with pytest.raises(DomainError):
            sol.s_at(t)
    with pytest.raises(DomainError):
        sol.sample([0.0, 0.5, 0.9])
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError):
            sol.point(t)


def test_sample_in_any_order_matches_single_solves():
    """Warm starts from the previous root change nothing beyond rounding."""
    sol = solve_geodesic(SOLVE_LINES["two-poles-inside"], 0.0, 0.0, 1.0)
    ts = np.linspace(-3.0, 3.0, 25)
    pts = sol.sample(ts)
    perm = RNG.permutation(len(ts))
    assert np.allclose(sol.sample(ts[perm]), pts[perm], rtol=1e-14, atol=1e-15)
    for t, p in zip(ts[::6], pts[::6]):
        assert np.allclose(sol.point(t), p, rtol=1e-14, atol=1e-15)


# the chord of S(1,1;0;+) on which psi is nearly a perfect square (relative
# discriminant 1.3e-8); its h-length by mpmath at 50 digits
NEAR_SQUARE = ([2.0647107734824903, -1.3025667252313344],
               [0.6350870695619868, -0.40070232668003514], 0.044811377852405700045)


def test_near_double_root_chord_starts_where_it_should():
    a, e, _ = NEAR_SQUARE
    line = GeodesicLine(parse_model("S(1,1;0;+)"), a, e)
    start = solve_geodesic(line, 0.0, 0.0, 1.9860823075959089).point(0.0)
    assert np.abs(start - np.array(a)).max() <= 1e-12 * np.abs(a).max()


def test_near_double_root_chord_travel_time_matches_mpmath():
    a, e, want = NEAR_SQUARE
    a = np.array(a)
    got = travel_time(parse_model("S(1,1;0;+)"), a, a + np.array(e)).time
    assert got == pytest.approx(want, rel=1e-12)


def test_geodesic_satisfies_connection_ode():
    """x'' = -2 a(x)(x') x' along solutions, by central differences."""
    configs = [
        (DISK, [0.1, 0.2], [0.7, -0.3]),
        (PLANE, [0.5, 0.0], [0.3, 0.8]),
        (parse_model("S(1,1;1;+)"), [0.2, 0.1], [1.0, 0.4]),
    ]
    h = 1e-5
    for model, x0, e in configs:
        line = GeodesicLine(model, x0, e)
        sol = solve_geodesic(line, 0.0, 0.0, 1.0)
        a = form_from_potential(model.potential())
        lo, hi = sol.t_interval
        t_probe = 0.3 * min(1.0, (hi - lo) / 4.0)
        for t in (0.0, t_probe):
            x = sol.point(t)
            v = sol.velocity(t)
            acc = (sol.point(t + h) - 2.0 * x + sol.point(t - h)) / h**2
            want = -2.0 * float(a.evaluate(x) @ v) * v
            assert np.abs(acc - want).max() < 1e-4 * max(
                1.0, np.abs(want).max()), model


def test_geodesic_initial_conditions():
    line = GeodesicLine(DISK, [0.1, 0.2], [0.7, -0.3])
    sol = solve_geodesic(line, 0.5, 0.2, -0.8)
    assert sol.s_at(0.5) == pytest.approx(0.2, abs=1e-10)
    h = 1e-6
    fd = (sol.s_at(0.5 + h) - sol.s_at(0.5 - h)) / (2.0 * h)
    assert fd == pytest.approx(-0.8, rel=1e-6)


def test_plane_model_interval_is_quarter_pi():
    """Unit-speed line through 0 in psi = q + 1 lives exactly on
    (-pi/4, pi/4)."""
    line = GeodesicLine(PLANE, [0.0, 0.0], [1.0, 0.0])
    sol = solve_geodesic(line, 0.0, 0.0, 1.0)
    lo, hi = sol.t_interval
    assert abs(lo + math.pi / 4.0) < 1e-10
    assert abs(hi - math.pi / 4.0) < 1e-10
    assert sol.asymptotics["kind"] == "finite-time-blowup"
    # blowup really happens: s explodes approaching the edge
    assert abs(sol.s_at(hi - 1e-9)) > 1e2


def test_geodesic_sample_shape_and_asymptote():
    model = parse_model("S(1,1;1;+)")
    line = GeodesicLine(model, [1.0, 0.5], [1.0, 1.0])
    # run toward the pole y = 0: the boundary point is the t -> +inf limit
    sol = solve_geodesic(line, 0.0, 0.0, -1.0)
    pts = sol.sample(np.linspace(0.0, 2.0, 5))
    assert pts.shape == (5, 2)
    assert sol.asymptotics["kind"] == "infinite-time-limit"
    x_inf = sol.asymptotics["x_inf"]
    assert model.psi(x_inf) == pytest.approx(0.0, abs=1e-12)
    assert np.abs(sol.point(1e6) - x_inf).max() < 1e-3
    # the other interval edge is finite: the orbit escapes to infinity there
    lo, hi = sol.t_interval
    assert math.isinf(hi) and not math.isinf(lo)


def test_affine_case_is_straight_line_parameterization():
    model = parse_model("S(1,1;1;+)")
    line = GeodesicLine(model, [0.5, 0.5], [1.0, 1.0])
    sol = solve_geodesic(line, 0.0, 0.0, 1.0)
    assert sol.asymptotics["kind"] == "affine"
    assert math.isinf(sol.t_interval[0]) and math.isinf(sol.t_interval[1])
    assert sol.s_at(3.7) == pytest.approx(3.7, rel=1e-12)


def test_solve_rejects_zero_speed():
    line = GeodesicLine(DISK, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        solve_geodesic(line, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# symmetries of chord answers


def _chords(model, n, rng):
    """n chords [a, b] off null directions, along which nu psi stays above
    0.05 and within a factor 4: there an input rounding moves times and
    points by a few ulps times (max |psi| / min |psi|)^2, well below 1e-12."""
    chords = []
    while len(chords) < n:
        a, b = rng.uniform(-2.5, 2.5, size=(2, 2))
        nu_psi = [model.nu * model.psi(a + s * (b - a)) for s in np.linspace(0, 1, 33)]
        if (abs(model.sig.q(b - a)) >= 0.1 * float((b - a) @ (b - a))
                and segment_margin(model, a, b) > 0.05
                and max(nu_psi) < 4.0 * min(nu_psi)):
            chords.append((a, b))
    return chords


@pytest.mark.parametrize("tag", ["S(2,0;0;+)", "S(1,1;0;+)", "S(1,1;0;-)",
                                 "S(0,2;0;-)"])
def test_travel_time_scales_as_inverse_cube_under_dilation(tag):
    """psi = q(x) when lambda = 0: x -> c x scales g-lengths by c and psi^2
    by c^4, so h-times by c^-3."""
    model = parse_model(tag)
    for a, b in _chords(model, 20, np.random.default_rng(3)):
        t = travel_time(model, a, b).time
        for c in (0.3, 1.7, 2.9):
            assert travel_time(model, c * a, c * b).time == pytest.approx(
                t / c**3, rel=1e-12)


@pytest.mark.parametrize("tag", ["S(1,1;-1;+)", "S(1,1;0;+)", "S(1,1;1;+)",
                                 "S(1,1;-1;-)", "S(1,1;0;-)", "S(1,1;1;-)"])
def test_chord_answers_are_boost_invariant(tag):
    """A boost L of rapidity 0.7 preserves q, psi and each branch, so it maps
    chord geodesics onto chord geodesics with the same clock."""
    model = parse_model(tag)
    ch, sh = math.cosh(0.7), math.sinh(0.7)
    L = np.array([[ch, sh], [sh, ch]])
    for a, b in _chords(model, 20, np.random.default_rng(4)):
        assert travel_time(model, L @ a, L @ b).time == pytest.approx(
            travel_time(model, a, b).time, rel=1e-12)
        sol = solve_geodesic(GeodesicLine(model, a, b - a), 0.0, 0.0, 1.0)
        moved = solve_geodesic(GeodesicLine(model, L @ a, L @ (b - a)), 0.0, 0.0, 1.0)
        for t, t_moved in zip(sol.t_interval, moved.t_interval):
            assert t_moved == t or t_moved == pytest.approx(t, rel=1e-12)
        ts = np.linspace(0.0, psi_integral(*sol.coeffs, 0.0, 1.0) / sol.rate, 9)
        want = sol.sample(ts) @ L.T
        got = moved.sample(ts)
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.abs(got - want).max() <= 1e-12 * scale.max()


# ---------------------------------------------------------------------------
# completeness


def test_completeness_two_d_census():
    for tag in ["S(2,0;-1;+)", "S(2,0;0;+)", "S(2,0;1;+)", "S(2,0;-1;-)",
                "S(1,1;-1;+)", "S(1,1;0;+)", "S(1,1;1;+)", "S(1,1;-1;-)",
                "S(1,1;0;-)", "S(1,1;1;-)", "S(0,2;1;-)", "S(0,2;0;-)",
                "S(0,2;-1;-)", "S(0,2;1;+)"]:
        verdict = completeness_verdict(parse_model(tag))
        assert verdict.complete == (tag in TWO_D_COMPLETE), tag
        if not verdict.complete:
            lo, hi = verdict.witness_interval
            assert not (math.isinf(lo) and math.isinf(hi)), tag
            assert verdict.witness is not None


def test_completeness_three_d_spot_checks():
    assert completeness_verdict(parse_model("S(3,0;-1;-)")).complete
    assert completeness_verdict(parse_model("S(0,3;1;+)")).complete
    assert not completeness_verdict(parse_model("S(3,0;1;+)")).complete
    assert not completeness_verdict(parse_model("S(2,1;-1;-)")).complete


# ---------------------------------------------------------------------------
# travel times


def test_travel_time_radial_frozen():
    """T(0, 0.9 e_1) in the disk equals F-1(0.9)/4 = 3.1045307974231857."""
    t = travel_time(DISK, [0.0, 0.0], [0.9, 0.0])
    assert t.regime == "Spacelike"
    assert t.time == pytest.approx(3.1045307974231857, rel=1e-12)
    assert t.time == pytest.approx(F_eval(-1, 0.9) / 4.0, rel=1e-14)


def test_travel_time_matches_quadrature():
    """Independent oracle: T = int alpha sqrt(q(e)) / psi(gamma(t))^2 dt by
    Gauss-Legendre quadrature along the chord."""
    nodes, weights = np.polynomial.legendre.leggauss(240)
    ts = 0.5 * (nodes + 1.0)
    cases = [
        (DISK, [0.0, 0.0], [0.9, 0.0]),
        (DISK, [0.9, 0.0], [0.0, 0.9]),
        (DISK, [-0.2, 0.3], [0.4, 0.5]),
        (PLANE, [0.0, 0.0], [2.0, 1.0]),
        (parse_model("S(2,0;-1;+)"), [2.0, 0.0], [3.0, 1.0]),
    ]
    for model, a, b in cases:
        a, b = np.asarray(a, float), np.asarray(b, float)
        e = b - a
        pts = a[None, :] + ts[:, None] * e[None, :]
        psi = np.array([model.psi(p) for p in pts])
        integral = 0.5 * float(
            (weights * (math.sqrt(model.sig.q(e)) / psi**2)).sum())
        got = travel_time(model, a, b).time
        assert got == pytest.approx(integral, rel=1e-9), (a, b)


def test_travel_time_additivity_on_chords():
    a, m, b = [0.0, 0.0], [0.45, 0.0], [0.9, 0.0]
    total = travel_time(DISK, a, b).time
    split = travel_time(DISK, a, m).time + travel_time(DISK, m, b).time
    assert split == pytest.approx(total, rel=1e-12)


def test_travel_time_symmetry_and_alpha_scaling():
    a, b = [0.1, 0.2], [0.5, -0.3]
    t1 = travel_time(DISK, a, b).time
    assert travel_time(DISK, b, a).time == pytest.approx(t1, rel=1e-12)
    assert travel_time(DISK, a, b, alpha=2.5).time == pytest.approx(
        2.5 * t1, rel=1e-12)


# chords that start near the boundary, with psi(b)^2 / psi(a)^2 of 4e4 - 8e4,
# and their h-lengths alpha sqrt|q(b - a)| int_0^1 ds / psi^2 (alpha = 1) by
# mpmath.quad at 60 digits over 32 equal pieces of [0, 1]
BOUNDARY_CHORDS = [
    ("S(1,1;0;-;R)", (-2.331535516886514, 2.344840722856657),
     (-1.1931937401289623, 4.406542412827973), 1.8256532130892100034),
    ("S(1,1;-1;+)", (1.8462766847042786, 1.5354325823098707),
     (3.436508855400013, -0.3709222896281359), 1.7499641793059004414),
    ("S(1,1;0;-)", (-2.4151959917263888, 2.427659319096323),
     (-0.4755357161905469, 3.972589453377232), 1.1505248334983580191),
]


@pytest.mark.parametrize("tag,a,b,want", BOUNDARY_CHORDS,
                         ids=[c[0] for c in BOUNDARY_CHORDS])
def test_travel_time_near_the_boundary_matches_mpmath(tag, a, b, want):
    """travel_time is exact on these chords, where a 512-node Gauss-Legendre
    rule is off by 2e-9 - 2e-8: a sampled chord that misses its end point
    there shows a fault of the quadrature it is checked against."""
    assert travel_time(parse_model(tag), a, b).time == pytest.approx(want, rel=1e-12)

def test_travel_time_null_chord():
    model = parse_model("S(1,1;1;+)")
    t = travel_time(model, [0.0, 0.0], [0.5, 0.5])
    assert t.regime == "Null"
    assert t.time == 0.0


def test_near_null_chord_is_timed_not_flagged():
    """A = 1 - 1.000000000000005^2 = -1.02e-14 is not 0: the chord is timed
    (60-digit mpmath on the float endpoints), not flagged as null."""
    model = parse_model("S(1,1;1;+)")
    b = 1.000000000000005
    t = travel_time(model, [0.0, 0.0], [1.0, b])
    assert t.regime == "Spacelike"
    with mpmath.workdps(60):
        A = 1 - mpmath.mpf(b) ** 2
        J = mpmath.quad(lambda s: 1 / (A * s * s + 1) ** 2, [0, 1])
        want = mpmath.sqrt(abs(A)) * J
    assert t.time == pytest.approx(float(want), rel=1e-12)


def test_underflowing_chords_are_refused():
    """A nonzero direction whose A (and B) underflow would read as null or
    as a constant line: refused, not answered as if e were 0 or null."""
    with pytest.raises(DomainError, match="underflows"):
        travel_time(PLANE, [1e-170, 0.0], [3e-170, 0.0])
    line = GeodesicLine(PLANE, [0.0, 0.0], [1e-200, 0.0])
    with pytest.raises(DomainError, match="underflows"):
        solve_geodesic(line, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError, match="underflows"):
        solve_geodesic(GeodesicLine(PLANE, [0.5, 0.0], [1e-200, 0.0]), 0.0, 0.0, 1.0)
    # a product that underflows next to a normal one is below A's rounding
    line = GeodesicLine(PLANE, [0.0, 0.0], [1.0, 1e-200])
    assert solve_geodesic(line, 0.0, 0.0, 1.0).case.case == C5_NO_POLE
    # a null direction's A is exactly 0 with no underflow: flagged as before
    assert travel_time(parse_model("S(1,1;1;+)"), [0.0, 0.0],
                       [1e-100, 1e-100]).regime == "Null"


def test_travel_time_guards():
    with pytest.raises(DomainError):
        travel_time(DISK, [0.0, 0.0], [1.5, 0.0])
    exterior = parse_model("S(2,0;-1;+)")
    with pytest.raises(DomainError):
        # the chord through the disk exits the exterior domain
        travel_time(exterior, [2.0, 0.0], [-2.0, 0.0])
    with pytest.raises(DomainError):
        # grazing chord: psi dips to -2e-5 between 257-point samples
        travel_time(exterior, [-2.0, 0.99999], [2.01, 0.99999])


# ---------------------------------------------------------------------------
# the triangle experiment


def test_triangle_frozen_values():
    res = triangle_experiment(0.9)
    assert res.T_ab == pytest.approx(8.183722771592207, rel=1e-10)
    assert res.T_sum == pytest.approx(6.209061594846371, rel=1e-10)
    assert res.violates


def test_triangle_small_s_obeys_inequality():
    res = triangle_experiment(0.3)
    assert not res.violates
    assert res.T_ab < res.T_sum


def test_triangle_crossover():
    s0 = find_s0(tol=1e-8)
    assert s0 == pytest.approx(0.6873173236846923, abs=1e-6)
    assert not triangle_experiment(s0 - 1e-3).violates
    assert triangle_experiment(s0 + 1e-3).violates


def test_triangle_legs_are_bit_equal():
    """T(o, a) and T(o, b) are one number, so T_sum = 2 T(o, a) is exact."""
    for s in RNG.uniform(0.0, 1.0, size=200):
        legs = [travel_time(DISK, [0.0, 0.0], p).time for p in ([s, 0.0], [0.0, s])]
        assert legs[0] == legs[1]
        assert triangle_experiment(s).T_sum == legs[0] + legs[1]
