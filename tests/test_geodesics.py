"""Geodesic parameterization: case reduction, F inversion, travel times."""

import math

import numpy as np
import pytest

from stiffgeo.errors import DomainError
from stiffgeo.geodesics import (
    C1_CONSTANT,
    C2_SINGLE_POLE,
    C3_TWO_POLES,
    C4_DOUBLE_POLE,
    C5_NO_POLE,
    F_eval,
    F_invert,
    GeodesicLine,
    completeness_verdict,
    find_s0,
    reduce_line,
    solve_geodesic,
    travel_time,
    triangle_experiment,
)
from stiffgeo.models import parse_model
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


def test_F_invert_round_trip():
    lines = [
        GeodesicLine(DISK, [0.0, 0.0], [0.9, 0.0]),            # C3 inside
        GeodesicLine(parse_model("S(2,0;-1;+)"), [2.0, 0.0], [1.0, 0.0]),
        GeodesicLine(parse_model("S(2,0;0;+)"), [1.0, 0.0], [1.0, 0.0]),
        GeodesicLine(PLANE, [0.0, 0.0], [1.0, 0.0]),           # C5
        GeodesicLine(parse_model("S(1,1;1;+)"), [1.0, 0.5], [1.0, 1.0]),
    ]
    for line in lines:
        sol = solve_geodesic(line, 0.0, 0.0, 1.0)
        comp = sol.component
        lo, hi = comp
        for _ in range(30):
            y = RNG.uniform(max(lo, -5.0) + 1e-3, min(hi, 5.0) - 1e-3)
            if not lo < y < hi:
                continue
            from stiffgeo.geodesics import _F_for_case
            F, _, _ = _F_for_case(sol.case)
            back = F_invert(sol.case, comp, F(y))
            assert back == pytest.approx(y, rel=1e-9, abs=1e-9)


def test_F_invert_rejects_out_of_range():
    line = GeodesicLine(PLANE, [0.0, 0.0], [1.0, 0.0])
    sol = solve_geodesic(line, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        F_invert(sol.case, sol.component, 10.0)   # range is (-pi/2, pi/2)


# ---------------------------------------------------------------------------
# solutions of the geodesic equation


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


def test_travel_time_null_chord():
    model = parse_model("S(1,1;1;+)")
    t = travel_time(model, [0.0, 0.0], [0.5, 0.5])
    assert t.regime == "Null"
    assert t.time == 0.0


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
