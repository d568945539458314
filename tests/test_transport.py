"""Parallel transport: closed forms, ODE cross-checks, holonomy."""

import math

import numpy as np
import pytest

from stiffgeo.errors import DomainError
from stiffgeo.models import contains, interior_point, parse_model
from stiffgeo.projconn import curvature, form_from_potential
from stiffgeo.transport import (
    Arc,
    Parametric,
    Polyline,
    RaySegment,
    characteristic_frequency,
    circle_loop,
    conjugate_rotation_angle,
    holonomy_loop,
    infinitesimal_holonomy,
    oscillator_matrix,
    path_arc,
    transport_arc,
    transport_lightcone,
    transport_ode,
    transport_ray,
)

RNG = np.random.default_rng(20260804)

DISK = parse_model("S(2,0;-1;-)")


# ---------------------------------------------------------------------------
# rays


def test_ray_scaling_law_disk():
    """Transport along t -> t e_1 in the disk from t=0.1 to t=0.5.

    Oracle: Lambda = psi(0.5 e_1)/psi(0.1 e_1) = (0.25-1)/(0.01-1) = 25/33;
    the radial direction scales by Lambda^2, the orthogonal one by Lambda.
    """
    tm = transport_ray(DISK, np.array([1.0, 0.0]), 0.1, 0.5)
    lam = 25.0 / 33.0
    assert tm.matrix == pytest.approx(np.diag([lam**2, lam]), rel=1e-12)
    assert tm.matrix[0, 0] == pytest.approx(0.5739210284664831, rel=1e-12)


def test_ray_matches_ode():
    for tag in ("S(2,0;-1;-)", "S(1,1;1;+)", "S(2,1;-1;-)"):
        model = parse_model(tag)
        d = model.sig.d
        for _ in range(5):
            e = RNG.normal(size=d)
            if abs(model.sig.q(e)) < 0.1:
                continue
            ts = sorted(0.2 + 0.6 * RNG.random(2))
            t0, t1 = ts
            try:
                closed = transport_ray(model, e, t0, t1)
            except DomainError:
                continue
            ode = transport_ode(model, RaySegment(np.asarray(e), t0, t1),
                                tol=1e-11)
            assert np.abs(closed.matrix - ode.matrix).max() < 1e-8


def test_ray_composition():
    """Transport 0.1 -> 0.3 -> 0.5 equals 0.1 -> 0.5 (Lambda multiplies)."""
    e = np.array([1.0, 0.0])
    ab = transport_ray(DISK, e, 0.1, 0.3)
    bc = transport_ray(DISK, e, 0.3, 0.5)
    ac = transport_ray(DISK, e, 0.1, 0.5)
    assert np.abs(bc.matrix @ ab.matrix - ac.matrix).max() < 1e-12


def test_ray_determinant_law():
    """det T = (psi(to)/psi(from))^(d+1) for rays in several dimensions."""
    for tag in ("S(2,0;-1;-)", "S(1,1;1;+)", "S(3,0;-1;-)", "S(2,1;-1;-)"):
        model = parse_model(tag)
        d = model.sig.d
        e = np.zeros(d)
        e[0] = 1.0
        tm = transport_ray(model, e, 0.2, 0.6)
        want = (model.psi(tm.to_point) / model.psi(tm.from_point)) ** (d + 1)
        assert tm.det() == pytest.approx(want, rel=1e-10)


def test_ray_rejects_null_direction_and_root_crossing():
    model = parse_model("S(1,1;-1;-)")
    with pytest.raises(DomainError):
        transport_ray(model, np.array([1.0, 1.0]), 0.5, 2.0)
    with pytest.raises(DomainError):
        # psi = 1 - t^2 along t*e_2 vanishes at t = 1 inside [0.5, 2]
        transport_ray(parse_model("S(1,1;1;+)"), np.array([0.0, 1.0]),
                      0.5, 2.0)


def test_lightcone_formula_and_ode():
    """Null-ray transport: v -> v + <e,v> (f1^2 - f0^2)/lambda e."""
    model = parse_model("S(1,1;-1;-)")
    e = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert abs(model.sig.q(e)) < 1e-15
    v0 = np.array([0.3, -0.7])
    f0, f1 = 0.5, 2.0
    got = transport_lightcone(model, e, f0, f1, v0)
    want = v0 + model.sig.dot(e, v0) * (f1**2 - f0**2) / model.lam * e
    assert got == pytest.approx(want, rel=1e-14)
    # vectors q-orthogonal to e (i.e. along e itself, q(e)=0) are unchanged
    kept = transport_lightcone(model, e, f0, f1, e)
    assert kept == pytest.approx(e, rel=1e-14)
    # ODE cross-check along the straight segment on the cone
    ode = transport_ode(model, Polyline(np.array([f0 * e, f1 * e])), tol=1e-11)
    assert ode.matrix @ v0 == pytest.approx(want, rel=1e-8)


def test_polyline_guard_grazing_chord():
    """psi dips to -2e-5 near x = 0, between the points a sampled guard saw."""
    exterior = parse_model("S(2,0;-1;+)")
    with pytest.raises(DomainError):
        transport_ode(exterior, Polyline([[-2.0, 0.99999], [2.01, 0.99999]]))


def test_lightcone_guards():
    model = parse_model("S(1,1;-1;-)")
    with pytest.raises(DomainError):
        transport_lightcone(model, np.array([1.0, 0.2]), 0.5, 2.0,
                            np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        transport_lightcone(parse_model("S(1,1;0;+)"),
                            np.array([1.0, 1.0]), 0.5, 2.0,
                            np.array([1.0, 0.0]))


def test_path_specs_reject_non_finite_parameters():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            RaySegment([1.0, 0.0], bad, 0.5)
        with pytest.raises(ValueError):
            RaySegment([1.0, 0.0], 0.1, bad)
        with pytest.raises(ValueError):
            RaySegment([bad, 0.0], 0.1, 0.5)
        for args in ((bad, 0.0, 1.0), (0.5, bad, 1.0), (0.5, 0.0, bad)):
            with pytest.raises(ValueError):
                Arc([1.0, 0.0], [0.0, 1.0], *args)
        with pytest.raises(ValueError):
            transport_arc(DISK, (1, 2), 0.5, 0.0, bad)


def test_nan_margin_and_nan_point_are_refused():
    from stiffgeo.transport import _guard
    with pytest.raises(DomainError):
        _guard(DISK, math.nan, "path")
    assert not contains(DISK, [math.nan, 0.0])


def test_hyperbolic_arc_past_float_range_is_refused():
    """cosh(800) overflows a double: the arc is refused, not a traceback."""
    model = parse_model("S(1,1;1;+)")
    with pytest.raises(DomainError):
        transport_arc(model, (1, 2), 1.0, 0.0, 800.0)
    with pytest.raises(DomainError):
        transport_ode(model, path_arc(model, (1, 2), 1.0, 0.0, 800.0))
    # the path fits, but the oscillator cosh(omega theta) has omega^2 ~ 10
    with pytest.raises(DomainError):
        transport_arc(parse_model("S(1,1;-1;-)"), (1, 2), 0.9, 0.0, 300.0)


# ---------------------------------------------------------------------------
# parametric paths


def _circle(r):
    return lambda t: r * np.array([math.cos(t), math.sin(t)])


def test_parametric_circle_matches_closed_form_arc():
    path = Parametric(_circle(0.5), 0.0, 2.0 * math.pi)
    ode = transport_ode(DISK, path, tol=1e-11)
    closed = transport_arc(DISK, (1, 2), 0.5, 0.0, 2.0 * math.pi)
    assert np.abs(ode.matrix - closed.matrix).max() < 1e-8
    assert ode.from_point == pytest.approx([0.5, 0.0])


def test_parametric_path_crossing_boundary_is_refused():
    """t -> (t, 0) for t in [0, 2] leaves the unit disk at t = 1."""
    path = Parametric(lambda t: np.array([t, 0.0]), 0.0, 2.0)
    with pytest.raises(DomainError):
        transport_ode(DISK, path)


def test_parametric_exact_velocity_agrees_with_central_differences():
    dcircle = lambda t: 0.5 * np.array([-math.sin(t), math.cos(t)])
    exact = Parametric(_circle(0.5), 0.0, 2.0, dfn=dcircle)
    approx = Parametric(_circle(0.5), 0.0, 2.0)
    for t in (0.0, 0.7, 2.0):
        assert approx.velocity(t) == pytest.approx(dcircle(t), abs=1e-8)
        assert np.array_equal(exact.velocity(t), dcircle(t))
    a = transport_ode(DISK, exact, tol=1e-11).matrix
    b = transport_ode(DISK, approx, tol=1e-11).matrix
    assert np.abs(a - b).max() < 1e-7


# ---------------------------------------------------------------------------
# arcs


def test_characteristic_frequency_regimes():
    model = parse_model("S(2,0;1;+)")
    real = characteristic_frequency(model, 4.0, +1)
    assert real.regime == "Real"
    assert real.omega == pytest.approx(complex(math.sqrt(0.6), 0.0))
    imag = characteristic_frequency(model, 0.25, +1)
    assert imag.regime == "Imaginary"
    assert imag.omega == pytest.approx(complex(0.0, math.sqrt(0.6)))
    zero = characteristic_frequency(model, 1.0, +1)
    assert zero.regime == "Zero"
    assert zero.omega == 0j
    with pytest.raises(DomainError):
        characteristic_frequency(model, -1.0, -1)  # q + lambda = 0
    with pytest.raises(DomainError):
        characteristic_frequency(model, 0.0, +1)


def test_oscillator_matrix_cases():
    s, eps, t = 0.36, 1, 0.8
    w = math.sqrt(s)
    M = oscillator_matrix(s, eps, t)
    assert M == pytest.approx(np.array(
        [[math.cosh(w * t), math.sinh(w * t) / w],
         [s * math.sinh(w * t) / w, math.cosh(w * t)]]))
    M = oscillator_matrix(-s, eps, t)
    assert M == pytest.approx(np.array(
        [[math.cos(w * t), math.sin(w * t) / w],
         [-s * math.sin(w * t) / w, math.cos(w * t)]]))
    # series branch near zero agrees with the direct formulas
    tiny = 1e-9
    assert oscillator_matrix(tiny, eps, t) == pytest.approx(
        oscillator_matrix(0.0, eps, t), abs=1e-9)


def test_omega_zero_is_shear_not_identity():
    """On the omega = 0 leaf transport is the unipotent shear [[1, t], [0, 1]]
    in the moving frame.  Confirmed against direct ODE integration."""
    model = parse_model("S(2,0;1;+)")   # psi = q + 1, arcs at r = 1 have s = 0
    t = 0.7
    tm = transport_arc(model, (1, 2), 1.0, 0.0, t)
    assert tm.moving_matrix == pytest.approx(
        np.array([[1.0, t], [0.0, 1.0]]), abs=1e-12)
    # frozen vector check: e_theta at theta=0 lands on t*e_r + e_theta
    e_r1 = np.array([math.cos(t), math.sin(t)])
    e_t1 = np.array([-math.sin(t), math.cos(t)])
    got = tm.matrix @ np.array([0.0, 1.0])
    assert got == pytest.approx(t * e_r1 + e_t1, abs=1e-12)
    ode = transport_ode(model, path_arc(model, (1, 2), 1.0, 0.0, t), tol=1e-11)
    assert np.abs(ode.matrix - tm.matrix).max() < 1e-8


def test_arc_closed_form_matches_ode():
    cases = [
        ("S(2,0;-1;-)", (1, 2), 0.6, -0.4, 1.1),       # trig arc
        ("S(2,0;1;+)", (1, 2), 1.7, 0.0, 2.0),         # trig, s > 0
        ("S(1,1;1;+)", (1, 2), 0.9, -0.5, 0.8),        # hyperbolic arc
        ("S(1,1;-1;-)", (1, 2), 0.7, 0.0, 1.2),
        ("S(2,1;-1;-)", (1, 2), 0.5, 0.2, 1.5),        # definite plane in d=3
        ("S(2,1;-1;-)", (1, 3), 0.4, 0.0, 0.9),        # mixed plane in d=3
    ]
    for tag, plane, r, a, b in cases:
        model = parse_model(tag)
        closed = transport_arc(model, plane, r, a, b)
        ode = transport_ode(model, path_arc(model, plane, r, a, b), tol=1e-11)
        assert np.abs(closed.matrix - ode.matrix).max() < 1e-7, tag


def test_arc_determinant_law():
    for tag, plane, r, a, b in [("S(2,0;1;+)", (1, 2), 1.7, 0.0, 2.0),
                                ("S(1,1;1;+)", (1, 2), 0.9, -0.5, 0.8)]:
        model = parse_model(tag)
        tm = transport_arc(model, plane, r, a, b)
        want = (model.psi(tm.to_point) / model.psi(tm.from_point)) ** (
            model.sig.d + 1)
        # equipotential arc: psi constant, det = 1
        assert want == pytest.approx(1.0, rel=1e-12)
        assert tm.det() == pytest.approx(1.0, rel=1e-10)


def test_arc_plane_preservation_d3():
    """Transport in the (1,2) plane fixes the q-orthocomplement pointwise."""
    model = parse_model("S(3,0;-1;-)")
    tm = transport_arc(model, (1, 2), 0.5, 0.0, 2.0)
    e3 = np.array([0.0, 0.0, 1.0])
    assert tm.matrix @ e3 == pytest.approx(e3, abs=1e-12)
    v = tm.matrix @ np.array([1.0, 2.0, 0.0])
    assert v[2] == pytest.approx(0.0, abs=1e-12)


def test_arc_vector_pair_plane():
    """A q-orthonormal vector pair defines the same arc as its index plane."""
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    a = transport_arc(DISK, (1, 2), 0.4, 0.1, 0.9)
    b = transport_arc(DISK, (u, w), 0.4, 0.1, 0.9)
    assert np.abs(a.matrix - b.matrix).max() < 1e-14


def test_arc_guards():
    with pytest.raises(ValueError):
        transport_arc(DISK, (np.array([2.0, 0.0]), np.array([0.0, 1.0])),
                      0.4, 0.0, 1.0)          # not q-unit
    with pytest.raises(ValueError):
        transport_arc(DISK, (2, 1), 0.4, 0.0, 1.0)   # needs i < j
    with pytest.raises(DomainError):
        transport_arc(DISK, (1, 2), 1.5, 0.0, 1.0)   # outside the disk


# ---------------------------------------------------------------------------
# holonomy


def test_infinitesimal_holonomy_disk_center():
    M = infinitesimal_holonomy(DISK, np.array([0.0, 0.0]), 1, 2)
    assert M == pytest.approx(np.array([[0.0, 2.0], [-2.0, 0.0]]))


def test_infinitesimal_holonomy_is_minus_curvature():
    """M(i,j)[l,k] = -R_{ijk}^l at random interior points."""
    for tag in ("S(2,0;-1;-)", "S(1,1;1;+)", "S(2,1;-1;-)"):
        model = parse_model(tag)
        d = model.sig.d
        x = interior_point(model) + 0.05 * RNG.normal(size=d)
        if not contains(model, x):
            x = interior_point(model)
        R = curvature(form_from_potential(model.potential()), x)
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                M = infinitesimal_holonomy(model, x, i, j)
                for k in range(d):
                    for l in range(d):
                        assert M[l, k] == pytest.approx(
                            -R[i - 1, j - 1, k, l], abs=1e-10)


def test_full_turn_hyperbolic_holonomy():
    """Unit circle in S(2,0;0;+): moving matrix is [[cosh, sinh], [sinh,
    cosh]] at 2 pi.  Radius drops out since lambda = 0."""
    model = parse_model("S(2,0;0;+)")
    for r in (1.0, 0.35):
        tm = transport_arc(model, (1, 2), r, 0.0, 2.0 * math.pi)
        c, s = math.cosh(2.0 * math.pi), math.sinh(2.0 * math.pi)
        assert tm.moving_matrix == pytest.approx(
            np.array([[c, s], [s, c]]), rel=1e-12)
    assert math.cosh(2.0 * math.pi) == pytest.approx(267.74676148374822)


def test_disk_holonomy_rotation_angle():
    """Circle of radius r in the disk: the moving matrix is conjugate to a
    rotation by alpha = sqrt((1+r^2)/(1-r^2)); the vector rotation angle is
    the principal value of -2 pi alpha, about -2 pi r^2 for small r."""
    for r in (0.1, 0.3, 0.5):
        tm = transport_arc(DISK, (1, 2), r, 0.0, 2.0 * math.pi)
        alpha = math.sqrt((1.0 + r * r) / (1.0 - r * r))
        angle = conjugate_rotation_angle(tm.moving_matrix[:2, :2])
        want = -math.remainder(2.0 * math.pi * alpha, 2.0 * math.pi)
        assert angle == pytest.approx(want, abs=1e-10)
        assert tm.det() == pytest.approx(1.0, rel=1e-10)
    # leading behaviour: angle = -2 pi r^2 - pi r^4 - pi r^6 + O(r^8)
    r = 0.1
    tm = transport_arc(DISK, (1, 2), r, 0.0, 2.0 * math.pi)
    angle = conjugate_rotation_angle(tm.moving_matrix[:2, :2])
    assert angle == pytest.approx(
        -2.0 * math.pi * r**2 - math.pi * r**4 - math.pi * r**6, abs=1e-7)


def test_conjugate_rotation_angle_exact():
    alpha, th = 1.7, 0.6
    M = np.array([[math.cos(th), math.sin(th) / alpha],
                  [-alpha * math.sin(th), math.cos(th)]])
    assert conjugate_rotation_angle(M) == pytest.approx(-th, abs=1e-14)


def test_holonomy_loop_ode_matches_closed_form():
    loop = circle_loop(DISK, 0.4)
    ode = holonomy_loop(DISK, loop, tol=1e-11)
    closed = transport_arc(DISK, (1, 2), 0.4, 0.0, 2.0 * math.pi)
    assert np.abs(ode.matrix - closed.matrix).max() < 1e-8
    assert ode.det() == pytest.approx(1.0, rel=1e-8)


def test_holonomy_polyline_square():
    """A small square loop has det 1 and holonomy close to the identity
    plus area times the infinitesimal generator."""
    a = 0.05
    c = np.array([0.2, 0.1])
    pts = np.array([c, c + [a, 0], c + [a, a], c + [0, a], c])
    tm = holonomy_loop(DISK, Polyline(pts), tol=1e-11)
    assert tm.det() == pytest.approx(1.0, abs=1e-9)
    gen = infinitesimal_holonomy(DISK, c + a / 2, 1, 2)
    assert np.abs(tm.matrix - (np.eye(2) + a * a * gen)).max() < 5e-4


def test_circle_loop_rejects_mixed_plane():
    model = parse_model("S(1,1;1;+)")
    with pytest.raises(ValueError):
        circle_loop(model, 0.5, (1, 2))


def test_holonomy_loop_rejects_open_path():
    with pytest.raises(ValueError):
        holonomy_loop(DISK, Polyline(np.array([[0.0, 0.0], [0.3, 0.0]])))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_tol_must_be_finite_and_positive(tol):
    """A tol of 0 makes the error scale 0 and ends in a step size underflow;
    it is refused before integrating."""
    with pytest.raises(ValueError):
        transport_ode(DISK, RaySegment(np.array([1.0, 0.0]), 0.1, 0.5), tol=tol)
    with pytest.raises(ValueError):
        holonomy_loop(DISK, circle_loop(DISK, 0.4), tol=tol)
