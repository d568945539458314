"""Conformal metrics: curvature, h-geodesics, volumes, flattening, table."""

import math

import numpy as np
import pytest

from stiffgeo.errors import DomainError
from stiffgeo.geodesics import travel_time
from stiffgeo.kernels import reference
from stiffgeo.metrics import (
    FLAT,
    ISOCHRONE,
    RICCI,
    ConformalMetric,
    comparison_table,
    curvature_forms,
    flatten_lambda0,
    grad_log_factor,
    h_geodesic,
    h_geodesic_acceleration,
    levi_civita_h,
    metric_at,
    scalar_curvature_h,
    vol_g,
    vol_h,
    volume_form_coeff,
)
from stiffgeo.models import contains, interior_point, parse_model
from stiffgeo.projconn import curvature, form_from_potential

RNG = np.random.default_rng(20260806)

DISK = parse_model("S(2,0;-1;-)")
PLANE = parse_model("S(2,0;1;+)")


# ---------------------------------------------------------------------------
# finite-difference Riemannian oracle (metric in, curvature out)


def _christoffel_fd(h, x, step=1e-4):
    """Gamma[k, i, j] of the metric field h from central differences."""
    d = len(x)
    dH = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        dH.append((h(x + e) - h(x - e)) / (2.0 * step))
    Hinv = np.linalg.inv(h(x))
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                s = 0.0
                for l in range(d):
                    s += Hinv[k, l] * (dH[i][l, j] + dH[j][l, i]
                                       - dH[l][i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


def _scalar_curvature_fd(h, x, step=1e-4):
    """Scalar curvature of h at x, all derivatives by finite differences."""
    d = len(x)
    dG = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        dG.append((_christoffel_fd(h, x + e) - _christoffel_fd(h, x - e))
                  / (2.0 * step))
    G = _christoffel_fd(h, x)
    ric = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            s = 0.0
            for k in range(d):
                s += dG[k][k, i, j] - dG[i][k, k, j]
                for l in range(d):
                    s += G[k, k, l] * G[l, i, j] - G[k, i, l] * G[l, k, j]
            ric[i, j] = s
    return float(np.trace(np.linalg.inv(h(x)) @ ric))


# ---------------------------------------------------------------------------
# metric coefficients


def test_metric_kinds():
    x = np.array([0.3, -0.2])
    psi = DISK.psi(x)
    flat = metric_at(ConformalMetric(DISK, FLAT), x)
    assert flat == pytest.approx(np.eye(2))
    ricci = metric_at(ConformalMetric(DISK, RICCI), x)
    assert ricci == pytest.approx((2.0 / psi) * np.eye(2))
    iso = metric_at(ConformalMetric(DISK, ISOCHRONE, alpha=1.5), x)
    assert iso == pytest.approx((1.5**2 / psi**4) * np.eye(2))
    mixed = parse_model("S(1,1;1;+)")
    assert metric_at(ConformalMetric(mixed, FLAT), [0.1, 0.0]) == pytest.approx(
        np.diag([1.0, -1.0]))


def test_ricci_kind_is_the_ricci_tensor():
    """The Ricci coefficient matches the contraction of the curvature tensor
    of the model connection."""
    for tag in ("S(2,0;-1;-)", "S(1,1;1;+)", "S(2,1;-1;-)"):
        model = parse_model(tag)
        d = model.sig.d
        x = 0.1 * np.arange(1, d + 1)
        if not contains(model, x):
            x = np.asarray(interior_point(model))
        a = form_from_potential(model.potential())
        R = curvature(a, x)
        ric = np.einsum("likl->ik", R)
        got = metric_at(ConformalMetric(model, RICCI), x)
        assert got == pytest.approx(ric, abs=1e-10), tag


def test_metric_validation():
    with pytest.raises(ValueError):
        ConformalMetric(DISK, "Euclid")
    with pytest.raises(ValueError):
        ConformalMetric(DISK, ISOCHRONE, alpha=-1.0)
    with pytest.raises(DomainError):
        metric_at(ConformalMetric(DISK), [2.0, 0.0])


# ---------------------------------------------------------------------------
# scalar curvature of the isochrone metric


def test_scalar_curvature_h_matches_fd_riemann():
    """S(h) = 8(d-1)(d lambda - (d-2) q) psi^2 / alpha^2 against the
    finite-difference Riemann pipeline."""
    cases = [
        (DISK, [0.3, -0.2], 1.0),
        (DISK, [0.1, 0.4], 2.0),
        (PLANE, [0.7, 0.2], 1.0),
        (parse_model("S(1,1;1;+)"), [0.3, 0.1], 1.0),
        (parse_model("S(2,1;-1;-)"), [0.2, -0.1, 0.3], 1.0),
        (parse_model("S(3,0;1;+)"), [0.4, 0.1, -0.2], 1.5),
    ]
    for model, x, alpha in cases:
        x = np.asarray(x, dtype=float)
        eps = model.sig.eps

        def h(y, _m=model, _a=alpha, _e=eps):
            return (_a**2 / _m.psi(y) ** 4) * np.diag(_e)

        want = _scalar_curvature_fd(h, x)
        got = scalar_curvature_h(model, x, alpha=alpha)
        assert got == pytest.approx(want, rel=1e-4, abs=1e-6), model


def test_scalar_curvature_h_d2_collapse():
    """For d = 2 the formula collapses to 16 lambda psi^2."""
    x = np.array([0.3, -0.2])
    psi = DISK.psi(x)
    assert scalar_curvature_h(DISK, x) == pytest.approx(-16.0 * psi**2)
    assert scalar_curvature_h(PLANE, [2.0, 1.0]) == pytest.approx(
        16.0 * PLANE.psi([2.0, 1.0]) ** 2)


def test_scalar_curvature_h_extends_to_boundary():
    """Polynomial expression: no domain check, vanishes on psi = 0."""
    assert scalar_curvature_h(DISK, [1.0, 0.0]) == 0.0
    assert scalar_curvature_h(DISK, [3.0, 0.0]) != 0.0


def test_levi_civita_h_matches_fd():
    for tag, x in [("S(2,0;-1;-)", [0.3, -0.2]),
                   ("S(1,1;1;+)", [0.2, 0.4]),
                   ("S(2,1;-1;-)", [0.2, -0.1, 0.3])]:
        model = parse_model(tag)
        x = np.asarray(x, dtype=float)
        eps = model.sig.eps

        def h(y, _m=model, _e=eps):
            return (1.0 / _m.psi(y) ** 4) * np.diag(_e)

        want = _christoffel_fd(h, x, step=1e-5)
        got = levi_civita_h(model, x)
        assert np.abs(got - want).max() < 1e-6, tag


def test_grad_log_factor():
    x = np.array([0.3, -0.2])
    h = 1e-7
    f = lambda y: -2.0 * math.log(abs(DISK.psi(y)))
    fd = np.array([
        (f(x + [h, 0]) - f(x - [h, 0])) / (2 * h),
        (f(x + [0, h]) - f(x - [0, h])) / (2 * h),
    ])
    assert grad_log_factor(DISK, x) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# h-geodesics


def test_h_geodesic_acceleration_closed_form():
    x = np.array([0.3, -0.2])
    v = np.array([0.5, 0.7])
    got = h_geodesic_acceleration(DISK, x, v)
    sig = DISK.sig
    want = (8.0 * sig.dot(x, v) * v - 4.0 * sig.q(v) * x) / DISK.psi(x)
    assert got == pytest.approx(want)
    # and it is the geodesic equation of levi_civita_h: a^k = -Gamma^k_ij v^i v^j
    gamma = levi_civita_h(DISK, x)
    assert got == pytest.approx(-np.einsum("kij,i,j->k", gamma, v, v),
                                rel=1e-12)


def test_h_geodesic_line_through_origin():
    """Lines through the origin are h-geodesic trajectories: the off-line
    force -4 q(v) x / psi points along the line exactly when x is parallel
    to v."""
    trace = h_geodesic(DISK, [0.1, 0.05], [0.5, 0.25], (0.0, 3.0))
    assert trace.speed_drift < 1e-8
    cross = trace.points[:, 0] * 0.25 - trace.points[:, 1] * 0.5
    assert np.abs(cross).max() < 1e-8


def test_h_geodesic_generic_chord_is_not_a_trajectory():
    """A chord missing the origin is not an h-geodesic.  Chord travel times
    are h-lengths, not geodesic distances; the triangle experiment relies on
    this distinction."""
    trace = h_geodesic(DISK, [0.1, 0.2], [0.35, -0.1], (0.0, 2.0))
    e = np.array([0.35, -0.1])
    rel = trace.points - np.array([0.1, 0.2])
    cross = rel[:, 0] * e[1] - rel[:, 1] * e[0]
    assert np.abs(cross).max() > 1e-3


def test_h_geodesic_reaches_travel_time_endpoint():
    """Unit h-speed radial launch from the disk center arrives at 0.9 e_1
    at t = T(0, 0.9 e_1) exactly."""
    T = travel_time(DISK, [0.0, 0.0], [0.9, 0.0]).time
    trace = h_geodesic(DISK, [0.0, 0.0], [1.0, 0.0], (0.0, T), samples=41)
    assert trace.points[-1] == pytest.approx([0.9, 0.0], abs=1e-7)


def test_h_geodesic_circle():
    """The circle r = 1/sqrt(3) in psi = q + 1 is an h-geodesic (psi = 4r^2
    balances the centripetal force)."""
    r = 1.0 / math.sqrt(3.0)
    trace = h_geodesic(PLANE, [r, 0.0], [0.0, 0.8], (0.0, 12.0), samples=301)
    radii = np.hypot(trace.points[:, 0], trace.points[:, 1])
    assert np.abs(radii - r).max() < 1e-6
    assert trace.speed_drift < 1e-8


def test_h_geodesic_off_circle_curves_away():
    trace = h_geodesic(PLANE, [0.9, 0.0], [0.0, 0.8], (0.0, 6.0), samples=121)
    radii = np.hypot(trace.points[:, 0], trace.points[:, 1])
    assert np.abs(radii - 0.9).max() > 1e-2


def test_h_geodesic_boundary_start_raises():
    with pytest.raises(DomainError):
        h_geodesic(DISK, [1.0 - 5e-14, 0.0], [1.0, 0.0], (0.0, 1.0))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_h_geodesic_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError):
        h_geodesic(PLANE, [0.5774, 0.0], [0.0, 1.7778], (0.0, 2.0), tol=tol)


def test_h_geodesic_short_trace_from_zero():
    """A short trace starting at t = 0 once raised a step size underflow: the
    last step of its first sample interval ended one ulp short of the grid
    time and the step left was below the underflow limit."""
    trace = h_geodesic(parse_model("S(0,2;1;+)"),
                       [-0.19081392041297596, -0.22930995304875376],
                       [-0.9537065362253458, -1.1461134521569827],
                       (0.0, 0.11900511979246163), samples=17)
    assert trace.points.shape == (17, 2)
    assert trace.speed_drift < 1e-8


def test_h_geodesic_dense_samples_match_restarted_integration():
    """Every sample of a 2001-sample trace of the README circle, read off
    the dense output, agrees with an integration at tol 1e-13 restarted at
    each sample time (no interpolation).  Step-end states alone would not
    catch a wrong interpolant coefficient.  The deviation is 1.6e-10; without
    the 4th-order term of the interpolant it is 2.6e-9."""
    x0, v0 = [0.5774, 0.0], [0.0, 1.7778]
    trace = h_geodesic(PLANE, x0, v0, (0.0, 2.0), samples=2001)
    eps, lam = PLANE.sig.eps.tolist(), PLANE.lam

    def rhs(t, y):
        x, v = y[:2], y[2:]
        psi = lam + sum(e * a * a for e, a in zip(eps, x))
        xv = sum(e * a * b for e, a, b in zip(eps, x, v))
        qv = sum(e * b * b for e, b in zip(eps, v))
        return v + [(8.0 * xv * b - 4.0 * qv * a) / psi for a, b in zip(x, v)]

    y, dev = x0 + v0, 0.0
    for i, (ta, tb) in enumerate(zip(trace.times, trace.times[1:])):
        y, _, _, status = reference._drive(rhs, ta, tb, y, 1e-13, 1e-13, 100_000)
        assert status == reference.STATUS_OK
        dev = max(dev, np.abs(np.r_[trace.points[i + 1], trace.velocities[i + 1]]
                              - y).max())
    assert dev < 1e-9


def test_trace_csv_header():
    trace = h_geodesic(DISK, [0.0, 0.0], [0.2, 0.0], (0.0, 0.5), samples=3)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# volumes and curvature forms


def test_volume_coefficients():
    x = np.array([0.3, -0.2])
    psi = DISK.psi(x)
    assert volume_form_coeff(DISK, 2.0, x) == pytest.approx(2.0 / psi**3)
    assert vol_g(DISK, x) == 1.0
    assert vol_h(DISK, 1.0, x) == pytest.approx(1.0 / psi**4)
    assert vol_h(DISK, 2.0, x) == pytest.approx(4.0 / psi**4)


def test_curvature_forms_disk():
    x = np.array([0.3, -0.2])
    psi = DISK.psi(x)
    forms = curvature_forms(DISK, x)
    assert forms.kappa_nabla == pytest.approx(2.0 / psi)
    assert forms.kappa_h == pytest.approx(-8.0 / psi**2)
    assert forms.gaussian_rel == pytest.approx(2.0 / psi)


def test_kappa_h_is_half_scalar_times_volume():
    """kappa_h = S(h)/2 * vol_h for every 2-D model (Gauss-Bonnet density)."""
    for tag in ("S(2,0;-1;-)", "S(2,0;1;+)", "S(1,1;1;+)", "S(0,2;1;+)"):
        model = parse_model(tag)
        x = interior_point(model)
        forms = curvature_forms(model, x)
        want = scalar_curvature_h(model, x) / 2.0 * vol_h(model, 1.0, x)
        assert forms.kappa_h == pytest.approx(want, rel=1e-12), tag


def test_curvature_forms_require_d2():
    with pytest.raises(ValueError):
        curvature_forms(parse_model("S(3,0;-1;-)"), [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# flattening of lambda = 0 models


LAMBDA0_TAGS = ["S(2,0;0;+)", "S(1,1;0;+)", "S(1,1;0;+;L)", "S(1,1;0;-)",
                "S(1,1;0;-;L)", "S(0,2;0;-)"]


def _sample_lambda0(model):
    base = interior_point(model)
    for _ in range(50):
        x = base * math.exp(RNG.normal() * 0.3) + 0.2 * RNG.normal(size=2)
        if contains(model, x):
            yield x


def test_flattening_is_isometry_onto_flat():
    """Dphi^T g Dphi = h = g/psi^4 at random points of every lambda = 0
    plane model, both branches included."""
    step = 1e-6
    for tag in LAMBDA0_TAGS:
        model = parse_model(tag)
        eps = np.diag(model.sig.eps)
        n = 0
        for x in _sample_lambda0(model):
            J = np.empty((2, 2))
            for i in range(2):
                e = np.zeros(2)
                e[i] = step
                J[:, i] = (flatten_lambda0(model, x + e)
                           - flatten_lambda0(model, x - e)) / (2.0 * step)
            got = J.T @ eps @ J
            want = eps / model.psi(x) ** 4
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() < 1e-5 * scale, (tag, x)
            n += 1
        assert n >= 10, tag


def test_flattening_preserves_component():
    """Each wedge / punctured component maps into itself."""
    for tag in LAMBDA0_TAGS:
        model = parse_model(tag)
        for x in _sample_lambda0(model):
            y = flatten_lambda0(model, x)
            assert contains(model, y), (tag, x, y)


def test_flattening_radial_profile():
    """On the positive axis the map is x -> 1/(3x^3) with angle tripled and
    reflected; r = 1 is a fixed point of the radial profile up to 1/3."""
    model = parse_model("S(2,0;0;+)")
    y = flatten_lambda0(model, [2.0, 0.0])
    assert y == pytest.approx([1.0 / 24.0, 0.0], abs=1e-15)
    y = flatten_lambda0(model, [1.0, 0.0])
    assert y == pytest.approx([1.0 / 3.0, 0.0], abs=1e-15)
    # angle tripling with orientation reversal
    th = 0.4
    y = flatten_lambda0(model, [math.cos(th), math.sin(th)])
    assert math.atan2(y[1], y[0]) == pytest.approx(-3.0 * th, abs=1e-12)


def test_flattening_straightens_h_geodesics():
    """Images of h-geodesics under the flattening are straight lines."""
    model = parse_model("S(2,0;0;+)")
    trace = h_geodesic(model, [1.0, 0.2], [0.3, 0.5], (0.0, 1.2), samples=25)
    img = np.array([flatten_lambda0(model, p) for p in trace.points])
    e = img[-1] - img[0]
    rel = img - img[0]
    cross = rel[:, 0] * e[1] - rel[:, 1] * e[0]
    assert np.abs(cross).max() < 1e-6 * max(1.0, np.abs(rel).max())


def test_flattening_guards():
    with pytest.raises(ValueError):
        flatten_lambda0(DISK, [0.3, 0.0])
    with pytest.raises(DomainError):
        flatten_lambda0(parse_model("S(1,1;0;+)"), [-1.0, 0.0])


# ---------------------------------------------------------------------------
# the disk comparison table


def test_comparison_table_values():
    x = np.array([0.3, -0.2])
    w = 1.0 - 0.09 - 0.04
    rows = {row.name: row for row in comparison_table(x)}
    assert set(rows) == {"flat", "cayley-klein", "poincare", "disk-model"}

    flat = rows["flat"]
    assert flat.metric == pytest.approx(np.eye(2))
    assert flat.volume_coeff == 1.0 and flat.curvature_coeff == 0.0

    klein = rows["cayley-klein"]
    want = (1.0 / w) * np.eye(2) + (1.0 / w**2) * np.array(
        [[0.09, -0.06], [-0.06, 0.04]])
    assert klein.metric == pytest.approx(want)
    assert klein.volume_coeff == pytest.approx(w**-1.5)
    assert klein.curvature_coeff == pytest.approx(-(w**-1.5))

    poincare = rows["poincare"]
    assert poincare.metric == pytest.approx((4.0 / w**2) * np.eye(2))
    assert poincare.volume_coeff == pytest.approx(4.0 / w**2)
    assert poincare.curvature_coeff == pytest.approx(-4.0 / w**2)

    disk = rows["disk-model"]
    assert disk.metric is None
    assert disk.volume_coeff == pytest.approx(1.0 / w**3)
    assert disk.curvature_coeff == pytest.approx(-2.0 / w)


def test_comparison_table_consistency_with_model():
    """The disk-model row agrees with the volume and curvature forms of
    S(2,0;-1;-): psi = -(1 - x^2 - y^2), vol = beta/psi^3 with beta = -1,
    kappa = 2/psi."""
    x = np.array([0.3, -0.2])
    w = 1.0 - float(x @ x)
    assert volume_form_coeff(DISK, -1.0, x) == pytest.approx(1.0 / w**3)
    assert curvature_forms(DISK, x).kappa_nabla == pytest.approx(-2.0 / w)


def test_comparison_table_guard():
    with pytest.raises(DomainError):
        comparison_table([1.0, 0.0])
    with pytest.raises(DomainError):
        comparison_table([0.2, 0.2, 0.2])
