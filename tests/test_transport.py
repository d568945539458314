"""Parallel transport: closed forms, ODE cross-checks, holonomy."""

import math

import numpy as np
import pytest

from stiffgeo import kernels
from stiffgeo import transport as transport_module
from stiffgeo.errors import DomainError
from stiffgeo.models import (arc_margin, contains, interior_point, parse_model,
                             segment_margin)
from stiffgeo.projconn import curvature, form_from_potential
from stiffgeo.transport import (
    Arc,
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



def test_polyline_is_refused_before_any_leg_is_integrated(monkeypatch):
    """Every segment is guarded before the first is integrated, so a
    polyline whose last leg leaves the domain costs no kernel call."""
    calls = []
    integrate = kernels.transport_segment

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(kernels, "transport_segment", counted)
    with pytest.raises(DomainError, match="segment leaves the domain"):
        transport_ode(DISK, Polyline([[0.1, 0.0], [0.5, 0.0], [0.6, 0.2], [2.0, 0.0]]))
    assert calls == []
    transport_ode(DISK, Polyline([[0.1, 0.0], [0.5, 0.0], [0.6, 0.2]]))
    assert len(calls) == 2


# the 14 plane models and two in d = 3
TRANSPORT_MODELS = [
    "S(2,0;-1;+)", "S(2,0;0;+)", "S(2,0;1;+)", "S(2,0;-1;-)",
    "S(1,1;-1;+)", "S(1,1;0;+)", "S(1,1;1;+)",
    "S(1,1;-1;-)", "S(1,1;0;-)", "S(1,1;1;-)",
    "S(0,2;1;-)", "S(0,2;0;-)", "S(0,2;-1;-)", "S(0,2;1;+)",
    "S(3,0;1;+)", "S(2,1;1;+)",
]


def _accuracy_cases(rng, per_class=4):
    """Seeded (class, closed-form map, ODE call) triples: per model, up to
    per_class rays, arcs and full turns, at least 0.05 inside the domain.
    Arcs keep |omega^2| <= 25 and full turns <= 2, so that no entry of the
    answer is huge."""
    for tag in TRANSPORT_MODELS:
        model = parse_model(tag)
        sig, d = model.sig, model.sig.d
        planes = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        definite = [pl for pl in planes if sig.eps[pl[0] - 1] * sig.eps[pl[1] - 1] > 0]
        got = {"ray": 0, "arc": 0, "turn": 0 if definite else per_class}
        for _ in range(4000):
            kind = min(got, key=got.get)
            if got[kind] >= per_class:
                break
            if kind == "ray":
                e = rng.normal(size=d)
                e /= np.linalg.norm(e)
                t0 = rng.uniform(0.05, 2.0)
                t1 = t0 + rng.uniform(0.2, 1.0)
                if rng.random() < 0.5:
                    t0, t1 = t1, t0
                if abs(sig.q(e)) < 0.1 or not segment_margin(model, t0 * e, t1 * e) >= 0.05:
                    continue
                path = RaySegment(e, t0, t1)
                yield kind, transport_ray(model, e, t0, t1), (
                    lambda m=model, p=path: transport_ode(m, p))
                got[kind] += 1
                continue
            choices = definite if kind == "turn" else planes
            plane = choices[rng.integers(len(choices))]
            r = rng.uniform(0.1, 2.0)
            th0, th1 = 0.0, 2.0 * math.pi
            if kind == "arc":
                th0 = rng.uniform(-1.0, 1.0)
                th1 = th0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.2)
            u, w = np.eye(d)[plane[0] - 1], np.eye(d)[plane[1] - 1]
            qu, qw = sig.q(u), sig.q(w)
            omega2 = qu * qw * (r * r * qu - model.lam) / (r * r * qu + model.lam)
            if (not arc_margin(model, r * u, r * w, th0, th1) >= 0.05
                    or abs(omega2) > (2.0 if kind == "turn" else 25.0)):
                continue
            if kind == "turn":
                call = lambda m=model, r=r, pl=plane: holonomy_loop(
                    m, circle_loop(m, r, plane=pl))
            else:
                call = lambda m=model, p=path_arc(model, plane, r, th0, th1): (
                    transport_ode(m, p))
            yield kind, transport_arc(model, plane, r, th0, th1), call
            got[kind] += 1


def test_ode_accuracy_at_default_tol_is_pinned():
    """At the default tol, ODE rays, arcs and full turns over the 16
    transport models stay as close to their closed forms as the Dormand-Prince
    5(4) kernels came (relative to max(1, max |entry|)).  The bounds are its
    worst values on this seeded set, so a faster integrator cannot buy speed
    with accuracy."""
    bound = {"ray": 1.64e-10, "arc": 4.3e-11, "turn": 8.1e-11}
    worst = dict.fromkeys(bound, 0.0)
    for kind, closed, call in _accuracy_cases(np.random.default_rng(11)):
        scale = max(1.0, float(np.abs(closed.matrix).max()))
        dev = float(np.abs(call().matrix - closed.matrix).max()) / scale
        worst[kind] = max(worst[kind], dev)
    assert all(worst[kind] <= bound[kind] for kind in bound), worst


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


def test_far_hyperbolic_arcs_get_one_verdict_both_ways():
    """Far along a hyperbola q of the point keeps no digit (cosh and sinh of
    theta >= 20 are equal doubles), so the arc guard takes psi at the ends
    from its closed form.  Each arc gets one verdict in both directions."""
    # psi = 2 along the arc, which cosh(800) takes past the float range
    model = parse_model("S(1,1;1;+)")
    for th0, th1 in ((0.0, 400.0), (400.0, 0.0)):
        with pytest.raises(DomainError):
            transport_arc(model, (1, 2), 1.0, th0, th1)
    # psi = r^2 - 1 = 3 on the arc of radius 2, where q of the point at
    # theta = 20 reads 0 and psi -1: inside S(1,1;-1;+) ...
    model = parse_model("S(1,1;-1;+)")
    for th0, th1 in ((0.0, 20.0), (20.0, 0.0)):
        assert arc_margin(model, [2.0, 0.0], [0.0, 2.0], th0, th1) == 3.0
        assert np.isfinite(transport_arc(model, (1, 2), 2.0, th0, th1).matrix).all()
    # ... and outside S(1,1;-1;-), which needs psi < 0
    model = parse_model("S(1,1;-1;-)")
    for th0, th1 in ((20.0, 25.0), (25.0, 20.0)):
        assert arc_margin(model, [2.0, 0.0], [0.0, 2.0], th0, th1) == -math.inf
        with pytest.raises(DomainError):
            transport_arc(model, (1, 2), 2.0, th0, th1)


def test_arc_margin_keeps_a_nan_at_the_far_end():
    """Python's min(a, nan) is a; the margin must be NaN, which the guard
    refuses.  Here psi(theta1) is inf - inf, psi(theta0) about 1e300."""
    model = parse_model("S(1,1;1;+)")
    margin = arc_margin(model, [1e150, 0.0], [-1e150, 1.0000001e150], 0.0, 11.0)
    assert math.isnan(margin)


# ---------------------------------------------------------------------------
# frame-free closed forms and the frames they build on demand


def _isometry(sig, rng):
    """A random element of O(p, m): three plane rotations and boosts."""
    d = sig.d
    A = np.eye(d)
    for _ in range(3):
        i, j = sorted(rng.choice(d, size=2, replace=False))
        c = rng.uniform(-1.0, 1.0)
        R = np.eye(d)
        if sig.eps[i] == sig.eps[j]:
            R[i, i] = R[j, j] = math.cos(c)
            R[i, j], R[j, i] = -math.sin(c), math.sin(c)
        else:
            R[i, i] = R[j, j] = math.cosh(c)
            R[i, j] = R[j, i] = math.sinh(c)
        A = R @ A
    return A


CLOSED_FORMS = {"ray": transport_ray, "arc": transport_arc}


def _closed_form_cases(rng, span=3.0, per_model=6):
    """Seeded (model, kind, args) over the 16 transport models, for
    CLOSED_FORMS[kind](model, *args): rays, and arcs with
    |theta1 - theta0| <= span, from u = A e_i toward w = A e_j (i, j in any
    order), where A is the identity or, for every other arc, a random
    isometry."""
    for tag in TRANSPORT_MODELS:
        model = parse_model(tag)
        sig, d = model.sig, model.sig.d
        rays = arcs = 0
        for _ in range(4000):
            if rays >= per_model and arcs >= per_model:
                break
            if rays < per_model:
                e = rng.normal(size=d)
                t0, t1 = rng.uniform(0.05, 2.0, size=2)
                if (abs(sig.q(e)) >= 0.1 * float(e @ e)
                        and segment_margin(model, t0 * e, t1 * e) >= 0.05):
                    yield model, "ray", (e, t0, t1)
                    rays += 1
            if arcs < per_model:
                i, j = rng.choice(d, size=2, replace=False)
                A = _isometry(sig, rng) if arcs % 2 else np.eye(d)
                u, w = A[:, i], A[:, j]
                r = rng.uniform(0.1, 2.0)
                th0 = rng.uniform(-1.0, 1.0)
                th1 = th0 + rng.uniform(-span, span)
                if arc_margin(model, r * u, r * w, th0, th1) >= 0.05:
                    yield model, "arc", ((u, w), r, th0, th1)
                    arcs += 1
        assert rays == arcs == per_model, tag


def test_closed_form_matrix_is_the_frame_conjugate():
    """matrix = frame_to @ moving_matrix @ inv(frame), and the frame is
    q-orthonormal (F^T G F = diag(+-1)), on rays and arcs in every model."""
    for model, kind, args in _closed_form_cases(np.random.default_rng(18)):
        tm = CLOSED_FORMS[kind](model, *args)
        M, F, F1 = tm.matrix, tm.frame, tm.frame_to
        want = F1 @ tm.moving_matrix @ np.linalg.inv(F)
        scale = max(1.0, float(np.abs(M).max()))
        assert float(np.abs(M - want).max()) <= 1e-12 * scale, (model, kind, args)
        gram = F.T @ np.diag(model.sig.eps) @ F
        signs = np.diag(np.round(np.diag(gram)))
        assert np.all(np.abs(np.diag(signs)) == 1.0)
        frame_scale = max(1.0, float(np.abs(F).max())) ** 2
        assert float(np.abs(gram - signs).max()) <= 1e-12 * frame_scale


def test_arc_path_reversal_inverts_the_map():
    """Transport back along the same arc undoes transport along it:
    M(theta1 -> theta0) M(theta0 -> theta1) = I, up to rounding in entries
    as large as the product of the two matrices' largest."""
    def check(model, plane, r, th0, th1):
        fwd = transport_arc(model, plane, r, th0, th1).matrix
        rev = transport_arc(model, plane, r, th1, th0).matrix
        bound = 1e-12 * float(np.abs(fwd).max()) * float(np.abs(rev).max())
        dev = float(np.abs(rev @ fwd - np.eye(model.sig.d)).max())
        assert dev <= bound, (model, plane, r, th0, th1, dev)

    check(parse_model("S(1,1;1;+)"), (1, 2), 1.0, 0.0, 5.0)
    for model, kind, args in _closed_form_cases(np.random.default_rng(5),
                                                span=5.0, per_model=4):
        if kind == "arc":
            check(model, *args)


def test_closed_forms_build_no_frame_for_the_matrix(monkeypatch):
    """Only reading frame or frame_to builds a frame."""
    def refuse(*args, **kwargs):
        raise AssertionError("frame built for a matrix-only request")

    monkeypatch.setattr(transport_module, "complete_orthonormal", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    for tag in ("S(2,0;-1;-)", "S(1,1;1;+)", "S(2,1;1;+)"):
        model = parse_model(tag)
        e = np.zeros(model.sig.d)
        e[0] = 1.0
        assert transport_ray(model, e, 0.2, 0.6).matrix.shape == (model.sig.d,) * 2
        arc = transport_arc(model, (1, 2), 0.5 if tag == "S(2,0;-1;-)" else 1.5,
                            0.0, 1.0)
        assert np.isfinite(arc.matrix).all()
    with pytest.raises(AssertionError, match="frame built"):
        arc.frame


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
