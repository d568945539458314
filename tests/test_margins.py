"""Exact path margins against dense sampling (property-based).

segment_margin and arc_margin give the exact minimum of nu*psi along a
segment or an equipotential-plane arc.  Dense sampling can only see a
minimum at or above the exact one (and, between samples, not far above it),
and every path it refuses must be refused by the built-in guards as well.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stiffgeo.errors import DomainError
from stiffgeo.models import (arc_margin, contains, parse_model,
                             segment_margin)
from stiffgeo.transport import REFUSE_PSI, transport_arc, transport_ray

DENSE = 4097

PLANE_MODELS = [
    "S(2,0;-1;+)", "S(2,0;0;+)", "S(2,0;1;+)", "S(2,0;-1;-)",
    "S(1,1;-1;+)", "S(1,1;0;+)", "S(1,1;1;+)",
    "S(1,1;-1;-)", "S(1,1;0;-)", "S(1,1;1;-)",
    "S(0,2;1;-)", "S(0,2;0;-)", "S(0,2;-1;-)", "S(0,2;1;+)",
]
MODELS = [parse_model(t) for t in PLANE_MODELS + ["S(2,1;-1;-)"]]

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

coord = st.floats(-2.5, 2.5)
models = st.sampled_from(MODELS)


def _dense(M, pts):
    """(min nu*psi, every sample in the domain, magnitude of psi's terms)."""
    pts = np.asarray(pts)
    sq = pts * pts
    nu_psi = M.nu * ((sq * M.sig.eps).sum(axis=1) + M.lam)
    inside = bool((nu_psi > 0).all())
    k = M.branch_coordinate
    if k is not None:
        side = 1.0 if M.branch == "right" else -1.0
        inside = inside and bool((side * pts[:, k] > 0).all())
    scale = abs(M.lam) + float(sq.sum(axis=1).max()) + 1.0
    return float(nu_psi.min()), inside, scale


def _check(margin, pts, M):
    dense_min, inside, scale = _dense(M, pts)
    # 1e-12: rounding; 1e-5: how far psi can dip between 4097 samples
    assert margin <= dense_min + 1e-12 * scale
    if contains(M, pts[0]):
        assert margin >= dense_min - 1e-5 * scale
    else:
        assert margin == -math.inf
    if not inside or dense_min < REFUSE_PSI:
        assert margin < REFUSE_PSI
    return not inside or dense_min < REFUSE_PSI


def _q_isometry(M, angles):
    """Product of small rotations/boosts in each coordinate plane."""
    d, eps = M.sig.d, M.sig.eps
    L = np.eye(d)
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            a = angles[k % len(angles)]
            k += 1
            G = np.eye(d)
            if eps[i] == eps[j]:
                c, s = math.cos(a), math.sin(a)
                G[i, i], G[i, j], G[j, i], G[j, j] = c, -s, s, c
            else:
                c, s = math.cosh(a), math.sinh(a)
                G[i, i], G[i, j], G[j, i], G[j, j] = c, s, s, c
            L = G @ L
    return L


@PROPERTY
@given(models, st.lists(coord, min_size=6, max_size=6))
def test_segment_margin_bounds_dense_minimum(M, xs):
    d = M.sig.d
    a, b = np.array(xs[:d]), np.array(xs[3:3 + d])
    assume(contains(M, a))
    s = np.linspace(0.0, 1.0, DENSE)[:, None]
    _check(segment_margin(M, a, b), a * (1 - s) + b * s, M)


@PROPERTY
@given(models, st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       coord, coord)
def test_ray_guard_refuses_what_sampling_refuses(M, es, t0, t1):
    e = np.array(es[:M.sig.d])
    assume(abs(M.sig.q(e)) > 1e-6)
    t = np.linspace(t0, t1, DENSE)[:, None]
    margin = segment_margin(M, t0 * e, t1 * e)
    if _check(margin, t * e, M):
        with pytest.raises(DomainError):
            transport_ray(M, e, t0, t1)


@PROPERTY
@given(models, st.data(), st.floats(0.05, 2.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.booleans(),
       st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
def test_arc_guard_refuses_what_sampling_refuses(M, data, r, th0, th1,
                                                 rotate, angles):
    d = M.sig.d
    i, j = data.draw(st.sampled_from([(i, j) for i in range(1, d + 1)
                                      for j in range(i + 1, d + 1)]))
    hyp = M.sig.eps[i - 1] != M.sig.eps[j - 1]
    if hyp:
        th0, th1 = th0 / 1.5, th1 / 1.5
    u, w = np.eye(d)[i - 1], np.eye(d)[j - 1]
    if rotate:
        L = _q_isometry(M, angles)
        u, w = L @ u, L @ w
    C, S = (np.cosh, np.sinh) if hyp else (np.cos, np.sin)
    th = np.linspace(th0, th1, DENSE)[:, None]
    margin = arc_margin(M, r * u, r * w, th0, th1)
    plane = (u, w) if rotate else (i, j)
    if _check(margin, r * (C(th) * u + S(th) * w), M):
        with pytest.raises(DomainError):
            transport_arc(M, plane, r, th0, th1)


@PROPERTY
@given(models, st.lists(coord, min_size=6, max_size=6),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_arc_margin_exact_for_any_pair(M, xs, th0, th1):
    """The alpha + beta C(2t) + gamma S(2t) form needs no orthonormality,
    so arbitrary (c0, c1) exercise the interior extrema."""
    d = M.sig.d
    c0, c1 = np.array(xs[:d]), np.array(xs[3:3 + d])
    hyp = M.sig.q(c0) * M.sig.q(c1) < 0
    C, S = (np.cosh, np.sinh) if hyp else (np.cos, np.sin)
    th = np.linspace(th0, th1, DENSE)[:, None]
    _check(arc_margin(M, c0, c1, th0, th1), C(th) * c0 + S(th) * c1, M)
