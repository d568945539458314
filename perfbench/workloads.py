"""Seeded request streams for the benchmark workloads.

Each workload is an endless stream of `Op`s drawn from a numpy Generator
seeded by --seed.  Requests come in blocks with a fixed count per request
class, spread evenly through the block, so any prefix of the stream has the
block's class mix to within one request per class; the seed varies the
models, paths and parameters inside each class.  Every request carries its
own check against `oracles`, and requests that must be refused say so.

Random requests keep clear of the domain boundary: accepted paths stay at
least 0.05 inside (nu psi >= 0.05) and refused ones leave it by at least as
much, and chords on which psi is nearly a perfect square are left out.  The
boundary band and those chords are probed by `known_defects` instead, on
every trace-mix run and every traced run.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as O
from stiffgeo import geodesics, metrics, models, transport
from stiffgeo.errors import DomainError

PLANE_MODELS = [
    "S(2,0;-1;+)", "S(2,0;0;+)", "S(2,0;1;+)", "S(2,0;-1;-)",
    "S(1,1;-1;+)", "S(1,1;0;+)", "S(1,1;1;+)",
    "S(1,1;-1;-)", "S(1,1;0;-)", "S(1,1;1;-)",
    "S(0,2;1;-)", "S(0,2;0;-)", "S(0,2;-1;-)", "S(0,2;1;+)",
]
TRANSPORT_MODELS = PLANE_MODELS + ["S(3,0;1;+)", "S(2,1;1;+)"]

# request classes per block; the order of the percentiles follows from these
# shares (see README.md in this directory).  The median falls near the middle
# of one class (arcs, sampled chords) rather than on the edge between a fast
# and a slow class, where a small shift of host speed would move it twofold.
MIXES = {
    "transport-mix": {
        "ray": 16, "arc": 64, "refuse_ray": 2, "refuse_ode_ray": 1,
        "refuse_polyline": 1, "ode_ray": 5, "ode_arc": 5, "ode_polyline": 3,
        "holonomy": 3,
    },
    "trace-mix": {
        "travel": 29, "travel_readme": 1, "refuse_travel": 10, "triangle": 19,
        "triangle_readme": 1, "sample": 80, "find_s0": 20,
        "trace_small": 31, "trace_201": 8, "trace_2001": 1,
    },
}

TOL = 1e-10          # the library default, used by the acceptance suite
INSIDE = 0.05        # minimum nu psi along accepted paths
# chord answers (travel times, triangle times, sampled chord geodesics): those
# off by more than EXACT are counted as inexact, those off by more than WRONG
# as failed.  Over about 40 000 seeded chords away from near-square psi the
# worst relative error was 2.6e-8 (sampled chords, integrated at tol = 1e-10);
# travel and triangle times stayed below 1e-11.
EXACT = 1e-8
WRONG = 2e-7
README_TIME = 3.1045307974231857   # travel time (0,0) -> (0.9,0) in the disk
S0_OLD = 0.687       # crossover side quoted with the triangle experiment

# (verb, argv) of the README command-line examples
README_ARGV = [
    ("classify", ["classify", "--potential",
                  '{"signature":{"p":2,"m":0},"K":4,"lin":[-4,0],"const":0}',
                  "--at", "1,0"]),
    ("curvature", ["curvature", "--model", "S(2,0;-1;-)", "--at", "0.5,0"]),
    ("transport", ["transport", "--model", "S(2,0;-1;-)", "--ray", "1,0",
                   "--t0", "0.1", "--t1", "0.5", "--ode"]),
    ("holonomy", ["holonomy", "--model", "S(2,0;0;+)", "--circle-radius", "1"]),
    ("geodesic", ["geodesic", "--model", "S(2,0;1;+)", "--from", "0,0",
                  "--dir", "1,0", "--sample", "0,0.7,200", "--out", "trace.csv"]),
    ("travel-time", ["travel-time", "--model", "S(2,0;-1;-)", "--from", "0,0",
                     "--to", "0.9,0"]),
    ("triangle", ["triangle", "--s", "0.9", "--find-s0"]),
    ("h-geodesic", ["h-geodesic", "--model", "S(2,0;1;+)", "--from", "0.5774,0",
                    "--vel", "0,1.7778", "--t1", "2", "--out", "circle.csv"]),
    ("table", ["table", "--at", "0.3,-0.2"]),
    ("weakstiff", ["weakstiff", "--f", '{"num":[[0,0],[0,0],[1,0]],"den":[[1,0]]}',
                   "--probes", "100"]),
    ("facts", ["facts", "--model", "S(1,1;0;+)"]),
]
# two more calls so that the traced run reaches transport_ray and
# holonomy_loop on every workload; they are not part of cli-cold
COVERAGE_ARGV = [
    ["transport", "--model", "S(2,0;-1;-)", "--ray", "1,0", "--t0", "0.1",
     "--t1", "0.5"],
    ["holonomy", "--model", "S(2,0;-1;-)", "--circle-radius", "0.5", "--ode"],
]

GRAZING = ("S(2,0;-1;+)", (-2.0, 0.99999), (2.01, 0.99999))


class Op:
    """One request: a timed library call and the check of its outcome."""

    __slots__ = ("kind", "call", "check", "refuse")

    def __init__(self, kind, call, check=None, refuse=False):
        self.kind = kind
        self.call = call
        self.check = check
        self.refuse = refuse

    def verify(self, result, exc) -> str | None:
        """None when the outcome is right, else a one-line reason."""
        if self.refuse:
            if isinstance(exc, DomainError):
                return None
            got = f"{type(exc).__name__}: {exc}" if exc else "an answer"
            return f"{self.kind}: expected a DomainError refusal, got {got}"
        if exc is not None:
            return f"{self.kind}: {type(exc).__name__}: {exc}"
        problem = self.check(result)
        return f"{self.kind}: {problem}" if problem else None


def _limit(name: str, got: float, bound: float) -> str | None:
    return None if got <= bound else f"{name} {got:.3e} > {bound:.0e}"


# ---------------------------------------------------------------------------
# path samplers (exact domain tests from oracles.Domain)


def _direction(rng, dom, min_q=0.1):
    while True:
        e = rng.normal(size=dom.d)
        e /= np.linalg.norm(e)
        if abs(dom.q(e)) >= min_q:
            return e


def _ray(rng, dom):
    for _ in range(4000):
        e = _direction(rng, dom)
        t0 = rng.uniform(0.05, 2.2)
        t1 = t0 + rng.uniform(0.15, 1.0)
        if rng.random() < 0.3:
            t0, t1 = t1, t0
        lo = dom.chord_min(t0 * e, t1 * e)
        hi = max(abs(dom.psi(t0 * e)), abs(dom.psi(t1 * e)))
        if lo >= INSIDE and hi <= 50.0 * lo:
            return e, t0, t1
    raise RuntimeError(f"no admissible ray in {dom.tag}")


def _planes(dom, definite=False):
    """(u, w, plane argument) for every coordinate plane and hyperbola family."""
    eye = np.eye(dom.d)
    out = []
    for i in range(dom.d):
        for j in range(i + 1, dom.d):
            mixed = dom.eps[i] != dom.eps[j]
            if definite and mixed:
                continue
            out.append((eye[i], eye[j], (i + 1, j + 1)))
            if mixed:
                out.append((eye[j], eye[i], (eye[j], eye[i])))
    return out


def _arc(rng, dom, full_turn=False):
    planes = _planes(dom, definite=full_turn)
    for _ in range(4000):
        u, w, plane = planes[rng.integers(len(planes))]
        r = rng.uniform(0.05, 2.4)
        if full_turn:
            th0, th1 = 0.0, 2.0 * math.pi
        else:
            th0 = rng.uniform(-math.pi, math.pi)
            th1 = th0 + rng.uniform(0.2, 1.2) * (1.0 if rng.random() < 0.5 else -1.0)
        psi = r * r * dom.q(u) + dom.lam
        if dom.nu * psi < INSIDE:
            continue
        s = dom.q(u) * dom.q(w) * (r * r * dom.q(u) - dom.lam) / psi
        if abs(s) > (2.0 if full_turn else 25.0):
            continue
        # the branch coordinate is monotone or cosh-like along these arcs
        ends = [O.arc_point(dom, u, w, r, th) for th in (th0, th1)]
        if min(dom.margin(p) for p in ends) < INSIDE:
            continue
        return u, w, plane, r, th0, th1
    raise RuntimeError(f"no admissible arc in {dom.tag}")


def _outside_point(rng, dom):
    for _ in range(4000):
        c = rng.uniform(-3.0, 3.0, size=dom.d)
        if dom.nu * dom.psi(c) <= -0.1:
            return c
    raise RuntimeError(f"no point outside {dom.tag}")


def _crossing_ray(rng, dom):
    """A ray segment that starts inside and crosses psi = 0."""
    for _ in range(4000):
        e = _direction(rng, dom)
        ratio = -dom.lam / dom.q(e)
        if ratio <= 0.0:
            continue
        root = math.sqrt(ratio)
        near, far = root * rng.uniform(0.3, 0.8), root * rng.uniform(1.2, 1.8)
        t0, t1 = (near, far) if dom.margin(near * e) > 0 else (far, near)
        if dom.margin(t0 * e) >= INSIDE:
            return e, t0, t1
    raise RuntimeError(f"no crossing ray in {dom.tag}")


def _has_outside(dom):
    # nu psi < 0 somewhere: psi must reach the sign -nu
    if dom.nu > 0:
        return dom.lam < 0 or (dom.eps < 0).any()
    return dom.lam > 0 or (dom.eps > 0).any()


def _has_crossing_ray(dom):
    return dom.lam != 0 and ((dom.eps > 0).any() if dom.lam < 0 else (dom.eps < 0).any())


def _has_circle_loop(dom):
    return bool(_planes(dom, definite=True))


def _has_origin(dom):
    return dom.margin(np.zeros(dom.d)) >= INSIDE


def _near_square(dom, a, b) -> bool:
    """psi along the chord is within 1% of a perfect square (B^2 = 4AC).

    The library's chord normal form loses accuracy there, up to wrong points
    (known defect near_double_root, probed on its own by known_defects).
    """
    A, B, C = dom.chord_quadratic(a, b)
    return abs(B * B - 4.0 * A * C) < 1e-2 * max(B * B, abs(4.0 * A * C))


def _chord(rng, dom, crossing=False, tries=4000):
    """A non-null chord between domain points, inside or clearly crossing."""
    for _ in range(tries):
        a = rng.uniform(-2.5, 2.5, size=dom.d)
        if dom.margin(a) < INSIDE:
            continue
        b = a + _direction(rng, dom, 0.05) * rng.uniform(0.1, 2.5)
        if dom.margin(b) < INSIDE:
            continue
        lo = dom.chord_min(a, b)
        if crossing:
            if lo <= -INSIDE and dom.chord_outside_length(a, b) >= 0.02:
                return a, b
        elif lo >= INSIDE and not _near_square(dom, a, b):
            return a, b
    raise RuntimeError(f"no admissible chord in {dom.tag}")


# ---------------------------------------------------------------------------
# transport-mix


class TransportMix:
    """Parallel transport on the 14 plane models and two d = 3 models."""

    def __init__(self):
        self.dom = {t: O.Domain(t) for t in TRANSPORT_MODELS}
        self.model = {t: models.parse_model(t) for t in TRANSPORT_MODELS}
        every = list(TRANSPORT_MODELS)
        pick = lambda pred: [t for t in every if pred(self.dom[t])]
        self.tags = {
            "ray": every, "arc": every, "ode_ray": every, "ode_arc": every,
            "ode_polyline": every, "holonomy": pick(_has_circle_loop),
            "refuse_ray": pick(_has_crossing_ray),
            "refuse_ode_ray": pick(_has_crossing_ray),
            "refuse_polyline": pick(_has_outside),
        }

    def make(self, kind, rng) -> Op:
        choices = self.tags[kind]
        tag = choices[rng.integers(len(choices))]
        return getattr(self, "_" + kind)(rng, self.dom[tag], self.model[tag])

    @staticmethod
    def _matrix_check(want, bound, dom=None, start=None, end=None):
        def check(tm):
            problem = _limit("matrix deviation", O.rel_dev(tm.matrix, want), bound)
            if problem or dom is None:
                return problem
            target = O.det_law(dom, start, end)
            # rounding in a d x d determinant grows like max|M|^d, which
            # dominates on long hyperbolic arcs (entries up to ~1e4)
            scale = max(1.0, abs(target)) + 1e-6 * float(np.abs(tm.matrix).max()) ** dom.d
            return _limit("det law deviation", abs(tm.det() - target) / scale, 1e-8)
        return check

    def _ray(self, rng, dom, model):
        e, t0, t1 = _ray(rng, dom)
        return Op("ray", lambda: transport.transport_ray(model, e, t0, t1),
                  self._matrix_check(O.ray_matrix(dom, e, t0, t1), 1e-9,
                                     dom, t0 * e, t1 * e))

    def _arc(self, rng, dom, model):
        u, w, plane, r, th0, th1 = _arc(rng, dom)
        return Op("arc", lambda: transport.transport_arc(model, plane, r, th0, th1),
                  self._matrix_check(O.arc_matrix(dom, u, w, r, th0, th1), 1e-9,
                                     dom, O.arc_point(dom, u, w, r, th0),
                                     O.arc_point(dom, u, w, r, th1)))

    def _ode_ray(self, rng, dom, model):
        e, t0, t1 = _ray(rng, dom)
        path = transport.RaySegment(e, t0, t1)
        return Op("ode_ray", lambda: transport.transport_ode(model, path, tol=TOL),
                  self._matrix_check(O.ray_matrix(dom, e, t0, t1), 1e-7))

    def _ode_arc(self, rng, dom, model):
        u, w, plane, r, th0, th1 = _arc(rng, dom)
        path = transport.path_arc(model, plane, r, th0, th1)
        return Op("ode_arc", lambda: transport.transport_ode(model, path, tol=TOL),
                  self._matrix_check(O.arc_matrix(dom, u, w, r, th0, th1), 1e-7))

    def _ode_polyline(self, rng, dom, model):
        if _has_origin(dom) and rng.random() < 0.4:
            # a -> 0 -> b: two radial legs through the origin
            legs = []
            while len(legs) < 2:
                e = _direction(rng, dom)
                t = rng.uniform(0.1, 2.0)
                if dom.chord_min(np.zeros(dom.d), t * e) >= INSIDE:
                    legs.append((e, t))
            (ea, ta), (eb, tb) = legs
            pts = [ta * ea, np.zeros(dom.d), tb * eb]
            want = O.ray_matrix(dom, eb, 0.0, tb) @ O.ray_matrix(dom, ea, ta, 0.0)
        else:
            # three points on one admissible ray segment, possibly doubling back
            e, t0, t1 = _ray(rng, dom)
            tx = rng.uniform(min(t0, t1), max(t0, t1))
            ts = (t0, t1, tx) if rng.random() < 0.5 else (t0, tx, t1)
            pts = [t * e for t in ts]
            want = O.ray_matrix(dom, e, ts[0], ts[-1])
        path = transport.Polyline(pts)
        return Op("ode_polyline",
                  lambda: transport.transport_ode(model, path, tol=TOL),
                  self._matrix_check(want, 1e-7))

    def _holonomy(self, rng, dom, model):
        u, w, plane, r, _, _ = _arc(rng, dom, full_turn=True)

        def call():
            return transport.holonomy_loop(
                model, transport.circle_loop(model, r, plane=plane), tol=TOL)

        return Op("holonomy", call,
                  self._matrix_check(O.arc_matrix(dom, u, w, r, 0.0, 2.0 * math.pi),
                                     1e-7))

    def _refuse_ray(self, rng, dom, model):
        e, t0, t1 = _crossing_ray(rng, dom)
        assert O.must_refuse(dom, [t0 * e, t1 * e])
        return Op("refuse_ray", lambda: transport.transport_ray(model, e, t0, t1),
                  refuse=True)

    def _refuse_ode_ray(self, rng, dom, model):
        e, t0, t1 = _crossing_ray(rng, dom)
        assert O.must_refuse(dom, [t0 * e, t1 * e])
        path = transport.RaySegment(e, t0, t1)
        return Op("refuse_ode_ray",
                  lambda: transport.transport_ode(model, path, tol=TOL), refuse=True)

    def _refuse_polyline(self, rng, dom, model):
        e, t0, t1 = _ray(rng, dom)
        pts = [t0 * e, t1 * e, _outside_point(rng, dom)]
        assert O.must_refuse(dom, pts)
        path = transport.Polyline(pts)
        return Op("refuse_polyline",
                  lambda: transport.transport_ode(model, path, tol=TOL), refuse=True)

    def warm_ops(self, rng):
        return [self.make(kind, rng) for kind in MIXES["transport-mix"]]


# ---------------------------------------------------------------------------
# trace-mix


CIRCLE_MODELS = ["S(2,0;1;+)", "S(0,2;-1;-)"]
RADIAL_MODELS = ["S(2,0;1;+)", "S(2,0;-1;-)", "S(1,1;1;+)", "S(1,1;-1;-)",
                 "S(0,2;1;+)", "S(0,2;-1;-)"]
COMPLETE_MODELS = ["S(2,0;-1;-)", "S(0,2;1;+)"]


class TraceMix:
    """h-geodesic traces and chord requests: travel times, the triangle
    experiment, its crossover, and sampled chord geodesics."""

    def __init__(self):
        tags = set(PLANE_MODELS)
        self.dom = {t: O.Domain(t) for t in tags}
        self.model = {t: models.parse_model(t) for t in tags}
        # crossing chords exist only where the domain is not convex
        probe = np.random.default_rng(0)
        self.crossing_tags = []
        for tag in PLANE_MODELS:
            try:
                _chord(probe, self.dom[tag], crossing=True, tries=300)
            except RuntimeError:
                continue
            self.crossing_tags.append(tag)
        self.s0 = O.triangle_crossover()
        self.inexact = 0       # chord answers off by more than EXACT
        self.worst = 0.0       # largest relative error of a chord answer

    def _accuracy(self, what: str, err: float):
        self.worst = max(self.worst, float(err))
        self.inexact += int(err > EXACT)
        return _limit(what, err, WRONG)

    def make(self, kind, rng) -> Op:
        if kind.startswith("trace_"):
            return self._trace(rng, int(kind[6:]) if kind != "trace_small"
                               else int(rng.integers(2, 22)), kind)
        return getattr(self, "_" + kind)(rng)

    def _pick(self, rng, tags):
        tag = tags[rng.integers(len(tags))]
        return self.dom[tag], self.model[tag]

    def _travel(self, rng):
        dom, model = self._pick(rng, PLANE_MODELS)
        a, b = _chord(rng, dom)
        want = O.h_length(dom, a, b)
        return Op("travel", lambda: geodesics.travel_time(model, a, b),
                  lambda tt: self._accuracy("relative time error",
                                            abs(tt.time - want) / want))

    def _travel_readme(self, rng):
        model = self.model["S(2,0;-1;-)"]
        return Op("travel", lambda: geodesics.travel_time(model, (0.0, 0.0), (0.9, 0.0)),
                  lambda tt: _limit("README time error",
                                    abs(tt.time - README_TIME) / README_TIME, 1e-12))

    def _refuse_travel(self, rng):
        dom, model = self._pick(rng, self.crossing_tags)
        # in S(1,1;-1;-) about 1 draw in 400 is a crossing chord, so 4000
        # tries would leave about 1 request in 14 000 without one
        a, b = _chord(rng, dom, crossing=True, tries=50_000)
        return Op("refuse_travel", lambda: geodesics.travel_time(model, a, b),
                  refuse=True)

    def _triangle_at(self, s, readme=False):
        t_ab, t_sum = O.triangle(s)

        def check(res):
            problem = self._accuracy("relative time error", max(
                abs(res.T_ab - t_ab) / t_ab, abs(res.T_sum - t_sum) / t_sum))
            if not problem and res.violates != (t_ab > t_sum):
                problem = f"violates = {res.violates} at s = {s}"
            if not problem and readme and (abs(res.T_ab - 8.18) > 0.01
                                           or abs(res.T_sum - 6.21) > 0.01):
                problem = f"README values T_ab {res.T_ab}, T_sum {res.T_sum}"
            return problem

        return Op("triangle", lambda: geodesics.triangle_experiment(s), check)

    def _triangle(self, rng):
        s = rng.uniform(0.1, 0.95)
        while abs(s - self.s0) < 0.01:
            s = rng.uniform(0.1, 0.95)
        return self._triangle_at(s)

    def _triangle_readme(self, rng):
        return self._triangle_at(0.9, readme=True)

    def _find_s0(self, rng):
        tol = 10.0 ** rng.uniform(-7.0, -5.0)

        def check(s0):
            return (_limit("crossover error", abs(s0 - self.s0), tol)
                    or _limit("distance to 0.687", abs(s0 - S0_OLD), 1e-3))

        return Op("find_s0", lambda: geodesics.find_s0(tol=tol), check)

    def _sample(self, rng):
        dom, model = self._pick(rng, PLANE_MODELS)
        a, b = _chord(rng, dom)
        e = b - a
        sdot0 = rng.uniform(0.5, 2.0)
        # connection geodesics have constant h-speed, so the one leaving a with
        # s' = sdot0 reaches b after the h-length of [a, b] over that speed
        speed = sdot0 * math.sqrt(abs(dom.q(e))) / dom.psi(a) ** 2
        ts = np.linspace(0.0, O.h_length(dom, a, b) / speed, 200)

        def call():
            line = geodesics.GeodesicLine(model, a, e)
            return geodesics.solve_geodesic(line, 0.0, 0.0, sdot0).sample(ts)

        def check(pts):
            if pts.shape != (200, dom.d):
                return f"shape {pts.shape}"
            errs = [O.rel_dev(pts[-1], b)]
            for i in (40, 80, 120, 160):
                want = speed * ts[i]
                errs.append(abs(O.h_length(dom, a, pts[i]) - want) / want)
            return self._accuracy("endpoint or h-length error", max(errs))

        return Op("sample", call, check)

    def _trace(self, rng, samples, kind):
        family = rng.integers(3)
        if family == 0:
            dom, model = self._pick(rng, CIRCLE_MODELS)
            r = O.invariant_circle_radius(dom)
            phi = rng.uniform(-math.pi, math.pi)
            x0 = r * np.array([math.cos(phi), math.sin(phi)])
            e = np.array([-math.sin(phi), math.cos(phi)]) * rng.choice([-1.0, 1.0])
            reach = math.inf
        elif family == 1:
            dom, model = self._pick(rng, RADIAL_MODELS)
            while True:
                e = _direction(rng, dom, 0.2) * rng.choice([-1.0, 1.0])
                x0 = rng.uniform(-0.5, 0.5) * e
                if dom.margin(x0) >= INSIDE:
                    break
            reach = 0.5 * O.h_length_to_end(dom, x0, e)
        else:
            dom, model = self._pick(rng, COMPLETE_MODELS)
            while True:
                x0 = rng.uniform(-0.7, 0.7, size=2)
                if x0 @ x0 <= 0.49:
                    break
            e = _direction(rng, dom)
            reach = math.inf
        speed = rng.uniform(0.5, 2.0)
        dist = min(rng.uniform(0.2, 1.5), reach)
        v0 = speed * dom.psi(x0) ** 2 * e / math.sqrt(abs(dom.q(e)))
        # the flow is autonomous, so the clock may start anywhere; starting at
        # t0 >= the span keeps every sample interval clear of the t0 = 0
        # end-of-interval defect that known_defects() probes on its own
        t0 = dist / speed * rng.uniform(1.0, 2.0)
        span = (t0, t0 + dist / speed)

        def check(tr):
            pts, vel = tr.points, tr.velocities
            if pts.shape != (samples, 2):
                return f"shape {pts.shape}"
            e0 = O.h_energy(dom, x0, v0)
            drift = max(abs(O.h_energy(dom, x, v) / e0 - 1.0) for x, v in zip(pts, vel))
            problem = _limit("energy drift", drift, 1e-6)
            if family == 0:
                radius = float(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - r).max())
                problem = problem or _limit("radius residual", radius, 1e-6)
            elif family == 1:
                off = float(np.abs(pts[:, 0] * e[1] - pts[:, 1] * e[0]).max())
                problem = problem or _limit("distance from the line", off, 1e-8)
            else:
                l0 = O.h_momentum(dom, x0, v0)
                scale = max(float(np.linalg.norm(x) * np.linalg.norm(v))
                            / dom.psi(x) ** 4 for x, v in zip(pts, vel))
                dl = max(abs(O.h_momentum(dom, x, v) - l0) for x, v in zip(pts, vel))
                problem = problem or _limit("momentum drift", dl / scale, 1e-6)
            return problem

        return Op(kind, lambda: metrics.h_geodesic(model, x0, v0, span, tol=TOL,
                                                   samples=samples), check)

    def warm_ops(self, rng):
        return [self.make(kind, rng) for kind in MIXES["trace-mix"]
                if kind not in ("trace_201", "trace_2001")]


def known_defects() -> dict:
    """Fixed requests that show the known defects: name -> still present.

    grazing_chord: the chord from (-2, 0.99999) to (2.01, 0.99999) of
    S(2,0;-1;+) dips to psi = -2e-5, between the 257 samples of the domain
    guards, so travel_time and transport_ode must refuse it but answer.

    interval_end_underflow: with t_span starting at 0, the last step of the
    first sample interval can end one ulp short of its target; the step left
    over is below the underflow limit, so h_geodesic raises RuntimeError on a
    valid trace (about 1 in 600 short traces starting at 0).

    near_double_root: on chords where psi is nearly a perfect square the
    chord normal form is ill-conditioned; on this chord of S(1,1;0;+) the
    geodesic solved through a misplaces its own start point by ~0.1.
    """
    tag, a, b = GRAZING
    dom, model = O.Domain(tag), models.parse_model(tag)
    a, b = np.array(a), np.array(b)
    if not O.must_refuse(dom, [a, b]):
        raise AssertionError("the grazing chord no longer leaves the domain")
    found = {}
    for name, call in (
            ("grazing_chord.travel_time", lambda: geodesics.travel_time(model, a, b)),
            ("grazing_chord.transport_ode", lambda: transport.transport_ode(
                model, transport.Polyline([a, b]), tol=TOL))):
        try:
            call()
            found[name] = True
        except (DomainError, RuntimeError):
            found[name] = False
    disk = models.parse_model("S(0,2;1;+)")
    try:
        metrics.h_geodesic(disk, np.array([-0.19081392041297596, -0.22930995304875376]),
                           np.array([-0.9537065362253458, -1.1461134521569827]),
                           (0.0, 0.11900511979246163), tol=TOL, samples=17)
        found["interval_end_underflow"] = False
    except RuntimeError:
        found["interval_end_underflow"] = True
    wedge = models.parse_model("S(1,1;0;+)")
    a = np.array([2.0647107734824903, -1.3025667252313344])
    line = geodesics.GeodesicLine(wedge, a, [0.6350870695619868, -0.40070232668003514])
    start = geodesics.solve_geodesic(line, 0.0, 0.0, 1.9860823075959089).point(0.0)
    found["near_double_root"] = O.rel_dev(start, a) > WRONG
    return found


# ---------------------------------------------------------------------------


WORKLOADS = {"transport-mix": TransportMix, "trace-mix": TraceMix}


def schedule(counts: dict, rng) -> list:
    """One block of request classes, each class spread evenly through it."""
    slots = []
    for kind, c in counts.items():
        jitter = rng.random(c)
        slots += [((j + jitter[j]) / c, kind) for j in range(c)]
    slots.sort()
    return [kind for _, kind in slots]


def blocks(work, name: str, rng):
    """Endless seeded stream of request blocks for an in-process workload."""
    while True:
        yield [work.make(kind, rng) for kind in schedule(MIXES[name], rng)]


def build(name: str):
    """The workload's models and request generator (None for cli-cold)."""
    if name == "cli-cold":
        import stiffgeo.cli  # noqa: F401  importing the CLI is its set-up
        return None
    return WORKLOADS[name]()


def warm(work, seed: int) -> None:
    """Run one request of each class once, outside any measurement."""
    if work is None:
        return
    for op in work.warm_ops(np.random.default_rng([seed, 1])):
        try:
            op.call()
        except (DomainError, RuntimeError, ValueError):
            pass


def prepare(name: str, seed: int):
    """Full set-up of one workload: build it, then warm it."""
    work = build(name)
    warm(work, seed)
    return work
