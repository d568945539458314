"""Command-line front end.

Verbs dispatch to the library modules and print a single JSON object to
stdout (schema "stiffgeo/1", floats rounded to 12 significant digits).
Trace-producing verbs optionally write a CSV file.  Exit codes: 0 success,
2 domain errors, 3 parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import geodesics, metrics, models, transport, weakstiff2d
from .errors import DomainError
from .projconn import (QuadraticPotential, curvature_from_potential,
                       form_from_potential, incompressibility_report, ricci)
from .pseudospace import Signature

SCHEMA = "stiffgeo/1"


class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for domain
    # errors, so intercept and re-raise as a parse failure (exit 3)
    def error(self, message):
        raise _ParseFailure(message)


def _round12(obj):
    """Recursively render floats at 12 significant digits."""
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isinf(v) or np.isnan(v):
            return repr(v)      # strings keep the JSON strictly parseable
        return float(f"{v:.12g}") + 0.0   # +0.0 folds -0.0 into 0.0
    if isinstance(obj, complex):
        return {"re": _round12(obj.real), "im": _round12(obj.imag)}
    return obj


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(_round12(payload), indent=2))


def _point(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise _ParseFailure(f"bad point {text!r}: {exc}") from None


def _plane(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise _ParseFailure(f"bad plane {text!r}: expected i,j")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _ParseFailure(f"bad plane {text!r}: {exc}") from None


def _potential(text: str) -> QuadraticPotential:
    try:
        return QuadraticPotential.from_json_dict(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _ParseFailure(f"bad potential spec: {exc}") from None


def _model(text: str) -> models.CanonicalModel:
    try:
        return models.parse_model(text)
    except ValueError as exc:
        raise _ParseFailure(str(exc)) from None


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_classify(args) -> dict:
    P = _potential(args.potential)
    res = models.classify(P, _point(args.at), mode=args.mode)
    out = {"verdict": res.verdict, "mode": res.mode, "notes": list(res.notes)}
    if res.verdict == "model":
        out["model"] = models.format_model(res.model)
        out["map"] = {
            "linear": res.reducing_map.linear,
            "translation": res.reducing_map.translation,
        }
        out["scale"] = res.scale
    elif res.flattening is not None:
        out["flattening"] = {"homogeneous": res.flattening.H}
    return out


def _curvature_payload(sig: Signature, form, R, x) -> dict:
    Ric = ricci(form, x)
    return {
        "signature": {"p": sig.p, "m": sig.m},
        "at": x,
        "R": R,
        "Ric": Ric,
    }


def _cmd_curvature(args) -> dict:
    x = _point(args.at)
    if args.model is not None:
        M = _model(args.model)
        P = M.potential()
        form = form_from_potential(P)
        out = _curvature_payload(M.sig, form, curvature_from_potential(P, x), x)
        out["model"] = models.format_model(M)
        out["relative_scalar"] = models.relative_scalar_curvature(M, x)
        return out
    if args.potential is None:
        raise _ParseFailure("curvature needs --model or --potential")
    P = _potential(args.potential)
    form = form_from_potential(P)
    out = _curvature_payload(P.sig, form, curvature_from_potential(P, x), x)
    d = P.sig.d
    out["relative_scalar"] = d * (d - 1) * P.K / P.psi_checked(x)
    return out


def _cmd_transport(args) -> dict:
    M = _model(args.model)
    tol = args.tol if args.tol is not None else 1e-10
    if args.ray is not None:
        e = _point(args.ray)
        if args.ode:
            tm = transport.transport_ode(
                M, transport.RaySegment(e, args.t0, args.t1), tol=tol)
        else:
            tm = transport.transport_ray(M, e, args.t0, args.t1)
    elif args.polyline is not None:
        pts = [_point(p) for p in args.polyline.split(";")]
        tm = transport.transport_ode(M, transport.Polyline(pts), tol=tol)
    elif args.arc_plane is not None:
        if args.theta1 is None:
            raise _ParseFailure("--arc-plane needs --theta0/--theta1")
        plane = _plane(args.arc_plane)
        if args.ode:
            arc = transport.path_arc(M, plane, args.radius, args.theta0,
                                     args.theta1)
            tm = transport.transport_ode(M, arc, tol=tol)
        else:
            tm = transport.transport_arc(M, plane, args.radius, args.theta0,
                                         args.theta1)
    else:
        raise _ParseFailure("transport needs --ray, --polyline or --arc-plane")
    out = tm.to_json_dict()
    out["model"] = models.format_model(M)
    out["det"] = tm.det()
    return out


def _cmd_holonomy(args) -> dict:
    M = _model(args.model)
    if args.infinitesimal is not None:
        i, j = _plane(args.infinitesimal)
        x = _point(args.at) if args.at else models.interior_point(M)
        gen = transport.infinitesimal_holonomy(M, x, i, j)
        return {
            "model": models.format_model(M),
            "kind": "infinitesimal",
            "plane": [i, j],
            "at": x,
            "generator": gen,
        }
    if args.circle_radius is None:
        raise _ParseFailure("holonomy needs --circle-radius or --infinitesimal")
    plane = _plane(args.plane) if args.plane else (1, 2)
    r = args.circle_radius
    tm = transport.transport_arc(M, plane, r, 0.0, 2.0 * np.pi)
    out = tm.to_json_dict()
    out["model"] = models.format_model(M)
    out["kind"] = "circle"
    out["radius"] = r
    out["det"] = tm.det()
    if tm.moving_matrix is not None:
        m2 = np.asarray(tm.moving_matrix)
        if m2[0, 1] * m2[1, 0] < 0:
            out["rotation_angle"] = transport.conjugate_rotation_angle(m2)
    if args.ode:
        loop = transport.circle_loop(M, r, plane=plane)
        hol = transport.holonomy_loop(
            M, loop, tol=args.tol if args.tol is not None else 1e-10)
        out["ode_matrix"] = hol.matrix
        out["ode_deviation"] = float(
            np.abs(np.asarray(hol.matrix) - np.asarray(tm.matrix)).max())
    return out


def _cmd_geodesic(args) -> dict:
    M = _model(args.model)
    line = geodesics.GeodesicLine(M, _point(args.from_), _point(args.dir))
    sol = geodesics.solve_geodesic(line, args.t0, args.s0, args.sdot0)
    case = sol.case
    out = {
        "model": models.format_model(M),
        "case": case.case,
        "normal_form": {
            "alpha_r": case.alpha_r,
            "beta_r": case.beta_r,
            "scale": case.scale,
            "flipped": case.flipped,
        },
        "alpha": sol.alpha,
        "beta": sol.beta,
        "t_interval": [sol.t_interval[0], sol.t_interval[1]],
        "asymptotics": dict(sol.asymptotics),
    }
    if case.lambda_prime is not None:
        out["normal_form"]["lambda_prime"] = case.lambda_prime
    if args.sample is not None:
        t0, t1, n = args.sample.split(",")
        ts = np.linspace(float(t0), float(t1), int(n))
        pts = sol.sample(ts)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(metrics.trace_csv(ts, pts))
            out["csv"] = args.out
        else:
            out["trace"] = {"t": ts, "points": pts}
    return out


def _cmd_travel_time(args) -> dict:
    M = _model(args.model)
    tt = geodesics.travel_time(M, _point(args.from_), _point(args.to),
                               alpha=args.alpha)
    out = {
        "model": models.format_model(M),
        "time": tt.time,
        "regime": tt.regime,
    }
    if tt.note:
        out["note"] = tt.note
    return out


def _cmd_triangle(args) -> dict:
    res = geodesics.triangle_experiment(args.s)
    out = {"s": res.s, "T_ab": res.T_ab, "T_sum": res.T_sum,
           "violates": res.violates}
    if args.find_s0:
        out["s0"] = geodesics.find_s0(tol=args.tol if args.tol else 1e-6)
    return out


def _cmd_h_geodesic(args) -> dict:
    M = _model(args.model)
    tol = args.tol if args.tol is not None else 1e-10
    trace = metrics.h_geodesic(M, _point(args.from_), _point(args.vel),
                               (args.t0, args.t1), tol=tol,
                               samples=args.samples, alpha=args.alpha)
    out = {
        "model": models.format_model(M),
        "alpha": args.alpha,
        "t_span": [args.t0, args.t1],
        "samples": args.samples,
        "end_point": trace.points[-1],
        "end_velocity": trace.velocities[-1],
        "speed_drift": trace.speed_drift,
        "est_error": trace.est_error,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trace.to_csv())
        out["csv"] = args.out
    return out


def _cmd_table(args) -> dict:
    rows = metrics.comparison_table(_point(args.at))
    return {
        "at": _point(args.at),
        "rows": [
            {
                "name": r.name,
                "metric": r.metric if r.metric is not None else None,
                "volume_coeff": r.volume_coeff,
                "curvature_coeff": r.curvature_coeff,
            }
            for r in rows
        ],
    }


def _cmd_weakstiff(args) -> dict:
    try:
        f = weakstiff2d.RationalComplexFn.from_json_dict(json.loads(args.f))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _ParseFailure(f"bad rational function spec: {exc}") from None
    form = weakstiff2d.from_meromorphic(f)
    rng = np.random.default_rng(args.seed)
    probes = []
    attempts = 0
    while len(probes) < args.probes:
        attempts += 1
        if attempts > 200 * args.probes:
            raise DomainError("could not sample probes clear of the singular "
                              "set; lower --margin or change --radius")
        x = rng.uniform(-args.radius, args.radius, size=2)
        z = complex(x[0], x[1])
        # margin keeps finite differencing away from the singular set
        if abs(f.conj_denominator(z)) > args.margin:
            probes.append(x)
    rep = weakstiff2d.verify_weakstiff(form, probes,
                                       tol=args.tol if args.tol else 1e-6)
    inc = incompressibility_report(form, probes)
    passes = rep.weakly_stiff and (rep.isometric or args.mode != "isometry")
    out = {
        "f": f.to_json_dict(),
        "probes": rep.n_probes,
        "max_residual": rep.max_residual,
        "trace_max": rep.trace_max,
        "weakly_stiff": rep.weakly_stiff,
        "status": rep.status,
        "passes": passes,
        "incompressible": inc.closed,
    }
    dich = weakstiff2d.conj_dichotomy(f)
    if isinstance(dich, weakstiff2d.CanonicalDiskModel):
        out["dichotomy"] = {"kind": "canonical-disk-model",
                            "model": models.format_model(dich.model)}
    else:
        out["dichotomy"] = {"kind": "extends-past-boundary",
                            "point": dich.point, "margin": dich.margin}
    return out


def _cmd_facts(args) -> dict:
    M = _model(args.model)
    facts = models.domain_facts(M)
    verdict = geodesics.completeness_verdict(M)
    out = {
        "model": models.format_model(M),
        "signature": {"p": M.sig.p, "m": M.sig.m},
        "lambda": M.lam,
        "nu": M.nu,
        "branch": M.branch,
        "domain": {
            "empty": facts.empty,
            "connected": facts.connected,
            "simply_connected": facts.simply_connected,
            "bounded": facts.bounded,
            "contains_origin": facts.contains_origin,
        },
        "complete": verdict.complete,
        "automorphisms": models.automorphism_text(
            models.automorphism_descriptor(M)),
    }
    if not facts.empty:
        x = models.interior_point(M)
        out["interior_point"] = x
        out["relative_scalar"] = models.relative_scalar_curvature(M, x)
        if M.sig.d == 2:
            cf = metrics.curvature_forms(M, x)
            out["curvature_forms_at_interior"] = {
                "kappa_nabla": cf.kappa_nabla,
                "kappa_h": cf.kappa_h,
                "gaussian_rel": cf.gaussian_rel,
            }
    if not verdict.complete and verdict.witness_interval is not None:
        out["witness_interval"] = [verdict.witness_interval[0],
                                   verdict.witness_interval[1]]
    return out


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="stiffgeo",
                     description="stiff connection numerics front end")
    sub = parser.add_subparsers(dest="verb", metavar="verb")

    def add(name, fn, mode=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override for the underlying solver")
        if mode:
            p.add_argument("--mode", choices=["similarity", "isometry"],
                           default="similarity",
                           help="group used for normalizations and status checks")
        return p

    p = add("classify", _cmd_classify, mode=True, help="reduce a stiff "
            "potential to its canonical model")
    p.add_argument("--potential", required=True,
                   help='JSON like {"signature":{"p":2,"m":0},"K":4,'
                        '"lin":[-4,0],"const":0}')
    p.add_argument("--at", required=True, help="basepoint x1,x2,...")

    p = add("curvature", _cmd_curvature, help="curvature tensor and Ricci")
    p.add_argument("--model", default=None, help='model "S(p,m;lambda;nu[;L|R])"')
    p.add_argument("--potential", default=None, help="potential JSON")
    p.add_argument("--at", required=True)

    p = add("transport", _cmd_transport, help="parallel transport along a path")
    p.add_argument("--model", required=True)
    p.add_argument("--ray", default=None, help="ray direction e1,e2,...")
    p.add_argument("--polyline", default=None, help='points "x1,y1;x2,y2;..."')
    p.add_argument("--arc-plane", default=None, help="coordinate plane i,j")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--theta1", type=float, default=None)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--t1", type=float, default=2.0)
    p.add_argument("--ode", action="store_true",
                   help="force ODE integration instead of the closed form")

    p = add("holonomy", _cmd_holonomy, help="loop holonomy matrices")
    p.add_argument("--model", required=True)
    p.add_argument("--circle-radius", type=float, default=None)
    p.add_argument("--plane", default=None, help="coordinate plane i,j")
    p.add_argument("--infinitesimal", default=None, help="plane i,j")
    p.add_argument("--at", default=None, help="base point for --infinitesimal")
    p.add_argument("--ode", action="store_true",
                   help="cross-check the closed form by ODE integration")

    p = add("geodesic", _cmd_geodesic, help="parameterize a straight-line "
            "geodesic")
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="from_", required=True, help="line base point")
    p.add_argument("--dir", required=True, help="line direction")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--s0", type=float, default=0.0)
    p.add_argument("--sdot0", type=float, default=1.0)
    p.add_argument("--sample", default=None, help="t0,t1,n trace request")
    p.add_argument("--out", default=None, help="CSV output path")

    p = add("travel-time", _cmd_travel_time, help="isochrone travel time "
            "along a chord")
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--alpha", type=float, default=1.0)

    p = add("triangle", _cmd_triangle, help="disk triangle inequality "
            "violation experiment")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--find-s0", action="store_true",
                   help="also locate the crossover side length")

    p = add("h-geodesic", _cmd_h_geodesic, help="integrate a geodesic of the "
            "isochrone metric")
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--vel", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default=None, help="CSV output path")

    p = add("table", _cmd_table, help="unit-disk comparison table")
    p.add_argument("--at", required=True)

    p = add("weakstiff", _cmd_weakstiff, mode=True, help="verify a weakly "
            "stiff construction and run the boundary dichotomy")
    p.add_argument("--f", required=True,
                   help='rational function JSON {"num":[[re,im],...],'
                        '"den":[[re,im],...]}')
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--margin", type=float, default=0.3,
                   help="minimum |conj(z) D + N| at sampled probes")

    p = add("facts", _cmd_facts, help="domain facts and invariants of a model")
    p.add_argument("--model", required=True)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "verb", None) is None:
            raise _ParseFailure("missing verb")
        payload = args.fn(args)
    except _ParseFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except DomainError as exc:
        _emit({"error": {"type": "domain", "message": str(exc)}})
        return 2
    except RuntimeError as exc:
        _emit({"error": {"type": "runtime", "message": str(exc)}})
        return 2
    _emit(payload)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
