"""Command-line front end: payloads, exit codes, determinism, CSV."""

import json
import math
import warnings

import numpy as np
import pytest

from stiffgeo import geodesics, metrics, models
from stiffgeo.cli import run

CLASSIFY_EXAMPLE = [
    "classify",
    "--potential",
    '{"signature":{"p":2,"m":0},"K":4,"lin":[-4,0],"const":0}',
    "--at", "1,0",
]


def _invoke(capsys, argv):
    code = run(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _strict_loads(text):
    """JSON parse that rejects Infinity/NaN literals (strict interchange)."""
    def refuse(name):
        raise AssertionError(f"non-strict JSON constant {name!r} in output")
    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# worked examples


def test_classify_example(capsys):
    code, out, err = _invoke(capsys, CLASSIFY_EXAMPLE)
    assert code == 0 and err == ""
    payload = _strict_loads(out)
    assert payload["schema"] == "stiffgeo/1"
    assert payload["verdict"] == "model"
    assert payload["model"] == "S(2,0;-1;-)"
    assert payload["map"]["translation"] == [-1.0, 0.0]
    assert payload["scale"] == 1.0


def test_triangle_example(capsys):
    code, out, _ = _invoke(capsys, ["triangle", "--s", "0.9", "--find-s0"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["T_ab"] == pytest.approx(8.183722771592207, rel=1e-9)
    assert payload["T_sum"] == pytest.approx(6.209061594846371, rel=1e-9)
    assert payload["violates"] is True
    assert payload["s0"] == pytest.approx(0.6873173236846923, abs=1e-5)


def test_holonomy_full_turn(capsys):
    code, out, _ = _invoke(capsys, [
        "holonomy", "--model", "S(2,0;0;+)", "--circle-radius", "1", "--ode"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["kind"] == "circle"
    m = payload["moving_matrix"]
    assert m[0][0] == pytest.approx(math.cosh(2 * math.pi), rel=1e-9)
    assert m[0][1] == pytest.approx(math.sinh(2 * math.pi), rel=1e-9)
    assert payload["det"] == pytest.approx(1.0, rel=1e-9)
    assert payload["ode_deviation"] < 1e-5
    assert "moving frame" in payload["note"]


def test_holonomy_infinitesimal(capsys):
    code, out, _ = _invoke(capsys, [
        "holonomy", "--model", "S(2,0;-1;-)", "--infinitesimal", "1,2",
        "--at", "0,0"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["kind"] == "infinitesimal"
    assert payload["generator"] == [[0.0, 2.0], [-2.0, 0.0]]


def test_holonomy_disk_rotation_angle(capsys):
    code, out, _ = _invoke(capsys, [
        "holonomy", "--model", "S(2,0;-1;-)", "--circle-radius", "0.3"])
    assert code == 0
    payload = _strict_loads(out)
    alpha = math.sqrt(1.09 / 0.91)
    want = -math.remainder(2 * math.pi * alpha, 2 * math.pi)
    assert payload["rotation_angle"] == pytest.approx(want, abs=1e-9)


def test_transport_ray_frozen_digits(capsys):
    code, out, _ = _invoke(capsys, [
        "transport", "--model", "S(2,0;-1;-)", "--ray", "1,0",
        "--t0", "0.1", "--t1", "0.5"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["matrix"][0][0] == pytest.approx(0.5739210284664831)
    assert payload["matrix"][1][1] == pytest.approx(25.0 / 33.0)
    # 12-significant-digit rendering policy
    assert "0.573921028466" in out
    assert "0.757575757576" in out


def test_transport_ode_agrees_with_closed_form(capsys):
    argv = ["transport", "--model", "S(2,0;-1;-)", "--ray", "1,0",
            "--t0", "0.1", "--t1", "0.5"]
    _, out_closed, _ = _invoke(capsys, argv)
    _, out_ode, _ = _invoke(capsys, argv + ["--ode"])
    a = _strict_loads(out_closed)["matrix"]
    b = _strict_loads(out_ode)["matrix"]
    for i in range(2):
        for j in range(2):
            assert a[i][j] == pytest.approx(b[i][j], abs=1e-8)


def test_transport_arc(capsys):
    code, out, _ = _invoke(capsys, [
        "transport", "--model", "S(2,0;1;+)", "--arc-plane", "1,2",
        "--radius", "1", "--theta0", "0", "--theta1", "0.7"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["moving_matrix"][0][1] == pytest.approx(0.7, abs=1e-12)
    assert payload["moving_matrix"][1][0] == pytest.approx(0.0, abs=1e-12)


def test_travel_time(capsys):
    code, out, _ = _invoke(capsys, [
        "travel-time", "--model", "S(2,0;-1;-)", "--from", "0,0",
        "--to", "0.9,0"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["regime"] == "Spacelike"
    assert payload["time"] == pytest.approx(3.1045307974231857, rel=1e-10)
    assert "3.10453079742" in out


def test_geodesic_quarter_pi_interval(capsys):
    code, out, _ = _invoke(capsys, [
        "geodesic", "--model", "S(2,0;1;+)", "--from", "0,0", "--dir", "1,0"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["case"] == "C5_NoPole"
    assert payload["normal_form"]["lambda_prime"] == 1
    lo, hi = payload["t_interval"]
    assert lo == pytest.approx(-math.pi / 4, abs=1e-10)
    assert hi == pytest.approx(math.pi / 4, abs=1e-10)
    assert payload["asymptotics"]["kind"] == "finite-time-blowup"


def test_geodesic_csv(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code, out, _ = _invoke(capsys, [
        "geodesic", "--model", "S(2,0;-1;-)", "--from", "0,0", "--dir", "1,0",
        "--sample", "0,1,5", "--out", str(out_file)])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["csv"] == str(out_file)
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 6
    line = geodesics.GeodesicLine(models.parse_model("S(2,0;-1;-)"),
                                  [0.0, 0.0], [1.0, 0.0])
    ts = np.linspace(0.0, 1.0, 5)
    pts = geodesics.solve_geodesic(line, 0.0, 0.0, 1.0).sample(ts)
    assert out_file.read_text() == metrics.trace_csv(ts, pts)


def test_h_geodesic_circle(tmp_path, capsys):
    out_file = tmp_path / "circle.csv"
    r = 1.0 / math.sqrt(3.0)
    code, out, _ = _invoke(capsys, [
        "h-geodesic", "--model", "S(2,0;1;+)", "--from", f"{r},0",
        "--vel", "0,0.8", "--t1", "3.0", "--samples", "31",
        "--out", str(out_file)])
    assert code == 0
    payload = _strict_loads(out)
    x, y = payload["end_point"]
    assert math.hypot(x, y) == pytest.approx(r, abs=1e-6)
    assert payload["speed_drift"] < 1e-7
    assert out_file.read_text().splitlines()[0] == "t,x1,x2"


def test_table(capsys):
    code, out, _ = _invoke(capsys, ["table", "--at", "0.3,-0.2"])
    assert code == 0
    payload = _strict_loads(out)
    names = [r["name"] for r in payload["rows"]]
    assert names == ["flat", "cayley-klein", "poincare", "disk-model"]
    disk_row = payload["rows"][3]
    assert disk_row["metric"] is None
    w = 0.87
    assert disk_row["volume_coeff"] == pytest.approx(w**-3, rel=1e-9)
    assert disk_row["curvature_coeff"] == pytest.approx(-2 / w, rel=1e-9)


def test_curvature_model(capsys):
    code, out, _ = _invoke(capsys, [
        "curvature", "--model", "S(2,0;-1;-)", "--at", "0.5,0"])
    assert code == 0
    payload = _strict_loads(out)
    # R[0][1][0][1] = -H11/psi = 8/3 at psi = -0.75
    assert payload["R"][0][1][0][1] == pytest.approx(8.0 / 3.0, rel=1e-9)
    assert payload["R"][0][1][1][0] == pytest.approx(-8.0 / 3.0, rel=1e-9)
    assert payload["relative_scalar"] == pytest.approx(4.0 / -0.75, rel=1e-9)


def test_facts_strict_json_and_witness(capsys):
    code, out, _ = _invoke(capsys, ["facts", "--model", "S(1,1;0;+)"])
    assert code == 0
    payload = _strict_loads(out)       # would fail on a bare -Infinity
    assert payload["complete"] is False
    lo, hi = payload["witness_interval"]
    assert lo == "-inf"
    assert hi == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert payload["domain"]["simply_connected"] is True
    assert payload["domain"]["bounded"] is False
    assert "similarities" in payload["automorphisms"]


def test_facts_complete_disk(capsys):
    code, out, _ = _invoke(capsys, ["facts", "--model", "S(2,0;-1;-)"])
    payload = _strict_loads(out)
    assert payload["complete"] is True
    assert "witness_interval" not in payload
    assert payload["relative_scalar"] == pytest.approx(-4.0)
    assert payload["domain"]["bounded"] is True


# ---------------------------------------------------------------------------
# weakstiff verb


def test_weakstiff_flexible(capsys):
    f = json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
    code, out, _ = _invoke(capsys, ["weakstiff", "--f", f, "--probes", "60"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["weakly_stiff"] is True
    assert payload["status"] == "similarity-only"
    assert payload["passes"] is True
    assert payload["incompressible"] is False
    assert payload["max_residual"] < 1e-6
    dich = payload["dichotomy"]
    assert dich["kind"] == "extends-past-boundary"
    assert dich["margin"] == pytest.approx(2.0, rel=1e-9)
    assert dich["point"] == {"re": 1.0, "im": 0.0}


def test_weakstiff_isometry_mode_gates_passes(capsys):
    f = json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
    code, out, _ = _invoke(capsys, [
        "weakstiff", "--f", f, "--probes", "40", "--mode", "isometry"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["weakly_stiff"] is True
    assert payload["passes"] is False


def test_weakstiff_disk_function(capsys):
    f = json.dumps({"num": [[-1, 0]], "den": [[0, 0], [1, 0]]})
    code, out, _ = _invoke(capsys, [
        "weakstiff", "--f", f, "--probes", "40", "--radius", "0.9",
        "--margin", "0.2", "--mode", "isometry"])
    assert code == 0
    payload = _strict_loads(out)
    assert payload["status"] == "isometric"
    assert payload["passes"] is True
    assert payload["incompressible"] is True
    assert payload["dichotomy"] == {"kind": "canonical-disk-model",
                                    "model": "S(2,0;-1;-)"}


def test_weakstiff_bad_function_spec(capsys):
    code, out, err = _invoke(capsys, ["weakstiff", "--f", "{broken"])
    assert code == 3
    assert out == ""
    assert "bad rational function spec" in err


# ---------------------------------------------------------------------------
# exit codes and output discipline


def test_exit_code_parse_errors(capsys):
    code, out, err = _invoke(capsys, [])
    assert code == 3 and "usage" in err
    code, out, err = _invoke(capsys, ["transport", "--model", "S(2,0;-1;-)"])
    assert code == 3
    code, out, err = _invoke(capsys, ["facts", "--model", "T(2,0;-1;-)"])
    assert code == 3 and out == ""
    assert "error" in err


def test_exit_code_domain_error(capsys):
    for argv in (["travel-time", "--model", "S(2,0;-1;-)", "--from", "0,0",
                  "--to", "2,0"],
                 # grazing chord: psi dips to -2e-5 near x = 0
                 ["travel-time", "--model", "S(2,0;-1;+)",
                  "--from=-2,0.99999", "--to=2.01,0.99999"],
                 # cosh overflows a double: on the path, then in the transport
                 ["transport", "--model", "S(1,1;1;+)", "--arc-plane", "1,2",
                  "--theta1", "800"],
                 ["transport", "--model", "S(1,1;-1;-)", "--arc-plane", "1,2",
                  "--radius", "0.9", "--theta1", "300"],
                 # q(e) overflows a double, and then so would every answer
                 ["travel-time", "--model", "S(2,0;1;+)", "--from", "0,0",
                  "--to", "1e200,0"],
                 ["geodesic", "--model", "S(2,0;1;+)", "--from", "0,0",
                  "--dir", "1e300,0"],
                 # the time itself overflows
                 ["travel-time", "--model", "S(2,0;-1;-)", "--from", "0,0",
                  "--to", "0.9,0", "--alpha", "1e308"],
                 # psi at theta = 400 overflows to NaN: one verdict both ways
                 ["transport", "--model", "S(1,1;1;+)", "--arc-plane", "1,2",
                  "--theta1", "400"],
                 ["transport", "--model", "S(1,1;1;+)", "--arc-plane", "1,2",
                  "--theta0", "400", "--theta1", "0"],
                 # Lambda^2 = psi(end)^2 / psi(start)^2 overflows
                 ["transport", "--model", "S(2,0;1;+)", "--ray", "1,0",
                  "--t0", "0", "--t1", "1e150"]):
        # a warning would reach stderr ahead of the payload
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _invoke(capsys, argv)
        assert code == 2, argv
        assert err == "" and caught == [], argv
        payload = _strict_loads(out)
        assert payload["error"]["type"] == "domain"
        assert payload["schema"] == "stiffgeo/1"


def test_reversed_long_hyperbolic_arc_is_answered(capsys):
    """The arc from theta = 20 back to 0 inverts no frame, so it is answered
    like the arc from 0 to 20."""
    for thetas in (["--theta0", "20", "--theta1", "0"], ["--theta1", "20"]):
        code, out, err = _invoke(capsys, [
            "transport", "--model", "S(1,1;1;+)", "--arc-plane", "1,2", *thetas])
        assert code == 0 and err == ""
        payload = _strict_loads(out)
        assert payload["method"] == "ClosedForm"
        assert all(math.isfinite(v) for row in payload["matrix"] for v in row)


def test_exit_code_zero_ray_direction(capsys):
    argv = ["transport", "--model", "S(2,0;-1;-)", "--ray", "0,0"]
    for extra in ([], ["--ode"]):
        code, out, err = _invoke(capsys, argv + extra)
        assert code == 3 and out == ""
        assert "nonzero" in err


@pytest.mark.parametrize("argv", [
    ["transport", "--model", "S(1,1;1;+)", "--ray", "1,0", "--t0", "nan"],
    ["transport", "--model", "S(1,1;1;+)", "--arc-plane", "1,2", "--theta1", "nan"],
    ["triangle", "--s", "0.9", "--find-s0", "--tol", "-1"],
    ["h-geodesic", "--model", "S(2,0;1;+)", "--from", "0.5774,0", "--vel",
     "0,1.7778", "--t1", "2", "--samples", "0"],
    ["h-geodesic", "--model", "S(2,0;1;+)", "--from", "0.5774,0", "--vel",
     "0,1.7778", "--t1", "inf"],
    ["h-geodesic", "--model", "S(2,0;1;+)", "--from", "0.5774,0", "--vel",
     "0,1.7778", "--t1", "2", "--alpha", "0"],
    ["travel-time", "--model", "S(2,0;-1;-)", "--from", "0,0", "--to", "0.9,0",
     "--alpha", "-1"],
    ["geodesic", "--model", "S(2,0;1;+)", "--from", "0,0", "--dir", "1,0",
     "--sdot0", "inf"],
    ["h-geodesic", "--model", "S(2,0;1;+)", "--from", "0.5774,0", "--vel",
     "0,1.7778", "--t1", "2", "--tol", "0"],
    ["h-geodesic", "--model", "S(2,0;1;+)", "--from", "0.5774,0", "--vel",
     "0,1.7778", "--t1", "2", "--tol", "nan"],
    ["transport", "--model", "S(2,0;-1;-)", "--ray", "1,0", "--t0", "0.1", "--t1",
     "0.5", "--ode", "--tol", "0"],
    ["transport", "--model", "S(2,0;-1;-)", "--ray", "1,0", "--t0", "0.1", "--t1",
     "0.5", "--ode", "--tol", "nan"],
    ["geodesic", "--model", "S(2,0;1;+)", "--from", "0,0", "--dir", "1,0",
     "--sample", "0,nan,5"],
], ids=["ray-t0-nan", "arc-theta1-nan", "find-s0-negative-tol", "zero-samples",
        "h-geodesic-t1-inf", "h-geodesic-alpha-zero", "travel-time-alpha-negative",
        "geodesic-sdot0-inf", "h-geodesic-tol-zero", "h-geodesic-tol-nan",
        "transport-ode-tol-zero", "transport-ode-tol-nan", "geodesic-sample-nan"])
def test_exit_code_invalid_numbers(capsys, argv):
    code, out, err = _invoke(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ")


# Every argv whose verdict changed when chord cases and arc regimes came to
# be decided by exact signs: exit code, a key of the payload (of its "error"
# object on exit 2) and its value; strings are matched as substrings and
# numbers to 1e-11 relative.
CHANGED_VERDICTS = [
    (["geodesic", "--model", "S(2,0;0;+)", "--from", "1,1e-7", "--dir", "1,0"],
     0, "case", "C5_NoPole"),   # was C4_DoublePole, with a finite t edge
    (["geodesic", "--model", "S(2,0;0;+)", "--from", "1,1e-7", "--dir", "1,0"],
     0, "t_interval", [-1.57268146414e+21, 0.333333333333]),
    (["travel-time", "--model", "S(1,1;1;+)", "--from", "0,0", "--to",
      "1,1.000000000000005"], 0, "time", 1.01064592348e-07),   # was Null, 0.0
    (["transport", "--model", "S(2,0;1;+)", "--arc-plane", "1,2", "--radius",
      "1e-8", "--theta1", "1"], 0, "note", "regime Imaginary"),   # was exit 2
    (["holonomy", "--model", "S(2,0;1;+)", "--circle-radius", "1e-8"],
     0, "det", 1.0),   # was exit 2
    (["holonomy", "--model", "S(2,0;1;+)", "--circle-radius", "1e-8", "--ode"],
     0, "kind", "circle"),   # was exit 2
    (["transport", "--model", "S(2,0;2;+)", "--arc-plane", "1,2", "--radius",
      "1.4142135623730951", "--theta1", "1"], 0, "note", "regime Real"),   # was Zero
    (["transport", "--model", "S(2,0;-1;-)", "--ray", "1e-170,0", "--t0", "1e169",
      "--t1", "5e169"], 0, "det", 0.434788657929),   # was exit 3
    (["transport", "--model", "S(2,0;-1;-)", "--ray", "1e-170,0", "--t0", "1e169",
      "--t1", "5e169", "--ode"], 0, "method", "ODE"),   # was exit 3
    (["geodesic", "--model", "S(2,0;1;+)", "--from", "0,0", "--dir", "1e-200,0"],
     2, "message", "underflows"),   # was exit 3
    (["travel-time", "--model", "S(2,0;1;+)", "--from", "1e-170,0", "--to",
      "3e-170,0"], 2, "message", "underflows"),   # was "coincident endpoints"
    (["transport", "--model", "S(2,0;1;+)", "--arc-plane", "1,2", "--radius", "0",
      "--theta1", "1"], 2, "message", "radius 0"),   # was "light cone"
]


@pytest.mark.parametrize("argv,code,key,want", CHANGED_VERDICTS,
                         ids=[f"{a[0]}-{i}" for i, (a, *_) in enumerate(CHANGED_VERDICTS)])
def test_changed_verdicts(capsys, argv, code, key, want):
    got_code, out, err = _invoke(capsys, argv)
    assert got_code == code and err == ""
    payload = _strict_loads(out)
    got = payload["error"][key] if code == 2 else payload[key]
    if isinstance(want, str):
        assert want in got
    else:
        assert got == pytest.approx(want, rel=1e-11)


def test_tiny_circle_holonomy_matches_the_ode(capsys):
    code, out, _ = _invoke(capsys, ["holonomy", "--model", "S(2,0;1;+)",
                                    "--circle-radius", "1e-8", "--ode"])
    assert code == 0
    assert _strict_loads(out)["ode_deviation"] < 1e-12


def test_byte_identical_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = _invoke(capsys, CLASSIFY_EXAMPLE)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    f = json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
    outs = []
    for _ in range(2):
        code, out, _ = _invoke(capsys, ["weakstiff", "--f", f,
                                        "--probes", "30"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_no_negative_zero_in_output(capsys):
    for argv in (CLASSIFY_EXAMPLE,
                 ["transport", "--model", "S(2,0;-1;-)", "--ray", "1,0",
                  "--t0", "0.1", "--t1", "0.5"],
                 ["table", "--at", "0.0,0.0"]):
        _, out, _ = _invoke(capsys, argv)
        assert "-0.0" not in out


def test_every_payload_carries_schema(capsys):
    for argv in (CLASSIFY_EXAMPLE,
                 ["triangle", "--s", "0.5"],
                 ["facts", "--model", "S(2,0;-1;-)"],
                 ["table", "--at", "0.1,0.1"]):
        _, out, _ = _invoke(capsys, argv)
        assert _strict_loads(out)["schema"] == "stiffgeo/1"
