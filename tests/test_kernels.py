"""Integrator kernels: accuracy oracles and backend agreement."""

import importlib.machinery
import importlib.util
import math
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from stiffgeo import cli, kernels
from stiffgeo.kernels import reference


@pytest.fixture(scope="session")
def fastkernels(tmp_path_factory):
    """The compiled backend, built from src/stiffgeo/_fastkernels.c into a
    temporary directory (never into src/) and loaded under its package name.
    Skips only when the platform's C compiler is missing."""
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    if shutil.which(ldshared[0]) is None:
        pytest.skip(f"no C compiler: {ldshared[0]} is not installed")
    src = Path(kernels.__file__).with_name("_fastkernels.c")
    so = tmp_path_factory.mktemp("fastkernels") / (
        "_fastkernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    # no FMA contraction: the reference rounds every product and every sum
    cmd = [*ldshared, *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
           "-O3", "-ffp-contract=off", "-I" + sysconfig.get_paths()["include"],
           "-I" + np.get_include(),
           "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION", str(src), "-o", str(so)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    name = "stiffgeo._fastkernels"
    loader = importlib.machinery.ExtensionFileLoader(name, str(so))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, so, loader=loader))
    loader.exec_module(module)
    assert module.BACKEND == "compiled"
    return module


@pytest.fixture(params=["compiled", "python"])
def backend(request):
    """Each kernel backend in turn: the fastkernels build, then the reference."""
    if request.param == "compiled":
        return request.getfixturevalue("fastkernels")
    return reference


def _assert_same(a, b):
    """Bit-identical outputs, error estimates, step counts and statuses."""
    assert a[1:] == b[1:]
    out_a, out_b = np.asarray(a[0]), np.asarray(b[0])
    assert out_a.shape == out_b.shape
    assert out_a.tobytes() == out_b.tobytes()


def test_adaptive_integrator_exponential():
    """y' = y from 0 to 1 must hit e to the requested tolerance."""
    y, err, steps, status = reference._drive(
        lambda t, y: y, 0.0, 1.0, [1.0], 1e-12, 1e-12, 1000)
    assert status == kernels.STATUS_OK
    assert y[0] == pytest.approx(math.e, rel=1e-10)


def test_adaptive_integrator_oscillator():
    """Harmonic oscillator over ten periods keeps amplitude."""
    y, err, steps, status = reference._drive(
        lambda t, y: [y[1], -y[0]], 0.0, 20.0 * math.pi, [1.0, 0.0], 1e-11, 1e-11,
        10_000_000)
    assert status == kernels.STATUS_OK
    assert y[0] == pytest.approx(1.0, abs=1e-8)
    assert y[1] == pytest.approx(0.0, abs=1e-8)


def test_transport_segment_line_identity_on_trivial_geometry():
    """With psi constant along the path the transport is the scaling law
    Lambda = psi(end)/psi(start) = 1 on each radial-orthogonal direction."""
    eps = np.array([1.0, 1.0])
    V0 = np.eye(2)
    # chord at constant radius: c0=(1,0) to c1=(0,1) passes through smaller
    # radii, so transport is nontrivial; integrate there and back instead
    out, err, steps, status = reference.transport_segment(
        kernels.PATH_LINE, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
        0.0, 1.0, 0.0, eps, V0)
    back, err2, steps2, status2 = reference.transport_segment(
        kernels.PATH_LINE, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
        1.0, 0.0, 0.0, eps, out)
    assert status == kernels.STATUS_OK and status2 == kernels.STATUS_OK
    assert np.allclose(back, np.eye(2), atol=1e-8)


def test_transport_boundary_detection():
    """A chord through the light cone of a lambda=0 model must stop."""
    eps = np.array([1.0, -1.0])
    out, err, steps, status = reference.transport_segment(
        kernels.PATH_LINE, np.array([2.0, 0.0]), np.array([2.0, 4.0]),
        0.0, 1.0, 0.0, eps, np.eye(2))
    assert status == kernels.STATUS_BOUNDARY


def test_backend_flag_consistency():
    assert kernels.BACKEND in ("compiled", "python")
    assert reference.BACKEND == "python"


def _disk17():
    """A line through the 17-dimensional unit ball S(17,0;-1;-), transporting
    a full basis: 289 state entries."""
    c0 = np.linspace(0.1, -0.1, 17)
    c1 = 0.02 * np.cos(np.arange(17.0))
    return (kernels.PATH_LINE, c0, c1, 0.0, 1.0, -1.0, np.ones(17), np.eye(17))


# case -> (expected status, transport_segment arguments)
TRANSPORT_CASES = {
    "trig-3-columns": (kernels.STATUS_OK, (
        kernels.PATH_TRIG, np.array([0.8, 0.0]), np.array([0.0, 0.8]), 0.1, 2.0,
        -1.0, np.array([1.0, 1.0]),
        np.column_stack([np.eye(2), np.array([0.3, -0.7])]))),
    "line-d17": (kernels.STATUS_OK, _disk17()),
    "lists": (kernels.STATUS_OK, (
        kernels.PATH_HYP, [0.6, 0.1], [0.2, 0.3], 0, 1, 1, [1, -1], [[1, 0], [0, 1]])),
    # psi = 4 at the start is below the floor 5: stopped before the first step
    "psi-floor": (kernels.STATUS_BOUNDARY, (
        kernels.PATH_LINE, np.array([2.0, 0.0]), np.array([2.0, 4.0]), 0.0, 1.0,
        0.0, np.array([1.0, -1.0]), np.eye(2), 1e-10, 1e-10, 10_000_000, 5.0)),
    # cosh overflows to inf: NaN errors, the same underflow on both backends
    "hyp-overflow": (kernels.STATUS_UNDERFLOW, (
        kernels.PATH_HYP, [0.6, 0.1], [0.2, 0.3], 715.0, 720.0, 1.0, [1.0, -1.0],
        np.eye(2))),
    # a NaN error estimate shrinks the step on both backends until underflow
    "nan-vector": (kernels.STATUS_UNDERFLOW, (
        kernels.PATH_LINE, np.array([0.1, 0.0]), np.array([0.5, 0.0]), 0.0, 1.0,
        -1.0, np.array([1.0, 1.0]), np.array([math.nan, 1.0]))),
}


@pytest.mark.parametrize("case", sorted(TRANSPORT_CASES))
def test_compiled_matches_reference_transport(fastkernels, case):
    status, args = TRANSPORT_CASES[case]
    a = fastkernels.transport_segment(*args)
    b = reference.transport_segment(*args)
    _assert_same(a, b)
    assert a[3] == status


def test_compiled_does_not_mutate_input(fastkernels):
    eps = np.array([1.0, 1.0])
    V0 = np.eye(2)
    keep = V0.copy()
    fastkernels.transport_segment(
        kernels.PATH_LINE, np.array([0.1, 0.0]), np.array([0.5, 0.0]),
        0.0, 1.0, -1.0, eps, V0)
    assert np.array_equal(V0, keep)


@pytest.mark.parametrize("grid", [np.linspace(0.0, 1.5, 11), [0.3]],
                         ids=["11-rows", "1-row-list"])
def test_compiled_matches_reference_h_geodesic(fastkernels, grid):
    args = (np.array([0.5, 0.0]), [0.1, 0.4], 1.0, np.array([1.0, 1.0]), grid)
    a = fastkernels.h_geodesic_sample(*args)
    b = reference.h_geodesic_sample(*args)
    _assert_same(a, b)
    assert a[3] == kernels.STATUS_OK
    assert a[0].shape == (len(grid), 4)


def test_empty_grid_raises_on_both_backends(fastkernels):
    for backend in (fastkernels, reference):
        with pytest.raises(IndexError):
            backend.h_geodesic_sample([0.5, 0.0], [0.1, 0.4], 1.0, [1.0, 1.0], [])


def _transport_corpus(rng, count):
    """Random transport_segment arguments over every path kind, d 1-6, 1 to
    d + 1 columns, and random tolerances, psi floors and step budgets, so
    that every status code turns up."""
    for _ in range(count):
        kind = int(rng.integers(3))
        d = int(rng.integers(1, 7))
        ncols = int(rng.integers(1, d + 2))
        t0 = float(rng.uniform(-1.0, 1.0))
        t1 = t0 + float(rng.uniform(-1.5, 1.5) if kind != kernels.PATH_TRIG
                        else rng.uniform(-3.0, 3.0))
        V0 = rng.normal(size=(d, ncols))
        yield (kind, 0.6 * rng.normal(size=d), 0.6 * rng.normal(size=d), t0, t1,
               float(rng.choice([-1.0, 0.0, 1.0])), rng.choice([-1.0, 1.0], d),
               V0.ravel() if ncols == 1 and rng.random() < 0.5 else V0,
               10 ** rng.uniform(-12, -5), 10 ** rng.uniform(-12, -5),
               int(rng.integers(20, 3000)), 10 ** rng.uniform(-12, -0.5))


def _h_geodesic_corpus(rng, count):
    """Random h_geodesic_sample arguments; half the grids hold 20-60 points,
    so that one step passes many of them."""
    for _ in range(count):
        d = int(rng.integers(2, 4))
        t0 = float(rng.uniform(-1.0, 1.0))
        size = int(rng.integers(1, 9) if rng.random() < 0.5 else rng.integers(20, 61))
        grid = np.linspace(t0, t0 + float(rng.uniform(-2.0, 2.0)), size)
        yield (0.4 * rng.normal(size=d), rng.normal(size=d),
               float(rng.choice([-1.0, 1.0])), rng.choice([-1.0, 1.0], d), grid,
               10 ** rng.uniform(-12, -6), 10 ** rng.uniform(-12, -6),
               int(rng.integers(50, 3000)), 10 ** rng.uniform(-12, -1))


def test_compiled_matches_reference_bitwise_on_seeded_corpus(fastkernels):
    """300 transports and 60 h-geodesics: both backends return the same bits."""
    rng = np.random.default_rng(20231)
    statuses = set()
    cases = [("transport_segment", args) for args in _transport_corpus(rng, 300)]
    cases += [("h_geodesic_sample", args) for args in _h_geodesic_corpus(rng, 60)]
    for i, (name, args) in enumerate(cases):
        a = getattr(fastkernels, name)(*args)
        b = getattr(reference, name)(*args)
        try:
            _assert_same(a, b)
        except AssertionError as exc:
            raise AssertionError(f"case {i}: {name}{args}") from exc
        statuses.add(a[3])
    assert statuses == {kernels.STATUS_OK, kernels.STATUS_MAX_STEPS,
                        kernels.STATUS_UNDERFLOW, kernels.STATUS_BOUNDARY}


@pytest.mark.parametrize("call", ["t0-nan", "t1-inf", "grid-nan", "grid-unsorted",
                                  "floor-zero", "empty-V0", "empty-state"])
def test_invalid_inputs_are_refused(backend, call):
    """Non-finite times never start an integration, a grid that is not
    monotone (one sweep could not pass its times in order) is refused, and so
    is a psi floor of 0 (which would let psi = 0 reach a division) and an
    empty state (no columns to transport, or no coordinates at all)."""
    line = (kernels.PATH_LINE, [0.1, 0.0], [0.5, 0.0])
    with pytest.raises(ValueError):
        if call == "t0-nan":
            backend.transport_segment(*line, math.nan, 1.0, -1.0, [1.0, 1.0], np.eye(2))
        elif call == "t1-inf":
            backend.transport_segment(*line, 0.0, math.inf, -1.0, [1.0, 1.0], np.eye(2))
        elif call == "grid-nan":
            backend.h_geodesic_sample([0.5, 0.0], [0.1, 0.4], 1.0, [1.0, 1.0],
                                      [0.0, 0.5, math.nan, 1.5])
        elif call == "grid-unsorted":
            backend.h_geodesic_sample([0.5, 0.0], [0.1, 0.4], 1.0, [1.0, 1.0],
                                      [0.0, 1.0, 0.5])
        elif call == "empty-V0":
            with pytest.raises(ValueError):
                backend.transport_segment(*line, 0.0, 1.0, -1.0, [1.0, 1.0], np.zeros((2, 0)))
            backend.transport_segment(*line, 0.0, 1.0, -1.0, [1.0, 1.0], np.zeros(0))
        elif call == "empty-state":
            with pytest.raises(ValueError):
                backend.transport_segment(kernels.PATH_LINE, [], [], 0.0, 1.0, -1.0, [], [])
            backend.h_geodesic_sample([], [], 1.0, [], [0.0, 1.0])
        else:
            backend.h_geodesic_sample([1.0, 0.0], [0.0, 1.0], -1.0, [1.0, 1.0],
                                      [0.0, 0.1], psi_floor=0.0)


_CIRCLE = ([0.5774, 0.0], [0.0, 1.7778], 1.0, [1.0, 1.0])  # the README h-geodesic


def test_zero_span_grid_gives_a_row_per_entry(backend):
    out, err, steps, status = backend.h_geodesic_sample(*_CIRCLE, [1.0] * 5)
    assert (err, steps, status) == (0.0, 0, kernels.STATUS_OK)
    assert out.tolist() == [[0.5774, 0.0, 0.0, 1.7778]] * 5


def test_repeated_grid_entries_each_get_a_row(backend):
    """Repeated times, at the start, inside the span and at the end, each get
    their own identical row; end rows hold the end state."""
    grid = [0.0, 0.0, 0.5, 0.5, 0.5, 1.2, 2.0, 2.0]
    out, err, steps, status = backend.h_geodesic_sample(*_CIRCLE, grid)
    assert status == kernels.STATUS_OK and out.shape == (8, 4)
    assert out[0].tolist() == out[1].tolist() == _CIRCLE[0] + _CIRCLE[1]
    assert out[2].tolist() == out[3].tolist() == out[4].tolist()
    assert out[6].tolist() == out[7].tolist()
    end = backend.h_geodesic_sample(*_CIRCLE, [0.0, 2.0])[0][-1]
    assert out[-1].tolist() == end.tolist()


def test_steps_do_not_depend_on_sample_count(backend):
    """One sweep per trace: the samples are read off the dense output and
    never shorten a step, in either direction of time."""
    for span in ((0.0, 2.0), (1.0, -0.5)):
        runs = [backend.h_geodesic_sample(*_CIRCLE, np.linspace(*span, n))
                for n in (2, 2001)]
        assert runs[0][1:] == runs[1][1:]
        assert runs[0][0][-1].tolist() == runs[1][0][-1].tolist()
        assert runs[1][0].shape == (2001, 4)


def test_sweep_ending_an_ulp_short_is_not_an_underflow(backend):
    """Here the last step, from t to 0.00328... with h = t1 - t, lands one ulp
    short of t1 when added to t; the step left would be below the underflow
    limit.  A step aimed at t1 ends the sweep at t1."""
    out, err, steps, status = backend.h_geodesic_sample(
        [0.1592378451252148, 0.3177744045795608],
        [-0.023392777153805305, -0.17200536212015363], 1.0, [-1.0, -1.0],
        [0.0, 0.003285632151488894])
    assert status == kernels.STATUS_OK and out.shape == (2, 4)


def test_h_geodesic_cli_output_same_on_both_backends(fastkernels, monkeypatch,
                                                     capsys, tmp_path):
    """The README h-geodesic example prints the same bytes on either kernel."""
    printed = []
    csv = tmp_path / "circle.csv"
    for sample in (fastkernels.h_geodesic_sample, reference.h_geodesic_sample):
        monkeypatch.setattr(kernels, "h_geodesic_sample", sample)
        assert cli.run(["h-geodesic", "--model", "S(2,0;1;+)", "--from", "0.5774,0",
                        "--vel", "0,1.7778", "--t1", "2", "--out", str(csv)]) == 0
        printed.append((capsys.readouterr().out, csv.read_bytes()))
    assert printed[0] == printed[1]


def test_h_geodesic_boundary_floor_guard():
    """Starting within the psi floor trips the boundary status and the
    sample array is truncated.  (A generic run never gets here: the
    conformal factor 1/psi^4 puts the zero set at infinite distance.)"""
    eps = np.array([1.0, 1.0])
    grid = np.linspace(0.0, 1.0, 5)
    out, err, steps, status = reference.h_geodesic_sample(
        np.array([1.0 - 5e-14, 0.0]), np.array([1.0, 0.0]), -1.0, eps, grid)
    assert status == kernels.STATUS_BOUNDARY
    assert out.shape[0] < grid.size


def test_h_geodesic_boundary_is_far():
    """A run aimed at the boundary must slow down and stay inside."""
    eps = np.array([1.0, 1.0])
    grid = np.linspace(0.0, 8.0, 9)
    out, err, steps, status = reference.h_geodesic_sample(
        np.array([0.5, 0.0]), np.array([1.0, 0.0]), -1.0, eps, grid)
    assert status == kernels.STATUS_OK
    radii = np.hypot(out[:, 0], out[:, 1])
    assert radii.max() < 1.0
    assert np.all(np.diff(radii) > 0)


def test_raise_for_status():
    kernels.raise_for_status(kernels.STATUS_OK)
    from stiffgeo.errors import DomainError
    with pytest.raises(DomainError):
        kernels.raise_for_status(kernels.STATUS_BOUNDARY)
    with pytest.raises(RuntimeError):
        kernels.raise_for_status(kernels.STATUS_MAX_STEPS)
