"""The end-to-end and traced runs behind perfbench/run.py."""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import compiled
import harness
import workloads
from stiffgeo import kernels
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("transport-mix", "trace-mix", "cli-cold")
SETUP_REPS = 15        # set-up is timed in this many fresh processes
STARTUP_REPS = 5       # cold-start probe repetitions in the traced run
# traced run size per second of --seconds: requests for the in-process
# workloads (each runs untraced and traced), warm CLI rounds for cli-cold
TRACE_RATE = {"transport-mix": 100, "trace-mix": 20, "cli-cold": 0.25}
CLI_PROBE_ROUNDS = 2   # warm CLI rounds added to the in-process traced runs
RECORD_LIMIT = {"kernels.transport_segment": 300, "kernels.h_geodesic_sample": 12}
SCHEMA = "stiffgeo/1"
P99_MIN_OPS = 1000     # below this many timed requests p99 is indicative only


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Checked requests: how many, how many wrong, the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


def timed(op):
    """Run one request; return (seconds, result, exception)."""
    start = time.perf_counter()
    try:
        result, exc = op.call(), None
    except Exception as err:  # the check decides whether this was right
        result, exc = None, err
    return time.perf_counter() - start, result, exc


def setup_once(name: str, seed: int) -> tuple:
    """Set up the workload in a fresh process; return (wall seconds of the
    child, seconds it reports for importing stiffgeo and the workload code,
    building the workload's inputs and warming each request class once).

    The child starts its clock after importing numpy: interpreter start-up
    and the numpy import are the same for every version of stiffgeo, are the
    most variable part of a cold start on a shared host, and are measured on
    their own in the traced run (cli.process_startup_ms, cli.import_numpy_ms).
    """
    code = ("import sys, time; import numpy; t0 = time.perf_counter(); "
            f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.prepare({name!r}, {seed}); "
            "print(time.perf_counter() - t0)")
    wall, done = harness.wall([sys.executable, "-c", code], cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {name} exited {done.returncode}: "
                           f"{done.stderr.decode(errors='replace')[-400:]}")
    return wall, float(done.stdout)


# ---------------------------------------------------------------------------
# command line


def _strict_json(text: str):
    def refuse(const):
        raise ValueError(f"non-finite constant {const}")
    return json.loads(text, parse_constant=refuse)


def cli_problem(verb: str, rc: int, out: str, reference=None):
    """Exit 0, strict JSON with the stiffgeo/1 schema, bytes as first seen."""
    if rc != 0:
        return f"{verb}: exit code {rc}"
    try:
        doc = _strict_json(out)
    except ValueError as exc:
        return f"{verb}: stdout is not strict JSON ({exc})"
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return f"{verb}: schema is not {SCHEMA}"
    if reference is not None and out != reference:
        return f"{verb}: stdout differs from this argv's first output"
    return None


def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def cli_child(argv, cwd, env):
    """Run one fresh CLI process; return (exit code, stdout)."""
    _, done = harness.wall([sys.executable, "-m", "stiffgeo.cli", *argv],
                           cwd=cwd, env=env)
    return done.returncode, done.stdout.decode(errors="replace")


def cli_cold_blocks(rng, scratch):
    """Rounds of the README argv in seeded order, each a fresh process,
    checked against the output of a first, unmeasured round."""
    env = cli_env()
    reference = {verb: cli_child(argv, scratch, env)[1]
                 for verb, argv in workloads.README_ARGV}

    def request(verb, argv):
        return workloads.Op(
            verb, lambda: cli_child(argv, scratch, env),
            lambda res: cli_problem(verb, res[0], res[1], reference[verb]))

    while True:
        yield [request(*workloads.README_ARGV[i])
               for i in rng.permutation(len(workloads.README_ARGV))]


def run_pairs(ops, tracer, overhead, tally) -> list:
    """Run each request untraced, then traced; return the traced times."""
    times = []
    for op in ops:
        for on in (False, True):
            if on:
                tracer.install()
            try:
                dt, result, exc = timed(op)
            finally:
                if on:
                    tracer.uninstall()
            overhead[on] += dt
            tally.add(op.verify(result, exc))
        times.append(dt)
    return times


def cli_warm_probe(rounds, tracer, scratch, overhead, tally):
    """The README argv (plus two coverage calls) through cli.run in-process,
    each untraced then traced; returns the traced busy time per verb."""
    from stiffgeo import cli

    def request(verb, argv):
        argv = [os.path.join(scratch, a) if prev == "--out" else a
                for prev, a in zip([None] + argv, argv)]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                return cli.run(argv), out.getvalue()

        return workloads.Op(verb, call, lambda res: cli_problem(verb, *res))

    jobs = workloads.README_ARGV + [(a[0], a) for a in workloads.COVERAGE_ARGV]
    busy = {verb: 0.0 for verb, _ in workloads.README_ARGV}
    for _ in range(rounds):
        times = run_pairs([request(*job) for job in jobs], tracer, overhead, tally)
        for (verb, _), dt in zip(workloads.README_ARGV, times):
            busy[verb] += dt
    return busy


def cold_start_probe(scratch) -> dict:
    """Bare interpreter start, then the numpy and stiffgeo imports, in children."""
    startup = harness.median_wall([sys.executable, "-c", "pass"], STARTUP_REPS,
                                  cwd=scratch)
    code = ("import time; t0 = time.perf_counter(); import numpy; "
            "t1 = time.perf_counter(); import stiffgeo.cli; "
            "print(t1 - t0, time.perf_counter() - t1)")
    numpy_s, stiffgeo_s = [], []
    for _ in range(STARTUP_REPS):
        _, done = harness.wall([sys.executable, "-c", code], cwd=scratch, env=cli_env())
        a, b = done.stdout.split()
        numpy_s.append(float(a))
        stiffgeo_s.append(float(b))
    return {
        "cli.process_startup_ms": startup * 1e3,
        "cli.import_numpy_ms": statistics.median(numpy_s) * 1e3,
        "cli.import_stiffgeo_ms": statistics.median(stiffgeo_s) * 1e3,
    }


# ---------------------------------------------------------------------------
# runs


def end_to_end(name, seed, seconds, scratch, tally, notes):
    rng = np.random.default_rng(seed)
    if name == "cli-cold":
        work, blocks = None, cli_cold_blocks(rng, scratch)
    else:
        work = workloads.prepare(name, seed)
        blocks = workloads.blocks(work, name, rng)
    # Whole blocks, each request run once, so the class mix is exact.  The
    # set-up children are spread evenly over the run, so that setup_s sees the
    # same drift of host speed as the requests; their time is not counted in
    # --seconds.
    latencies, setup = [], []
    start, paused = time.perf_counter(), 0.0
    for block in blocks:
        for op in block:
            if (len(setup) < SETUP_REPS and time.perf_counter() - start - paused
                    >= len(setup) * seconds / SETUP_REPS):
                wall, took = setup_once(name, seed)
                setup.append(took)
                paused += wall
            dt, result, exc = timed(op)
            latencies.append(dt)
            tally.add(op.verify(result, exc))
        if time.perf_counter() - start - paused >= seconds:
            break
    setup += [setup_once(name, seed)[1] for _ in range(SETUP_REPS - len(setup))]
    metrics = {"setup_s": statistics.median(setup)}
    metrics["peak_rss_mb"] = harness.peak_rss_mb(children=name == "cli-cold")
    chord_accuracy(work, notes)
    if name == "trace-mix":
        defect_notes(notes)
    metrics.update(harness.latency_summary(latencies))
    notes.append(f"every percentile is over n={len(latencies)} timed requests"
                 + (f" (below {P99_MIN_OPS}: latency_p99_ms is indicative only)"
                    if len(latencies) < P99_MIN_OPS else ""))
    return metrics


def traced(name, seed, seconds, scratch, tally, notes):
    tracer = Tracer(RECORD_LIMIT)
    overhead = [0.0, 0.0]          # untraced, traced seconds on the same calls
    with tracer:
        work = workloads.build(name)   # set-up spans: parse_model
    workloads.warm(work, seed)
    if name == "cli-cold":
        rounds = math.ceil(TRACE_RATE[name] * seconds)
    else:
        rounds = CLI_PROBE_ROUNDS
        ops = itertools.chain.from_iterable(
            workloads.blocks(work, name, np.random.default_rng(seed)))
        count = math.ceil(TRACE_RATE[name] * seconds)
        run_pairs(itertools.islice(ops, count), tracer, overhead, tally)
        notes.append(f"{count} requests, each run untraced and traced")
        chord_accuracy(work, notes)
    busy = cli_warm_probe(rounds, tracer, scratch, overhead, tally)
    notes.append(f"{rounds} warm CLI rounds in-process")

    metrics = tracer.metrics()
    metrics.update({f"cli.run.{verb}.busy_ms": t * 1e3 for verb, t in busy.items()})
    metrics.update(cold_start_probe(scratch))
    metrics["trace.overhead_ratio"] = overhead[1] / overhead[0]
    metrics["oracle.chord.inexact"] = getattr(work, "inexact", 0)
    metrics["oracle.chord.max_rel_err"] = getattr(work, "worst", 0.0)
    defects = defect_notes(notes)
    metrics["oracle.grazing_false_pass"] = sum(
        v for k, v in defects.items() if k.startswith("grazing_chord."))
    metrics["oracle.known_defects"] = sum(defects.values())

    module, reason = compiled.build(str(SRC / "stiffgeo" / "_fastkernels.c"),
                                    str(build_dir()))
    metrics["kernels.compiled.available"] = int(module is not None)
    replay = {"transport_segment.busy_ms": 0.0, "h_geodesic_sample.busy_ms": 0.0,
              "max_abs_dev": 0.0, "replayed_calls": 0, "replay_pure_ms": 0.0}
    if module is None:
        notes.append(f"compiled backend unavailable: {reason}")
    else:
        replay.update(compiled.replay(module, tracer.recorded))
    metrics.update({f"kernels.compiled.{k}": v for k, v in replay.items()})
    return metrics


def chord_accuracy(work, notes) -> None:
    if hasattr(work, "inexact"):
        notes.append(f"known defect: {work.inexact} chord answers off by more than "
                     f"{workloads.EXACT:g} (counted as failed only beyond "
                     f"{workloads.WRONG:g}); worst relative error {work.worst:.3g}")


def defect_notes(notes) -> dict:
    defects = workloads.known_defects()
    for name, present in defects.items():
        notes.append(f"known defect {name}: {'present' if present else 'gone'}")
    return defects


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def select(metrics: dict, specs) -> dict:
    """The metrics BENCHMARK.json names, each with its unit."""
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
            for s in specs}


def main(argv=None) -> int:
    args = _args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    os.makedirs(build_dir(), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build_dir())
    tally, notes = Tally(), []
    calibration = [harness.calibration_ms()]
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, args.seconds, scratch,
                             tally, notes)
            chosen = select(metrics, spec["per_layer"])
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, scratch,
                                 tally, notes)
            chosen = select(metrics, spec["end_to_end"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    calibration.append(harness.calibration_ms())

    meta = harness.metadata(str(ROOT), workload=args.workload, seed=args.seed,
                            seconds=args.seconds, trace=args.trace,
                            backend=kernels.BACKEND,
                            calibration_ms=[round(c, 3) for c in calibration])
    print("# meta " + json.dumps(meta))
    print(f"# {args.workload}: {tally.attempted} checked, {tally.failed} failed "
          f"(failed_ratio {tally.failed / max(tally.attempted, 1):.6g})")
    for note in notes:
        print(f"# {note}")
    for problem in tally.problems:
        print(f"# failed: {problem}")
    for key, val in chosen.items():
        print(f"#   {key} = {val['value']:.6g} {val['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": chosen}))
    return 0

