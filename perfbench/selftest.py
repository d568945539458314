"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one second end to end and traced, and checks that
each run prints every metric BENCHMARK.json names, with its unit, and finds
every answer right.  Then it skews the matrices transport_ray returns by one
part in a million and checks that the wrong answers are counted as failed,
and that run.py refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and this directory.  Takes about a minute.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench  # noqa: E402
from stiffgeo import transport  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = bench.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)])
    expect(rc == 0, f"{workload} trace={trace} exited {rc}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for workload in bench.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(workload, trace)
            tag = f"{workload} trace={trace}"
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: {res['failed']} of {res['attempted']} failed")
            expect([*res["metrics"]] == [m["name"] for m in spec[key]],
                   f"{tag}: metric names differ from BENCHMARK.json")
            for m in spec[key]:
                got = res["metrics"][m["name"]]
                expect(got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{tag}: {m['name']} = {got}")
            print(f"selftest: {tag} ok ({res['attempted']} checked)")

    original = transport.transport_ray

    def skewed(*args, **kwargs):
        tm = original(*args, **kwargs)
        return dataclasses.replace(tm, matrix=tm.matrix * (1.0 + 1e-6))

    transport.transport_ray = skewed
    try:
        res = run("transport-mix", 0)
    finally:
        transport.transport_ray = original
    expect(res["failed"] > 0 and not res["correct"],
           "a skewed transport_ray answer was not counted as failed")
    print(f"selftest: perturbed answers counted ({res['failed']} of "
          f"{res['attempted']} failed)")

    bare = bench.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(spec["command"] + ["--workload", "transport-mix",
                                                 "--seed", "1", "--seconds", "1",
                                                 "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    print(f"selftest: bare directory refused (exit {done.returncode})")
    print("selftest: ok")


if __name__ == "__main__":
    main()
