"""The README command-line examples print the same bytes as their goldens.

Each argv of perfbench/workloads.README_ARGV runs in-process through
cli.run, in a fresh directory, and its stdout and the CSV file it writes
(trace.csv, circle.csv) must match tests/golden/ byte for byte.  After a
deliberate output change, regenerate the goldens with

    PYTHONPATH=src python tests/test_readme_examples.py
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from stiffgeo import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN.parent.parent / "perfbench"))
from workloads import README_ARGV  # noqa: E402

CSV_FILES = ("trace.csv", "circle.csv")


def run_example(argv):
    """Exit code and {file name: bytes} of one example run in the current
    directory: its stdout, and each CSV file it wrote."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    outputs = {"stdout": out.getvalue().encode()}
    for name in CSV_FILES:
        if os.path.exists(name):
            outputs[name] = Path(name).read_bytes()
    return code, outputs


def _golden_name(verb, name):
    return f"{verb}.stdout" if name == "stdout" else name


@pytest.mark.parametrize("verb,argv", README_ARGV, ids=[verb for verb, _ in README_ARGV])
def test_readme_example_matches_golden(verb, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, outputs = run_example(argv)
    assert code == 0
    for name, data in outputs.items():
        assert data == (GOLDEN / _golden_name(verb, name)).read_bytes(), name
    # every CSV golden is written by the example that names it
    assert {n for n in outputs if n != "stdout"} == {n for n in CSV_FILES if n in argv}


def main():
    GOLDEN.mkdir(exist_ok=True)
    for verb, argv in README_ARGV:
        with tempfile.TemporaryDirectory() as where:
            cwd = os.getcwd()
            os.chdir(where)
            try:
                code, outputs = run_example(argv)
            finally:
                os.chdir(cwd)
        if code != 0:
            raise SystemExit(f"{verb} exited {code}")
        for name, data in outputs.items():
            (GOLDEN / _golden_name(verb, name)).write_bytes(data)


if __name__ == "__main__":
    main()
