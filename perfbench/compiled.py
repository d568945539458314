"""The compiled kernel backend, built out of tree for the traced run only.

The tracked src/stiffgeo/_fastkernels.c is compiled with gcc into the
checkout's build directory (never into src/) and loaded from there under its
package name.  Kernel calls recorded by the tracer are then replayed on the
pure and the compiled backend, which gives the compiled kernel time and the
largest deviation between the two backends on the same inputs.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import time

import numpy as np

from stiffgeo import _refkernels

NAME = "stiffgeo._fastkernels"


def build(src_c: str, build_dir: str):
    """Compile src_c once per content hash; return (module, None) or (None, reason)."""
    if not os.path.isfile(src_c):
        return None, f"{os.path.basename(src_c)} is not in this checkout"
    gcc = shutil.which("gcc")
    if gcc is None:
        return None, "gcc is not installed"
    with open(src_c, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    out_dir = os.path.join(build_dir, f"fastkernels-{digest}")
    so = os.path.join(out_dir, "_fastkernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not os.path.isfile(so):
        os.makedirs(out_dir, exist_ok=True)
        tmp = so + ".tmp"
        cmd = [gcc, "-O3", "-shared", "-fPIC",
               "-I" + sysconfig.get_paths()["include"], "-I" + np.get_include(),
               "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION", src_c, "-o", tmp]
        # gcc's temporary files go to TMPDIR: keep them in the build directory
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, TMPDIR=out_dir))
        if done.returncode != 0:
            tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
            return None, f"gcc failed: {tail}"
        os.replace(tmp, so)
    loader = importlib.machinery.ExtensionFileLoader(NAME, so)
    spec = importlib.util.spec_from_file_location(NAME, so, loader=loader)
    module = importlib.util.module_from_spec(spec)
    try:
        loader.exec_module(module)
    except ImportError as exc:
        return None, f"cannot load the built module: {exc}"
    return module, None


def _replay(fn, calls):
    outs, busy = [], 0.0
    for args, kwargs in calls:
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        busy += time.perf_counter() - start
        outs.append(out)
    return outs, busy


def replay(module, recorded: dict) -> dict:
    """Replay recorded kernel calls on both backends.

    recorded maps "kernels.transport_segment" / "kernels.h_geodesic_sample"
    to lists of (args, kwargs).  Deviation is taken over calls that both
    backends finish with the same status and output shape.
    """
    out = {"replayed_calls": 0, "replay_pure_ms": 0.0, "max_abs_dev": 0.0}
    for name, calls in recorded.items():
        attr = name.split(".", 1)[1]
        fast, fast_busy = _replay(getattr(module, attr), calls)
        pure, pure_busy = _replay(getattr(_refkernels, attr), calls)
        out[f"{attr}.busy_ms"] = fast_busy * 1e3
        out["replay_pure_ms"] += pure_busy * 1e3
        out["replayed_calls"] += len(calls)
        for f, p in zip(fast, pure):
            if f[3] == p[3] and np.shape(f[0]) == np.shape(p[0]) and np.size(f[0]):
                dev = float(np.abs(np.asarray(f[0]) - np.asarray(p[0])).max())
                out["max_abs_dev"] = max(out["max_abs_dev"], dev)
    return out
