"""Integrator backend selection.

The compiled extension (_fastkernels, built from the hand-written
_fastkernels.c when a C compiler is present at install time) is preferred
when it imported cleanly; the pure-Python scalar reference (_refkernels) is
the fallback and is always available for cross-checking.  Both accept the
same inputs and give bit-identical results.  h_geodesic_sample integrates
its whole grid in one sweep and reads the samples off the Dormand-Prince
dense output, so its steps do not depend on the number of samples.  Set
STIFFGEO_PURE=1 to force the reference backend.
"""

from __future__ import annotations

import os

import numpy as np

from . import _refkernels as reference
from .errors import DomainError

_impl = reference
if os.environ.get("STIFFGEO_PURE", "").strip() in ("", "0"):
    try:
        from . import _fastkernels as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = reference

BACKEND = _impl.BACKEND

STATUS_OK = reference.STATUS_OK
STATUS_MAX_STEPS = reference.STATUS_MAX_STEPS
STATUS_UNDERFLOW = reference.STATUS_UNDERFLOW
STATUS_BOUNDARY = reference.STATUS_BOUNDARY

PATH_LINE = reference.PATH_LINE
PATH_TRIG = reference.PATH_TRIG
PATH_HYP = reference.PATH_HYP

transport_segment = _impl.transport_segment
h_geodesic_sample = _impl.h_geodesic_sample


def raise_for_status(status, context=""):
    """Turn a kernel status code into an exception (no-op on STATUS_OK)."""
    where = f" ({context})" if context else ""
    if status == STATUS_OK:
        return
    if status == STATUS_BOUNDARY:
        raise DomainError(f"path left the domain: psi passed through zero{where}")
    if status == STATUS_UNDERFLOW:
        raise RuntimeError(f"step size underflow in adaptive integrator{where}")
    raise RuntimeError(f"adaptive integrator exhausted its step budget{where}")


def integrate_adaptive(f, t0, t1, y0, rtol=1e-10, atol=1e-10, max_steps=10_000_000):
    """Adaptive RK45 for an arbitrary Python right-hand side.

    Used for user-supplied parametric paths where the closed path kinds do not
    apply; the hot built-in paths go through transport_segment instead.  f
    takes and returns arrays shaped like y0; it may raise
    reference._BoundaryHit, which ends the sweep with a DomainError.
    Returns (y, err_accum, steps); raises on non-OK status.
    """
    y0 = np.asarray(y0, dtype=float)

    def rhs(t, y):
        return np.asarray(f(t, np.reshape(y, y0.shape)), dtype=float).ravel().tolist()

    y, err, steps, status = reference._drive(
        rhs, float(t0), float(t1), y0.ravel().tolist(), rtol, atol, max_steps)
    raise_for_status(status, "generic path")
    return np.reshape(y, y0.shape), err, steps
