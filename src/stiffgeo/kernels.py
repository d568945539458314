"""Integrator backend selection.

The compiled extension (_fastkernels, built from the hand-written
_fastkernels.c when a C compiler is present at install time) is preferred
when it imported cleanly; the pure-Python scalar reference (_refkernels) is
the fallback and is always available for cross-checking.  Both accept the
same inputs and give bit-identical results.  Both integrate with Hairer's
Dormand-Prince 8(5,3) pair (DOP853).  h_geodesic_sample integrates its whole
grid in one sweep and reads the samples off DOP853's 7th-order dense output,
so its steps do not depend on the number of samples.  The err returned with
every result (a result's est_error) is the sum over accepted steps of the
largest component of the 5th-order error estimate, scaled like the step's
error norm by err5 / sqrt(err5^2 + 0.01 err3^2) (see _refkernels._drive).
Set STIFFGEO_PURE=1 to force the reference backend.
"""

from __future__ import annotations

import os

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

# A library tol asks the kernel for rtol = atol = tol * TOL_SCALE.  DOP853's
# error grows in proportion to this constant.  At tol / 100 it lands closer to
# the closed forms than the Dormand-Prince 5(4) pair it replaced did at tol, on
# rays, arcs and full turns alike (tests/test_transport.py pins the old pair's
# worst values; at tol / 30 the worst full turn was 1.1e-10 against 8.0e-11),
# and it still evaluates the right-hand side 1.5-2.1 times less often.
TOL_SCALE = 0.01

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

