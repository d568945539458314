"""Pseudo-Euclidean linear algebra.

A space of signature (p, m) is R^d, d = p + m, carrying the quadratic form

    q(x) = x_1^2 + ... + x_p^2 - x_{p+1}^2 - ... - x_d^2

with polarization x.y = sum_i eps_i x_i y_i, eps_i = +-1.  Affine maps are
classified by how their linear part L scales q: q(Lv) = c q(v) with c > 0 is a
similarity of ratio sqrt(c) (an isometry when c = 1), c < 0 a negalitude of
ratio sqrt(-c), anything else is not structure preserving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Signature",
    "AffineMap",
    "MapKind",
    "InfKind",
    "classify_affine_map",
    "inf_rotation_J",
    "infinitesimal_kind",
    "complete_orthonormal",
    "as_floats",
    "norm2",
]


def as_floats(x) -> list:
    """The vector x as a list of Python floats."""
    if type(x) is list:
        return [float(v) for v in x]
    if type(x) is not np.ndarray or x.dtype != np.float64:
        x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got an array of shape {x.shape}")
    return x.tolist()


def norm2(xs: list) -> float:
    """Euclidean x.x of a list of Python floats, summed as q_floats sums."""
    s = 0.0
    for v in xs:
        s += v * v
    return s


@dataclass(frozen=True)
class Signature:
    """Signature (p, m): p plus-directions then m minus-directions."""

    p: int
    m: int

    def __post_init__(self):
        if self.p < 0 or self.m < 0 or self.p + self.m == 0:
            raise ValueError(f"invalid signature ({self.p},{self.m})")

    @property
    def d(self) -> int:
        return self.p + self.m

    @cached_property
    def eps(self) -> np.ndarray:
        """Vector (eps_1, ..., eps_d) of diagonal signs."""
        e = np.ones(self.d)
        e[self.p:] = -1.0
        e.setflags(write=False)
        return e

    @cached_property
    def signs(self) -> tuple:
        """eps as a tuple of Python floats, for the scalar paths."""
        return (1.0,) * self.p + (-1.0,) * self.m

    def q(self, x) -> float:
        """Quadratic form q(x) = sum eps_i x_i^2."""
        return self.q_floats(as_floats(x))

    def dot(self, x, y) -> float:
        """Scalar product x.y = sum eps_i x_i y_i."""
        return self.dot_floats(as_floats(x), as_floats(y))

    def q_floats(self, xs: list) -> float:
        """q of a list of Python floats, summed left to right as np.dot sums
        short vectors; an overflow gives inf or NaN, with no warning."""
        signs = self.signs
        if len(xs) != len(signs):
            raise ValueError(f"vector of length {len(xs)} for signature {self}")
        s = 0.0
        for e, v in zip(signs, xs):
            s += e * (v * v)
        return s

    def dot_floats(self, xs: list, ys: list) -> float:
        """x.y of two lists of Python floats (see q_floats)."""
        signs = self.signs
        if not len(xs) == len(ys) == len(signs):
            raise ValueError(f"vectors of length {len(xs)} and {len(ys)} "
                             f"for signature {self}")
        s = 0.0
        for e, v, w in zip(signs, xs, ys):
            s += e * (v * w)
        return s

    def is_null(self, x, tol: float = 1e-12) -> bool:
        """Light cone membership, |q(x)| <= tol * max(1, |x|^2)."""
        x = np.asarray(x, dtype=float)
        return abs(self.q(x)) <= tol * max(1.0, float(np.dot(x, x)))

    def __str__(self):
        return f"({self.p},{self.m})"


@dataclass(frozen=True)
class AffineMap:
    """x |-> L x + t with L invertible."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.linear, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1] or t.shape != (L.shape[0],):
            raise ValueError("linear part must be square and match translation length")
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls, d: int) -> "AffineMap":
        return cls(np.eye(d), np.zeros(d))

    @classmethod
    def translation_by(cls, t) -> "AffineMap":
        t = np.asarray(t, dtype=float)
        return cls(np.eye(len(t)), t)

    @classmethod
    def scaling(cls, d: int, r: float) -> "AffineMap":
        return cls(np.eye(d) * r, np.zeros(d))

    @property
    def d(self) -> int:
        return self.linear.shape[0]

    def __call__(self, x) -> np.ndarray:
        return self.linear @ np.asarray(x, dtype=float) + self.translation

    def inverse(self) -> "AffineMap":
        Linv = np.linalg.inv(self.linear)
        return AffineMap(Linv, -Linv @ self.translation)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self . other)(x) = self(other(x))."""
        return AffineMap(self.linear @ other.linear,
                         self.linear @ other.translation + self.translation)


@dataclass(frozen=True)
class MapKind:
    """Classification of an affine map between pseudo-Euclidean spaces.

    kind is one of "isometry", "similarity", "negalitude", "other"; ratio is
    the positive similarity ratio r with q(Lv) = +-r^2 q(v) (None for
    "other"); c is the raw factor +-r^2.
    """

    kind: str
    ratio: Optional[float]
    c: Optional[float]


def _spanning_samples(d: int) -> list[np.ndarray]:
    """Basis vectors and pairwise sums; enough to pin a symmetric bilinear form."""
    samples = [np.eye(d)[i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            samples.append(np.eye(d)[i] + np.eye(d)[j])
    return samples


def classify_affine_map(sig_a: Signature, sig_b: Signature, f: AffineMap,
                        tol: float = 1e-9) -> MapKind:
    """Decide whether f is an isometry, similarity or negalitude.

    Tests q_b(L v) = c q_a(v) on basis vectors and pairwise sums, which
    determines the symmetric form q_b(L., L.) completely, so no other sample
    points are needed.  The translation part is irrelevant.
    """
    if sig_a.d != sig_b.d or f.d != sig_a.d:
        raise ValueError("dimension mismatch")
    L = f.linear
    scale = max(1.0, float(np.abs(L).max()) ** 2)
    if abs(np.linalg.det(L)) <= tol * scale:
        return MapKind("other", None, None)
    samples = _spanning_samples(sig_a.d)
    qa = np.array([sig_a.q(s) for s in samples])
    qb = np.array([sig_b.q(L @ s) for s in samples])
    # least squares fit of the single factor c, then exact verification
    c = float(np.dot(qa, qb) / np.dot(qa, qa))
    if np.max(np.abs(qb - c * qa)) > tol * scale:
        return MapKind("other", None, None)
    if abs(c - 1.0) <= tol * max(1.0, scale):
        return MapKind("isometry", 1.0, c)
    if c > 0:
        return MapKind("similarity", float(np.sqrt(c)), c)
    return MapKind("negalitude", float(np.sqrt(-c)), c)


def inf_rotation_J(sig: Signature, i: int, j: int) -> np.ndarray:
    """Infinitesimal rotation J(i,j) = eps_i e_j (x) e_i* - eps_j e_i (x) e_j*.

    Indices are 1-based.  Restricted to the (e_i, e_j) plane this is
    [[0, -eps_j], [eps_i, 0]].
    """
    d = sig.d
    if not (1 <= i <= d and 1 <= j <= d and i != j):
        raise ValueError("need distinct indices in 1..d")
    J = np.zeros((d, d))
    J[j - 1, i - 1] = sig.eps[i - 1]
    J[i - 1, j - 1] = -sig.eps[j - 1]
    return J


@dataclass(frozen=True)
class InfKind:
    """kind in {"inf_isometry", "inf_similarity", "other"}; s is the trace part."""

    kind: str
    s: Optional[float]


def infinitesimal_kind(sig: Signature, M, tol: float = 1e-9) -> InfKind:
    """Classify M as an infinitesimal similarity s*Id + A, I_{p,m} A antisymmetric.

    Infinitesimal isometries are the s = 0 case.  Tolerance is absolute on
    unit-scale input, scaled by max(1, |M|^2).
    """
    M = np.asarray(M, dtype=float)
    d = sig.d
    if M.shape != (d, d):
        raise ValueError("matrix shape does not match signature")
    scale = max(1.0, float(np.abs(M).max()) ** 2)
    s = float(np.trace(M)) / d
    A = M - s * np.eye(d)
    B = sig.eps[:, None] * A  # I_{p,m} A
    if np.max(np.abs(B + B.T)) > tol * scale:
        return InfKind("other", None)
    if abs(s) <= tol * scale:
        return InfKind("inf_isometry", 0.0)
    return InfKind("inf_similarity", s)


def complete_orthonormal(sig: Signature, cols: Sequence[np.ndarray],
                         tol: float = 1e-9) -> np.ndarray:
    """Extend q-orthonormal vectors to a full q-orthonormal basis (as columns).

    The given vectors must satisfy |q(v)| = 1 pairwise orthogonally; their span
    must be nondegenerate, which makes the q-orthogonal complement nondegenerate
    as well, so a greedy Gram-Schmidt over the canonical basis with pivoting on
    |q| always completes.
    """
    d = sig.d
    basis = [np.asarray(c, dtype=float) for c in cols]
    for v in basis:
        if abs(abs(sig.q(v)) - 1.0) > 1e-6:
            raise ValueError("seed vectors must be q-unit")
    while len(basis) < d:
        best, best_q = None, 0.0
        for k in range(d):
            w = np.eye(d)[k].copy()
            for b in basis:
                w = w - (sig.dot(w, b) / sig.q(b)) * b
            qw = sig.q(w)
            if abs(qw) > abs(best_q):
                best, best_q = w, qw
        if best is None or abs(best_q) <= tol:
            raise ValueError("cannot complete orthonormal basis (degenerate span)")
        basis.append(best / np.sqrt(abs(best_q)))
    return np.column_stack(basis)
