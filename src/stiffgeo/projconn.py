"""Projectively flattened symmetric connections and their quadratic potentials.

The connections handled here have Christoffel data

    Gamma(u, v) = a(v) u + a(u) v

for a 1-form a, the associated form.  Such a connection is projectively flat;
all of its invariants are algebraic in a and its first derivatives:

    R_ijk^l  = d_il (a_j a_k - D_j a_k) - d_jl (a_i a_k - D_i a_k)
               + d_kl (D_i a_j - D_j a_i)
    Ric_jk   = (d-1) a_j a_k + D_k a_j - d D_j a_k

with D_i = d/dx_i and d_il the Kronecker delta.  When a = -d(psi)/psi for a
potential psi these reduce to R_ijk^l = (d_il Hess_jk - d_jl Hess_ik)/psi and
Ric = (d-1) Hess(psi)/psi.  The stiff case is psi quadratic with Hessian
K * diag(eps), handled exactly throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError
from .pseudospace import AffineMap, Signature

__all__ = [
    "AssociatedForm",
    "QuadraticPotential",
    "QuadraticFunction",
    "ProjectiveMap",
    "IncompressibilityReport",
    "form_from_potential",
    "christoffel",
    "curvature",
    "curvature_from_potential",
    "ricci",
    "incompressibility_report",
    "pushforward_affine",
    "pushforward_projective",
    "restrict",
    "is_flat",
]

MAX_DIM = 16  # dense d^4 curvature arrays stay cheap up to here

# central difference steps: first derivatives, and the nested second pass
FD_STEP_1 = 1e-6
FD_STEP_2 = 1e-4


def _check_dim(d: int):
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds supported maximum {MAX_DIM}")


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                step: float = FD_STEP_1) -> np.ndarray:
    """Central-difference Jacobian J[i, j] = D_i fn_j with per-coordinate steps."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    rows = []
    for i in range(d):
        h = step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        rows.append((np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * h))
    return np.array(rows)


@dataclass
class AssociatedForm:
    """The 1-form a of a connection Gamma(u,v) = a(v)u + a(u)v in one chart.

    evaluate(x) returns the component vector (a_1, ..., a_d); jac, when given,
    returns the matrix J[i, j] = D_i a_j, otherwise central differences are
    used.  chart records which coordinates the components refer to
    ("canonical" for an orthonormal chart of the signature, "eprime" for the
    null coordinates y = (x1+x2, x1-x2) used by the 2d weak constructions).
    """

    sig: Signature
    evaluate: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    chart: str = "canonical"

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.evaluate(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=float)
        return fd_jacobian(self.__call__, x)


@dataclass(frozen=True)
class QuadraticPotential:
    """psi(x) = (K/2) q(x) + lin . x + const, the stiff potential class.

    The Hessian is K * diag(eps) by construction.  lin holds plain coordinate
    coefficients (not a q-dual vector).
    """

    sig: Signature
    K: float
    lin: np.ndarray
    const: float

    def __post_init__(self):
        lin = np.asarray(self.lin, dtype=float)
        if lin.shape != (self.sig.d,):
            raise ValueError("linear coefficient length must match dimension")
        object.__setattr__(self, "lin", lin)

    @classmethod
    def canonical(cls, sig: Signature, lam: float) -> "QuadraticPotential":
        """psi = q + lambda, the model potential (K = 2)."""
        return cls(sig, 2.0, np.zeros(sig.d), lam)

    def psi(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * self.K * self.sig.q(x) + float(np.dot(self.lin, x)) + self.const

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.K * self.sig.eps * x + self.lin

    def hessian(self) -> np.ndarray:
        return self.K * np.diag(self.sig.eps)

    def _magnitude(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return (0.5 * abs(self.K) * float(np.dot(np.abs(x), np.abs(x)))
                + float(np.dot(np.abs(self.lin), np.abs(x))) + abs(self.const))

    def psi_checked(self, x) -> float:
        """psi(x), raising DomainError on the zero locus (instead of NaN later)."""
        v = self.psi(x)
        if abs(v) <= 1e-14 * max(1.0, self._magnitude(x)):
            raise DomainError(f"potential vanishes at {np.asarray(x).tolist()}")
        return v

    def to_json_dict(self) -> dict:
        return {
            "signature": {"p": self.sig.p, "m": self.sig.m},
            "K": self.K,
            "lin": [float(v) for v in self.lin],
            "const": self.const,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "QuadraticPotential":
        sig = Signature(int(obj["signature"]["p"]), int(obj["signature"]["m"]))
        return cls(sig, float(obj["K"]), np.asarray(obj["lin"], dtype=float),
                   float(obj["const"]))


@dataclass(frozen=True)
class QuadraticFunction:
    """A general quadratic s^T Q s + lin . s + const on coordinates with a Gram matrix.

    Used for restrictions to affine subspaces, where the induced scalar product
    (gram = B^T diag(eps) B for the basis B) need not be orthonormal, and for
    quadratics that fall outside the stiff class.
    """

    Q: np.ndarray
    lin: np.ndarray
    const: float
    gram: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        lin = np.asarray(self.lin, dtype=float)
        gram = np.asarray(self.gram, dtype=float)
        k = Q.shape[0]
        if Q.shape != (k, k) or lin.shape != (k,) or gram.shape != (k, k):
            raise ValueError("inconsistent shapes")
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "gram", 0.5 * (gram + gram.T))

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def psi(self, s) -> float:
        s = np.asarray(s, dtype=float)
        return float(s @ self.Q @ s + np.dot(self.lin, s) + self.const)


@dataclass(frozen=True)
class ProjectiveMap:
    """x |-> (A x + b) / (c . x + c0), stored as a homogeneous matrix."""

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 2:
            raise ValueError("need a square homogeneous matrix of size d+1")
        if abs(np.linalg.det(H)) < 1e-12 * max(1.0, np.abs(H).max() ** (H.shape[0])):
            raise ValueError("homogeneous matrix is singular")
        object.__setattr__(self, "H", H)

    @classmethod
    def from_parts(cls, A, b, c, c0) -> "ProjectiveMap":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        d = A.shape[0]
        H = np.zeros((d + 1, d + 1))
        H[:d, :d] = A
        H[:d, d] = np.asarray(b, dtype=float)
        H[d, :d] = np.asarray(c, dtype=float)
        H[d, d] = c0
        return cls(H)

    @property
    def d(self) -> int:
        return self.H.shape[0] - 1

    def denominator(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.H[self.d, : self.d] @ x + self.H[self.d, self.d])

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        den = self.denominator(x)
        if abs(den) <= 1e-14 * max(1.0, float(np.abs(x).max())):
            raise DomainError("projective map evaluated on its singular hyperplane")
        d = self.d
        return (self.H[:d, :d] @ x + self.H[:d, d]) / den

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap(np.linalg.inv(self.H))


def form_from_potential(P: QuadraticPotential) -> AssociatedForm:
    """a = -d(psi)/psi with exact Jacobian D_i a_j = -H_ij/psi + g_i g_j / psi^2."""
    H = P.hessian()

    def ev(x):
        psi = P.psi_checked(x)
        return -P.grad(x) / psi

    def jac(x):
        psi = P.psi_checked(x)
        g = P.grad(x)
        return -H / psi + np.outer(g, g) / (psi * psi)

    return AssociatedForm(P.sig, ev, jac)


def christoffel(a: AssociatedForm, x) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The bilinear map (u, v) |-> a_x(v) u + a_x(u) v at the point x."""
    ax = a(x)

    def gamma(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(np.dot(ax, v)) * u + float(np.dot(ax, u)) * v

    return gamma


def curvature(a: AssociatedForm, x) -> np.ndarray:
    """Curvature entries R[i, j, k, l] = R_ijk^l at x.

    Convention: the holonomy generator in the plane (i, j) has matrix entries
    M(i,j)[l, k] = -R_ijk^l.
    """
    d = a.sig.d
    _check_dim(d)
    av = a(x)
    J = a.jacobian(x)
    I = np.eye(d)
    B = np.outer(av, av) - J          # B[j, k] = a_j a_k - D_j a_k
    antis = J - J.T                   # antis[i, j] = D_i a_j - D_j a_i
    return (np.einsum("il,jk->ijkl", I, B)
            - np.einsum("jl,ik->ijkl", I, B)
            + np.einsum("kl,ij->ijkl", I, antis))


def curvature_from_potential(P: QuadraticPotential, x) -> np.ndarray:
    """R_ijk^l = (d_il H_jk - d_jl H_ik)/psi, exact for the quadratic class."""
    d = P.sig.d
    _check_dim(d)
    psi = P.psi_checked(x)
    H = P.hessian() / psi
    I = np.eye(d)
    return np.einsum("il,jk->ijkl", I, H) - np.einsum("jl,ik->ijkl", I, H)


def ricci(a: AssociatedForm, x) -> np.ndarray:
    """Ric[j, k] = (d-1) a_j a_k + D_k a_j - d D_j a_k (not symmetric in general)."""
    d = a.sig.d
    av = a(x)
    J = a.jacobian(x)
    return (d - 1) * np.outer(av, av) + J.T - d * J


@dataclass(frozen=True)
class IncompressibilityReport:
    closed: bool
    max_asymmetry: float
    probes: int


def incompressibility_report(a: AssociatedForm, probes: Sequence[np.ndarray],
                             tol: float = 1e-6) -> IncompressibilityReport:
    """Check closedness of a (equivalently, existence of preserved volume forms).

    The trace Sum_k R_ijk^k equals (d+1)(D_i a_j - D_j a_i), so closedness is
    exactly the vanishing of the curvature trace and of Ric's antisymmetric
    part.
    """
    worst = 0.0
    n = 0
    for x in probes:
        J = a.jacobian(x)
        worst = max(worst, float(np.abs(J - J.T).max()))
        n += 1
    return IncompressibilityReport(worst <= tol, worst, n)


def pushforward_affine(obj: Union[AssociatedForm, QuadraticPotential],
                       A: AffineMap) -> Union[AssociatedForm, QuadraticPotential]:
    """Transport a form or potential to the chart y = A(x).

    Forms: a~ at A(x) is a at x composed with L^-1.  Potentials: psi~ = psi o A^-1,
    which stays in the quadratic class exactly when L is a similarity or
    negalitude of the signature.
    """
    Ainv = A.inverse()
    M = Ainv.linear
    if isinstance(obj, AssociatedForm):
        base = obj

        def ev(y):
            return M.T @ base(Ainv(y))

        def jac(y):
            return M.T @ base.jacobian(Ainv(y)) @ M

        return AssociatedForm(base.sig, ev, jac, chart=base.chart)

    P = obj
    G = np.diag(P.sig.eps)
    Hnew = M.T @ P.hessian() @ M
    Knew = float(Hnew[0, 0] * P.sig.eps[0])
    if np.abs(Hnew - Knew * G).max() > 1e-9 * max(1.0, np.abs(Hnew).max()):
        raise ValueError("affine map does not preserve the quadratic potential class")
    m = Ainv.translation
    lin_new = M.T @ (P.K * (P.sig.eps * m) + P.lin)
    c_new = P.psi(m)
    return QuadraticPotential(P.sig, Knew, lin_new, c_new)


def pushforward_projective(P: QuadraticPotential, F: AffineMap,
                           C: tuple) -> Callable[[np.ndarray], float]:
    """Potential of the image connection under T(x) = F(x) / C(x).

    C = (c, c0) encodes the affine denominator c . x + c0.  The image
    potential satisfies psi~(T(x)) = psi(x) / C(x); it is returned as a plain
    function evaluated through the inverse projective map.
    """
    cvec, c0 = np.asarray(C[0], dtype=float), float(C[1])
    T = ProjectiveMap.from_parts(F.linear, F.translation, cvec, c0)
    Tinv = T.inverse()

    def psinew(y) -> float:
        x = Tinv(np.asarray(y, dtype=float))
        den = float(np.dot(cvec, x) + c0)
        if abs(den) <= 1e-14 * max(1.0, float(np.abs(x).max())):
            raise DomainError("denominator vanishes at the preimage")
        return P.psi(x) / den

    psinew.projective_map = T  # type: ignore[attr-defined]
    return psinew


def restrict(obj: Union[AssociatedForm, QuadraticPotential], base_point,
             basis) -> Union[AssociatedForm, QuadraticFunction]:
    """Restrict to the affine subspace base_point + span(basis columns).

    Potentials restrict to a QuadraticFunction in subspace coordinates s
    (degree may drop; the subspace Gram matrix is recorded so stiffness of the
    restriction stays decidable).  Forms pull back to B^T a with Jacobian
    B^T J B.
    """
    x0 = np.asarray(base_point, dtype=float)
    B = np.atleast_2d(np.asarray(basis, dtype=float))
    if B.shape[0] == len(x0) and B.ndim == 2:
        pass
    else:
        B = B.T
    if B.shape[0] != len(x0):
        raise ValueError("basis columns must live in the ambient space")

    if isinstance(obj, QuadraticPotential):
        G = np.diag(obj.sig.eps)
        gram = B.T @ G @ B
        Q = 0.5 * obj.K * gram
        lin = B.T @ (obj.K * (G @ x0) + obj.lin)
        return QuadraticFunction(Q, lin, obj.psi(x0), gram)

    a = obj

    def ev(s):
        s = np.asarray(s, dtype=float)
        return B.T @ a(x0 + B @ s)

    def jac(s):
        s = np.asarray(s, dtype=float)
        return B.T @ a.jacobian(x0 + B @ s) @ B

    sub_sig = Signature(B.shape[1], 0) if B.shape[1] > 0 else None
    return AssociatedForm(sub_sig, ev, jac, chart="restricted")


def is_flat(P: QuadraticPotential) -> bool:
    """Flat iff K = 0: curvature, Ricci and relative curvature all vanish together."""
    scale = max(1.0, float(np.abs(P.lin).max()) if P.lin.size else 0.0, abs(P.const))
    return abs(P.K) < 1e-12 * scale
