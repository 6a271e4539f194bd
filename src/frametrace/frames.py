"""Coefficient operators, frame operators, dual vectors and the natural trace.

The analysis map of a window eta under a representation pi is (V_eta phi)(x) = <phi, pi(x) eta>, a |G| x d
matrix with rows indexed by group elements.  Admissibility of a pair (eta, psi) means V_psi^* V_eta = Id, and
the natural trace on the commuting algebra of any representation is matrix-trace/|G|.  The frame operator
S = V_eta^* V_eta is never inverted: the dual and the tight window come from the SVD of V_eta^*
(``numerics.frame_svds``, as on the Plancherel fibers), whose s^2 are the eigenvalues of S.

For left translation on l2(G), V_eta = R_eta^*, with R_f the right convolution by f, so V_psi^* V_eta = R_c
lies in the commuting algebra, with c = eta* * psi (``groups.star_convolve``), and S = R_(eta* * eta).  A
projection p = R_h is its element h = p delta_e alone: it acts as v -> v * h by that product, with no R_h.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotInvariant, NotInvertible
from .groups import FiniteGroup, GroupVector, Rep, convolution_operator, involution, star_convolve
from .numerics import (
    DEFAULT_TOL,
    PROJECTION_RANK_CUT,
    RANK_CUTOFF,
    as_vector,
    eig_hermitian,
    frame_svds,
    orthonormal_columns,
    within_tol,
)
from .reporting import CheckResult


@dataclass(frozen=True)
class CoefficientOperator:
    """Analysis operator V_eta of a window under a representation; its row ``identity`` is conj eta."""

    vector: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)  # |G| x dim
    identity: int


def coefficient_operator(rep: Rep, eta) -> CoefficientOperator:
    """Build V_eta; row x is the functional phi -> <phi, rep(x) eta>."""
    eta = as_vector(eta)
    if eta.shape[0] != rep.dim:
        raise DimensionMismatch(f"window length {eta.shape[0]} != rep dim {rep.dim}")
    orbit = np.einsum("xij,j->xi", rep.matrices, eta)
    return CoefficientOperator(vector=eta, matrix=orbit.conj(), identity=rep.group.identity)


def frame_operator(v: CoefficientOperator) -> np.ndarray:
    """S = V^* V, Hermitian positive semidefinite on the representation space."""
    s = v.matrix.conj().T @ v.matrix
    return 0.5 * (s + s.conj().T)


def is_frame_vector(v: CoefficientOperator) -> bool:
    """True iff the frame operator is invertible above the eigenvalue floor (``frame_svds`` of V^*)."""
    try:
        return bool(frame_svds([v.matrix.conj().T]))
    except NotInvertible:
        return False


def canonical_dual(v: CoefficientOperator) -> np.ndarray:
    """Minimal-norm dual window S^-1 eta = W diag(1/s) U^*[:, e] from the SVD V^* = W diag(s) U^*, whose
    column e is eta and whose s^2 are the eigenvalues of S = V^* V; raises NotInvertible for non-frames."""
    ((w, s, uh),) = frame_svds([v.matrix.conj().T])
    return w @ (uh[:, v.identity] / s)


def tighten(v: CoefficientOperator) -> np.ndarray:
    """Self-dual window S^-1/2 eta = W U^*[:, e], column e of the polar factor of V^*."""
    ((w, _, uh),) = frame_svds([v.matrix.conj().T])
    return w @ uh[:, v.identity]


def is_admissible_pair(rep: Rep, eta, psi, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check V_psi^* V_eta = Id and report the Frobenius residual."""
    v_eta, v_psi = coefficient_operator(rep, eta), coefficient_operator(rep, psi)
    residual = float(np.linalg.norm(v_psi.matrix.conj().T @ v_eta.matrix - np.eye(rep.dim)))
    return CheckResult(name="admissible_pair", residual=residual, tol=tol)


def natural_trace(t, group: FiniteGroup) -> complex:
    """The natural trace tr(T)/|G| on the commuting algebra pi(G)' of any representation pi of ``group``:
    V_psi^* V_eta = |G| E(psi eta^*) lies in pi(G)', E the group average, and <T eta, psi> = tr(T)/|G| for
    every T in pi(G)' exactly when it is Id.  ``t`` must be square."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"operator shape {t.shape} is not square")
    return complex(np.trace(t)) / group.order


@dataclass(frozen=True)
class InvariantProjection:
    """Orthogonal projection p on l2(G) commuting with left translation, stored as h = p delta_e:
    p is the right convolution R_h by a self-adjoint idempotent h = h * h = h* of the group algebra."""

    h: GroupVector

    def __post_init__(self):
        if not isinstance(self.h, GroupVector):
            raise TypeError(f"h must be the GroupVector p delta_e, not {type(self.h).__name__}")

    @property
    def group(self) -> FiniteGroup:
        return self.h.group

    def apply(self, v: np.ndarray) -> np.ndarray:
        """p v = R_h v = v * h, the product (v*)* * h of ``groups.star_convolve``, for the data of one
        vector or each column of a (|G|, k) array, in one gather of h; no dense R_h is built."""
        if v.shape[0] != self.group.order:  # v[inverses] would silently drop the extra rows
            raise DimensionMismatch(f"vector length {v.shape[0]} != group order {self.group.order}")
        return star_convolve(self.group, v[self.group.inverses].conj(), self.h.data)

    def validate(self, tol: float = DEFAULT_TOL, ph: np.ndarray | None = None) -> None:
        """Check h * h = h and h = h* in O(|G|^2), reading p h = h * h from ``ph`` when the caller has
        it.  ||R_f||_F = sqrt(|G|) ||f||_2, so each residual and the scale are those of ||p p - p||_F,
        ||p - p*||_F and ||p||_F."""
        h, root = self.h.data, np.sqrt(self.group.order)
        scale = root * np.linalg.norm(h)
        if not within_tol(root * np.linalg.norm((self.apply(h) if ph is None else ph) - h), tol, scale):
            raise NotInvariant("projection is not idempotent")
        if not within_tol(root * np.linalg.norm(h - involution(self.h).data), tol, scale):
            raise NotInvariant("projection is not Hermitian")

    def rank(self) -> int:
        return self.range_basis().shape[1]

    def range_basis(self) -> np.ndarray:
        """Orthonormal columns spanning range(p): the eigenvectors of R_h above ``PROJECTION_RANK_CUT``."""
        dec = eig_hermitian(convolution_operator(self.h))
        return dec.eigenvectors[:, dec.eigenvalues > PROJECTION_RANK_CUT]


def projection_from_spanning(group: FiniteGroup, vectors) -> InvariantProjection:
    """Projection onto the span of the left-translation orbits of ``vectors`` in l2(G).

    Column x of the orbit block R_v = V_v^* is lambda(x) v.
    """
    cols = [convolution_operator(GroupVector(group, v)) for v in vectors]
    q = orthonormal_columns(np.hstack(cols)) if cols else np.zeros((group.order, 0), dtype=complex)
    return InvariantProjection(GroupVector(group, q @ q[group.identity].conj()))  # (q q*) delta_e


def admissibility_defect(p: InvariantProjection, eta, psi, projected: np.ndarray | None = None) -> np.ndarray:
    """The function d = c - h on G with V_psi^* V_eta - p = R_d, for eta, psi projected to range(p).

    R_f is right convolution, entry [x, y] = f(y^-1 x).  Both operators commute with left
    translation, so V_psi^* V_eta = R_c with c = eta* * psi, and p = R_h with h = p delta_e.
    O(|G|^2), with no compression to range(p) and no dense R_h.  ``projected``, when the caller has
    it, is p [eta, psi] as a (|G|, 2) array (``InvariantProjection.apply`` of both columns).
    """
    if projected is None:
        projected = p.apply(np.column_stack([as_vector(eta), as_vector(psi)]))  # one stacked p v
    return star_convolve(p.group, projected[:, 0], projected[:, 1]) - p.h.data  # c - h


def admissible_check(group: FiniteGroup, d: np.ndarray, tol: float) -> CheckResult:
    """The admissible_pair check of the defect d: residual ||R_d||_F = sqrt(|G|) ||d||_2."""
    residual = float(np.sqrt(group.order) * np.linalg.norm(d))
    return CheckResult(name="admissible_pair", residual=residual, tol=tol)


def admissible_vector_for_projection(p: InvariantProjection, tol: float = DEFAULT_TOL) -> GroupVector:
    """Admissible vector for the restriction of left translation to range(p): v = p h* = h* * h
    for h = p delta_e, which is h itself when h * h = h = h*; it satisfies V_v^* V_v = R_(v* * v) = p."""
    p.validate(tol=tol)
    return GroupVector(p.group, star_convolve(p.group, p.h.data, p.h.data))


def trace_of_projection(p: InvariantProjection) -> float:
    """Natural trace tau(R_h) = h(e) of an invariant projection; equals ||v||^2 for its admissible vector."""
    return float(p.h.data[p.group.identity].real)


def dual_null_space(rep: Rep, eta) -> np.ndarray:
    """Orthonormal basis (columns) of W = {w : V_w^* V_eta = 0}.

    The difference of any two dual vectors of eta lies in W, and the
    canonical dual is orthogonal to it.  W is the null space of the d^2 x d map
    w -> vec(V_w^* V_eta), entry [(i, j), k] = sum_x rep(x)[i, k] conj (rep(x) eta)_j, from one thin SVD.
    """
    v_eta = coefficient_operator(rep, eta).matrix  # row x: conj rep(x) eta
    a = np.einsum("xik,xj->ijk", rep.matrices, v_eta).reshape(rep.dim ** 2, rep.dim)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(rep.dim, dtype=complex)
    rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    return vh[rank:].conj().T
