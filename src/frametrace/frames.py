"""Coefficient operators, frame operators, dual vectors and the natural trace.

The analysis map of a window eta under a representation pi is
(V_eta phi)(x) = <phi, pi(x) eta>, a |G| x d matrix with rows indexed by group
elements.  Admissibility of a pair (eta, psi) means V_psi^* V_eta = Id, and
the natural trace on the right group von Neumann algebra is matrix-trace/|G|.

For left translation on l2(G), V_eta = R_eta^*, with R_f the right convolution
by f, so V_psi^* V_eta = R_c lies in the commuting algebra, with c = eta* * psi
(``groups.star_convolve``), and the frame operator is S = R_(eta* * eta).  An invariant projection
p = R_h is its element h = p delta_e alone: it acts as v -> v * h by the same product, with no R_h.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvariantViolated, NotInvertible
from .groups import FiniteGroup, GroupVector, Rep, convolution_operator, involution, star_convolve
from .numerics import (
    DEFAULT_TOL,
    PROJECTION_RANK_CUT,
    RANK_CUTOFF,
    _psd_spectrum,
    as_vector,
    eig_hermitian,
    inv_psd,
    inv_sqrt_psd,
    orthonormal_columns,
    within_tol,
)
from .reporting import CheckResult


@dataclass(frozen=True)
class CoefficientOperator:
    """Analysis operator V_eta of a window under a representation."""

    vector: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)  # |G| x dim


def coefficient_operator(rep: Rep, eta) -> CoefficientOperator:
    """Build V_eta; row x is the functional phi -> <phi, rep(x) eta>."""
    eta = as_vector(eta)
    if eta.shape[0] != rep.dim:
        raise DimensionMismatch(f"window length {eta.shape[0]} != rep dim {rep.dim}")
    orbit = np.einsum("xij,j->xi", rep.matrices, eta)
    return CoefficientOperator(vector=eta, matrix=orbit.conj())


def frame_operator(v: CoefficientOperator) -> np.ndarray:
    """S = V^* V, Hermitian positive semidefinite on the representation space."""
    s = v.matrix.conj().T @ v.matrix
    return 0.5 * (s + s.conj().T)


def is_frame_vector(v: CoefficientOperator) -> bool:
    """True iff the frame operator is invertible above the eigenvalue floor."""
    try:
        _psd_spectrum(frame_operator(v))
    except NotInvertible:
        return False
    return True


def canonical_dual(v: CoefficientOperator) -> np.ndarray:
    """Minimal-norm dual window S^-1 eta; raises NotInvertible for non-frames."""
    return inv_psd(frame_operator(v)) @ v.vector


def tighten(v: CoefficientOperator) -> np.ndarray:
    """Self-dual window S^-1/2 eta."""
    return inv_sqrt_psd(frame_operator(v)) @ v.vector


def is_admissible_pair(rep: Rep, eta, psi, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check V_psi^* V_eta = Id and report the Frobenius residual."""
    v_eta = coefficient_operator(rep, eta)
    v_psi = coefficient_operator(rep, psi)
    residual = float(
        np.linalg.norm(v_psi.matrix.conj().T @ v_eta.matrix - np.eye(rep.dim))
    )
    return CheckResult(name="admissible_pair", residual=residual, tol=tol)


def natural_trace(t, group: FiniteGroup) -> complex:
    """The natural trace on VN_r(G): matrix trace divided by |G|."""
    t = np.asarray(t, dtype=complex)
    if t.shape != (group.order, group.order):
        raise DimensionMismatch(
            f"operator shape {t.shape} does not act on l2 of a group of order {group.order}"
        )
    return complex(np.trace(t)) / group.order


@dataclass(frozen=True)
class InvariantProjection:
    """Orthogonal projection p on l2(G) commuting with left translation, stored as h = p delta_e:
    p is the right convolution R_h by a self-adjoint idempotent h = h * h = h* of the group algebra."""

    h: GroupVector
    #: Orthonormal columns spanning range(R_h), when the builder already has them.
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)

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

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Check h * h = h and h = h* in O(|G|^2).  ||R_f||_F = sqrt(|G|) ||f||_2, so each residual
        and the scale are those of ||p p - p||_F, ||p - p*||_F and ||p||_F."""
        h, root = self.h.data, np.sqrt(self.group.order)
        scale = root * np.linalg.norm(h)
        if not within_tol(root * np.linalg.norm(self.apply(h) - h), tol, scale):
            raise InvariantViolated("projection is not idempotent")
        if not within_tol(root * np.linalg.norm(h - involution(self.h).data), tol, scale):
            raise InvariantViolated("projection is not Hermitian")

    def rank(self) -> int:
        return self.range_basis().shape[1]

    def range_basis(self) -> np.ndarray:
        """The carried basis; without one, the eigenvectors of R_h above ``PROJECTION_RANK_CUT``."""
        if self.basis is not None:
            return self.basis
        dec = eig_hermitian(convolution_operator(self.h))
        return dec.eigenvectors[:, dec.eigenvalues > PROJECTION_RANK_CUT]


def projection_from_spanning(group: FiniteGroup, vectors) -> InvariantProjection:
    """Projection onto the span of the left-translation orbits of ``vectors`` in l2(G).

    Column x of the orbit block R_v = V_v^* is lambda(x) v.
    """
    cols = [convolution_operator(GroupVector(group, v)) for v in vectors]
    q = orthonormal_columns(np.hstack(cols)) if cols else np.zeros((group.order, 0), dtype=complex)
    return InvariantProjection(GroupVector(group, q @ q[group.identity].conj()), q)  # (q q*) delta_e


def admissibility_defect(p: InvariantProjection, eta, psi) -> np.ndarray:
    """The function d = c - h on G with V_psi^* V_eta - p = R_d, for eta, psi projected to range(p).

    R_f is right convolution, entry [x, y] = f(y^-1 x).  Both operators commute with left
    translation, so V_psi^* V_eta = R_c with c = eta* * psi, and p = R_h with h = p delta_e.
    O(|G|^2), with no compression to range(p) and no dense R_h.
    """
    eta, psi = p.apply(np.column_stack([as_vector(eta), as_vector(psi)])).T  # one stacked p v
    return star_convolve(p.group, eta, psi) - p.h.data  # c - h


def admissible_check(group: FiniteGroup, d: np.ndarray, tol: float) -> CheckResult:
    """The admissible_pair check of the defect d: residual ||R_d||_F = sqrt(|G|) ||d||_2."""
    residual = float(np.sqrt(group.order) * np.linalg.norm(d))
    return CheckResult(name="admissible_pair", residual=residual, tol=tol)


def admissible_vector_for_projection(
    p: InvariantProjection, tol: float = DEFAULT_TOL
) -> GroupVector:
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
    canonical dual is orthogonal to it.
    """
    v_eta = coefficient_operator(rep, eta).matrix
    d = rep.dim
    cols = []
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        v_j = coefficient_operator(rep, e).matrix
        cols.append((v_j.conj().T @ v_eta).reshape(-1))
    a = np.column_stack(cols)  # maps w -> vec(V_w^* V_eta)
    _, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(d, dtype=complex)
    rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    return vh[rank:].conj().T
