"""Commutant computation and traciality checks.

The commutant of a unitary representation is found as the fixed space of the
group average T -> (1/|G|) sum_x pi(x) T pi(x)^*, assembled as a Hermitian
matrix on vectorized operators and diagonalized once.  Tracial pairs are
pairs (eta, psi) with <T eta, psi> = tr(T) for every T in the commutant;
they coincide with admissible pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotInvariant, ReferencePairNotAdmissible
from .frames import InvariantProjection, is_admissible_pair, natural_trace
from .groups import FiniteGroup, Rep, delta, convolution_operator
from .numerics import DEFAULT_TOL, NULLSPACE_CUTOFF, orthonormal_columns, within_tol
from .reporting import CheckResult


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal (Frobenius) basis of the commutant of a family of unitaries."""

    dim: int
    elements: list = field(repr=False)
    rep: Rep | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def commutant_of_matrices(matrices) -> list:
    """Orthonormal basis of {T : T U = U T for every U in ``matrices``}.

    ``matrices`` must be unitary.  Solves the stacked commutation equations
    through the normal equations M = sum_x A_x^* A_x, which for unitary U
    collapse to 2 n (Id - avg) with avg the Hermitian group/family average
    acting on vectorized operators.
    """
    mats = np.asarray(matrices, dtype=complex)
    n, d, _ = mats.shape
    avg = np.zeros((d * d, d * d), dtype=complex)
    for x in range(n):
        avg += np.kron(mats[x], mats[x].conj())
    avg /= n
    m = 2.0 * n * (np.eye(d * d) - 0.5 * (avg + avg.conj().T))
    w, q = np.linalg.eigh(m)
    top = max(float(w[-1]), 1.0)
    keep = w <= NULLSPACE_CUTOFF * top
    return [q[:, j].reshape(d, d) for j in np.nonzero(keep)[0]]


def commutant_basis(rep: Rep) -> CommutantBasis:
    """Orthonormal basis of the commutant pi(G)' of a representation."""
    elems = commutant_of_matrices(rep.matrices)
    return CommutantBasis(dim=rep.dim, elements=elems, rep=rep)


def regular_commutant_basis(group: FiniteGroup) -> CommutantBasis:
    """Commutant of the left regular representation, known in closed form.

    The right convolution operators U_{delta_x} span VN_r(G) and are already
    Frobenius-orthogonal; normalizing by 1/sqrt(|G|) gives an orthonormal
    basis without solving any linear system.
    """
    scale = 1.0 / np.sqrt(group.order)
    elems = [
        scale * convolution_operator(delta(group, x))
        for x in group.elements()
    ]
    return CommutantBasis(dim=group.order, elements=elems)


def reduced_commutant(basis: CommutantBasis, p, tol: float = DEFAULT_TOL) -> CommutantBasis:
    """Compressions {p T p} of a commutant basis, re-orthonormalized.

    The matrix ``p`` (an invariant projection, whose dense R_h is built here, or
    a raw matrix) must commute with the representation the basis came from; the
    returned elements are full-space matrices supported on range(p).
    """
    pm = convolution_operator(p.h) if isinstance(p, InvariantProjection) else np.asarray(p, dtype=complex)
    if pm.shape != (basis.dim, basis.dim):
        raise DimensionMismatch("projection does not act on the basis space")
    if basis.rep is not None:
        for x in basis.rep.group.elements():
            u = basis.rep.matrices[x]
            if not within_tol(np.linalg.norm(u @ pm - pm @ u), tol, pm):
                raise NotInvariant("projection does not commute with the representation")
    compressed = [pm @ t @ pm for t in basis.elements]
    stacked = np.column_stack([t.reshape(-1) for t in compressed])
    q = orthonormal_columns(stacked, rel_cutoff=NULLSPACE_CUTOFF)
    elems = [q[:, j].reshape(basis.dim, basis.dim) for j in range(q.shape[1])]
    return CommutantBasis(dim=basis.dim, elements=elems, rep=basis.rep)


def is_tracial_pair(
    basis: CommutantBasis,
    group: FiniteGroup,
    eta,
    psi,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Check <T eta, psi> = tau(T) over a spanning set of the commutant on l2(G).

    tau is the natural trace :func:`natural_trace`.  The finite trace extends
    linearly to the whole algebra, so checking a linear spanning set is
    equivalent to checking positive elements.
    """
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    residual = 0.0
    for t in basis.elements:
        value = np.vdot(psi, t @ eta)  # <T eta, psi>
        residual = max(residual, abs(value - natural_trace(t, group)))
    return CheckResult(name="tracial_pair", residual=float(residual), tol=tol)


def tracial_check(group: FiniteGroup, d: np.ndarray, tol: float) -> CheckResult:
    """The tracial_pair check of the defect d = c - h of :func:`admissibility_defect`.

    Over the spanning set {p R_x p / sqrt(|G|)} of p VN_r(G) p, <p R_x p eta, psi> = conj c(x)
    and tau(p R_x p) = conj h(x), so the residual is max_x |d(x)| / sqrt(|G|).  The scale
    is that of :func:`regular_commutant_basis`; the set is not re-orthonormalised.
    """
    residual = float(np.max(np.abs(d)) / np.sqrt(group.order))
    return CheckResult(name="tracial_pair", residual=residual, tol=tol)


def generalized_biorthogonality(
    rep: Rep,
    generators,
    eta0,
    psi0,
    eta,
    psi,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Check <T_i eta, psi> = <T_i eta0, psi0> against a reference admissible pair.

    ``generators`` is any family spanning the commutant (a CommutantBasis or a
    plain list of matrices).  Raises ReferencePairNotAdmissible when the
    reference pair fails its own admissibility check.
    """
    ref = is_admissible_pair(rep, eta0, psi0, tol=tol)
    if not ref.passed:
        raise ReferencePairNotAdmissible(
            f"reference pair residual {ref.residual:.3e} exceeds tol {tol:.1e}"
        )
    eta0 = np.asarray(eta0, dtype=complex).reshape(-1)
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    residual = 0.0
    for t in generators:
        lhs = np.vdot(psi, t @ eta)
        rhs = np.vdot(psi0, t @ eta0)
        residual = max(residual, abs(lhs - rhs))
    return CheckResult(name="generalized_biorthogonality", residual=float(residual), tol=tol)
