"""Commutant computation and traciality checks.

The commutant of a unitary representation is the range of the group average
E(T) = (1/|G|) sum_x pi(x) T pi(x)^*, an orthogonal projection whose trace is
the commutant's dimension; a few random draws of E span it.  Tracial pairs are
pairs (eta, psi) with <T eta, psi> = tr(T)/|G| for every T in the commutant;
they coincide with admissible pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotAGroup, NotInvariant, ReferencePairNotAdmissible
from .frames import InvariantProjection, is_admissible_pair
from .groups import FiniteGroup, Rep, delta, convolution_operator
from .numerics import DEFAULT_TOL, RANK_CUTOFF, orthonormal_columns, within_tol
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
    """Orthonormal (Frobenius) basis of {T : T U = U T for every U in ``matrices``}.

    ``matrices`` must be a finite unitary group up to phases (a ``Rep``'s matrices, ``lattice_ops``).  The
    group average E(T) = (1/n) sum_U U T U^* is then an orthogonal projection onto the commutant, of trace
    k = (1/n) sum_U |tr U|^2, its dimension.  E of k + 4 complex Gaussian draws from a fixed seed spans its
    range, read off as the top k left singular vectors (the range finder of Halko, Martinsson and Tropp 2011):
    (k + 4) 2 n d^3 flops and no d^2 x d^2 matrix.  A family that is not such a group is refused with
    :class:`NotAGroup` when the same SVD finds its average's range larger than k: s[k] > ``RANK_CUTOFF`` s[0].
    """
    mats = np.asarray(matrices, dtype=complex)
    n, d, _ = mats.shape
    k = int(round(float(np.sum(np.abs(np.trace(mats, axis1=1, axis2=2)) ** 2)) / n))
    adjoints = mats.conj().transpose(0, 2, 1).reshape(n * d, d)  # U_1^*, ..., U_n^* stacked
    rng = np.random.default_rng(0)
    draws = np.empty((d * d, k + 4), dtype=complex)
    for j in range(k + 4):
        t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ut = (mats @ t).transpose(1, 0, 2).reshape(d, n * d)  # [U_1 T, ..., U_n T]
        draws[:, j] = (ut @ adjoints).reshape(-1)  # n E(T)
    u, s, _ = np.linalg.svd(draws, full_matrices=False)
    if k < s.size and s[k] > RANK_CUTOFF * s[0]:
        raise NotAGroup(f"the group average has rank above its trace {k}: s[k]/s[0] = {s[k] / s[0]:.3e}; "
                        "the matrices are not a unitary group up to phases")
    return list(u[:, :k].T.reshape(k, d, d))


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
    q = orthonormal_columns(stacked)  # p T p over an orthonormal basis: singular values 0 or 1
    elems = [q[:, j].reshape(basis.dim, basis.dim) for j in range(q.shape[1])]
    return CommutantBasis(dim=basis.dim, elements=elems, rep=basis.rep)


def _max_pairing(family, w: np.ndarray) -> float:
    """max over T in ``family`` of |sum_ij T_ij w_ij| (<T eta, psi> for w = conj(psi) eta^T), from one
    einsum over the stacked family; 0 for an empty family."""
    stack = np.asarray([np.asarray(t, dtype=complex) for t in family] or [np.zeros_like(w)])
    return float(np.max(np.abs(np.einsum("kij,ij->k", stack, w))))


def is_tracial_pair(
    basis: CommutantBasis,
    group: FiniteGroup,
    eta,
    psi,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Check <T eta, psi> = tau(T) over a spanning set of the commutant of a representation of ``group``.

    tau is the natural trace tr(T)/|G| of :func:`natural_trace`, on the commutant of any representation of
    ``group``.  The finite trace extends linearly to the whole algebra, so checking a linear spanning set is
    equivalent to checking positive elements.
    """
    eta, psi = (np.asarray(v, dtype=complex).reshape(-1) for v in (eta, psi))
    residual = _max_pairing(basis, np.outer(psi.conj(), eta) - np.eye(eta.size) / group.order)
    return CheckResult(name="tracial_pair", residual=residual, tol=tol)


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
    eta0, psi0, eta, psi = (np.asarray(v, dtype=complex).reshape(-1) for v in (eta0, psi0, eta, psi))
    residual = _max_pairing(generators, np.outer(psi.conj(), eta) - np.outer(psi0.conj(), eta0))
    return CheckResult(name="generalized_biorthogonality", residual=residual, tol=tol)
