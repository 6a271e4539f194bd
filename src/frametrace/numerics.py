"""Dense complex linear-algebra kernels used by every other module.

All operations work on ordinary numpy arrays of complex doubles, with
non-finite entries rejected.  The Hermitian kernels also take a stack of
square matrices (the blocks of a block-diagonal operator) as one operator:
one Hermitian test, one spectrum, one floor.  :func:`frame_duals` is the one frame solver: every dual and
tight window (representations, Plancherel fibers, Gabor Zak blocks) and frame-bounds ratio come from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotHermitian

#: Default relative tolerance for operator-identity checks.
DEFAULT_TOL = 1e-9

#: Relative eigenvalue floor below which an operator counts as singular.
EIG_FLOOR = 1e-12

#: Relative singular-value cut-off of a numerical rank (spans and null spaces).
RANK_CUTOFF = 1e-11

#: Smallest tolerance of the Plancherel-side checks: character norms and
#: overlaps, fiber blocks and range leaks pass at max(tol, this).
PLANCHEREL_TOL_FLOOR = 1e-8

#: Eigenvalue cut between the 0 and 1 eigenvalues of a projection; the rank
#: of a projection counts the eigenvalues above it.
PROJECTION_RANK_CUT = 0.5


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-d complex array, rejecting NaN/Inf entries."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(w.real)) or not np.all(np.isfinite(w.imag)):
        raise ValueError("vector contains non-finite entries")
    return w


def _unit_roots(k, n: int) -> np.ndarray:
    """exp(2 pi i k / n) for an integer array k: the n roots exp(2 pi i j / n) looked up at
    j = k mod n, so n calls to exp, not one per entry, and large k lose no accuracy."""
    return np.exp(2j * np.pi * np.arange(n) / n)[np.asarray(k) % n]


def frob_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def within_tol(residual: float, tol: float, scale) -> bool:
    """The relative rule: residual <= tol * max(1, ||scale||_F).  A NaN residual fails."""
    return residual <= tol * max(1.0, frob_norm(scale))


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition A = Q diag(w) Q* with w ascending and Q unitary (per matrix of a stack)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues[..., None, :]) @ q.conj().swapaxes(-1, -2)


def eig_hermitian(a) -> HermEig:
    """Hermitian eigendecomposition (ascending eigenvalues) of a matrix or a stack."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch("eig_hermitian needs a square matrix or a stack of them")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if not within_tol(frob_norm(a - a.conj().swapaxes(-1, -2)), DEFAULT_TOL, a):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, q = np.linalg.eigh(a)
    return HermEig(eigenvalues=w, eigenvectors=q)


def _floor(w) -> float:
    """The ratio min/max of the eigenvalues ``w`` (any shape); raises :class:`NotAFrame` carrying it when the
    smallest is at or below ``EIG_FLOOR`` times the largest, or none is positive (ratio 0)."""
    low, top = (float(w.min()), float(w.max())) if w.size else (0.0, 0.0)
    ratio = low / top if top > 0.0 else 0.0
    if top <= 0.0 or low <= EIG_FLOOR * top:
        raise NotAFrame(f"eigenvalue floor violated: min={low:.3e}, max={top:.3e}, floor={EIG_FLOOR:.1e}", ratio=ratio)
    return ratio


def frame_duals(stacks, tight: bool = False) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """Dual blocks of each (m, r, d) stack of analysis blocks b = U diag(s) V* (b b* acts on the first axis) as
    factor pairs (U diag(1/s), V*), product (b b*)^-1 b, or with ``tight`` (U, V*), b's polar factor; and the
    frame-bounds ratio min/max s^2.  One thin SVD per stack and one :func:`_floor` decision over the s^2 of all
    stacks (one frame operator's eigenvalues) and the r - d zeros a block with r > d has beyond its thin SVD; an
    empty list raises.  No b b* is formed: error sqrt(kappa) eps, not kappa eps (Higham 2002, ch. 20)."""
    svds = [np.linalg.svd(b, full_matrices=False) for b in stacks]
    tall = any(b.shape[-2] > b.shape[-1] for b in stacks)
    ratio = _floor(np.concatenate([np.square(s).ravel() for _, s, _ in svds] + [np.zeros(int(tall))]))
    return [(u if tight else u / s[..., None, :], vh) for u, s, vh in svds], ratio


def inv_psd(a) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix, or the stack of inverses of a stack, by ``eigh``:
    the normal-equations reference that the tests hold :func:`frame_duals` to."""
    dec = eig_hermitian(a)
    _floor(dec.eigenvalues)
    return HermEig(1.0 / dec.eigenvalues, dec.eigenvectors).reconstruct()


def inv_sqrt_psd(a) -> np.ndarray:
    """Inverse square root A^(-1/2) of a Hermitian positive definite matrix (or stack), by ``eigh``."""
    dec = eig_hermitian(a)
    _floor(dec.eigenvalues)
    return HermEig(1.0 / np.sqrt(dec.eigenvalues), dec.eigenvectors).reconstruct()


def orthonormal_columns(vectors) -> np.ndarray:
    """Orthonormal basis for the column span of ``vectors`` (d x k array).

    Uses an SVD with the relative singular-value cut-off ``RANK_CUTOFF``, so nearly dependent
    columns are deduplicated.  Returns a d x r array with orthonormal columns.
    """
    m = np.asarray(vectors, dtype=complex)
    if m.ndim != 2 or m.shape[1] == 0 or not np.any(m):
        return np.zeros((m.shape[0] if m.ndim == 2 else 0, 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    return u[:, :rank]
