"""Finite Plancherel transform, central decomposition and fiber criteria.

Conventions, fixed once and validated by tests:

* transform blocks  fhat(sigma) = sum_x f(x) sigma(x)^*  with weights
  d_sigma/|G|, so that the weighted Parseval identity
  sum_sigma (d_sigma/|G|) ||fhat(sigma)||_F^2 = ||f||^2 holds;
* inversion  f(x) = sum_sigma (d_sigma/|G|) trace(sigma(x) fhat(sigma));
* convolution transports to reversed block products,
  (f * g)^ = ghat . fhat.

Under this transform, left translation acts on blocks by right multiplication
with sigma(x)^*, and the right von Neumann algebra acts by left
multiplication.  An invariant projection p therefore corresponds to left
multiplication by the projection blocks hhat(sigma) of h = p delta_e; these
blocks are the fiber projections P_sigma on the multiplicity space, and the
fiber admissibility criterion reads  psihat(sigma) etahat(sigma)^* = P_sigma
(the paper-side fiber vectors are the adjoints of our analysis blocks, which
is what turns the usual "psi^* eta" into "psi eta^*" in this orientation).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAGroup,
    NotComplete,
    NotHomomorphism,
    NotInequivalent,
    NotInRange,
    NotInvariant,
    NotIrreducible,
    UnsupportedGroup,
)
from .frames import InvariantProjection
from .groups import FiniteGroup, GroupVector, Rep, _parse_spec, _spec_table, convolution_operator
from .numerics import DEFAULT_TOL, PLANCHEREL_TOL_FLOOR, PROJECTION_RANK_CUT, _unit_roots, within_tol
from .reporting import CheckResult


@dataclass(frozen=True)
class Irrep:
    label: str
    dim: int
    rep: Rep


@dataclass(frozen=True)
class IrrepTable:
    """A complete list of pairwise inequivalent irreducibles of a finite group."""

    group: FiniteGroup
    irreps: tuple

    def dims(self) -> list[int]:
        return [s.dim for s in self.irreps]


@dataclass(frozen=True)
class PlancherelCoefficients:
    table: IrrepTable
    blocks: tuple = field(repr=False)  # one d_sigma x d_sigma array per irrep


@dataclass(frozen=True)
class FiberProjectionField:
    table: IrrepTable
    projections: tuple = field(repr=False)

    @functools.cached_property
    def ranks(self) -> tuple[int, ...]:
        out = []
        for p in self.projections:
            w = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
            out.append(int(np.sum(w > PROJECTION_RANK_CUT)))
        return tuple(out)


# ---------------------------------------------------------------------------
# Builtin irreducible representations: each family builder returns
# (label, matrices) pairs, the matrices of shape (order, d, d).


def _cyclic_irreps(n: int) -> list[tuple[str, np.ndarray]]:
    chars = _unit_roots(np.outer(np.arange(n), np.arange(n)), n)  # chi_k(j) = omega^(k j)
    return [(f"chi{k}", row.reshape(n, 1, 1)) for k, row in enumerate(chars)]


def _dihedral_irreps(n: int) -> list[tuple[str, np.ndarray]]:
    # Elements 0..n-1 are rotations r^j, n..2n-1 are reflections s r^j.
    j = np.arange(n)
    signs = [("triv", 1, 1), ("sgn", 1, -1), ("alt+", -1, 1), ("alt-", -1, -1)]  # values at r, s
    out = [
        (label, np.concatenate([r ** j, s * r ** j]).astype(complex).reshape(-1, 1, 1))
        for label, r, s in signs[: 4 if n % 2 == 0 else 2]
    ]
    # rho_h(r^j) = diag(omega^(h j), omega^(-h j)) and rho_h(s r^j) = flip . rho_h(r^j).
    hs = np.arange(1, (n + 1) // 2)
    up, down = _unit_roots(np.outer(hs, j), n), _unit_roots(-np.outer(hs, j), n)
    mats = np.zeros((len(hs), 2 * n, 2, 2), dtype=complex)
    mats[:, :n, 0, 0], mats[:, :n, 1, 1] = up, down
    mats[:, n:, 0, 1], mats[:, n:, 1, 0] = down, up
    return out + [(f"rho{h}", m) for h, m in zip(hs, mats)]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n ** 0.5) + 1))


def _heisenberg_irreps(p: int) -> list[tuple[str, np.ndarray]]:
    if not _is_prime(p):
        raise UnsupportedGroup(
            f"builtin Heisenberg irreps require a prime modulus, got {p}"
        )
    e, t = np.arange(p ** 3), np.arange(p)
    x, y, z = e // (p * p), (e // p) % p, e % p  # element (x, y, z) has index x p^2 + y p + z
    # chi_(a,b)(x, y, z) = omega^(a x + b y), a along the first axis and b along the second
    chars = _unit_roots(t[:, None, None] * x + t[:, None] * y, p).reshape(p * p, -1, 1, 1)
    out = [(f"chi{a},{b}", c) for (a, b), c in zip(np.ndindex(p, p), chars)]
    # p-dimensional irreps, one per nontrivial central character:
    # (pi_c(x, y, z) f)(t) = omega^(c (z + y t)) f(t + x)
    for c in range(1, p):
        mats = np.zeros((p ** 3, p, p), dtype=complex)
        mats[e[:, None], t, (t + x[:, None]) % p] = _unit_roots(c * (z[:, None] + y[:, None] * t), p)
        out.append((f"pi{c}", mats))
    return out


_FAMILY_IRREPS = {"cyclic": _cyclic_irreps, "dihedral": _dihedral_irreps, "heisenberg": _heisenberg_irreps}


def _tensor_product(left: list, right: list) -> list[tuple[str, np.ndarray]]:
    """Irreps of G1 x G2: element i1 |G2| + i2 maps to sigma1(i1) (x) sigma2(i2)."""
    out = []
    for l1, m1 in left:
        for l2, m2 in right:
            d = m1.shape[1] * m2.shape[1]
            mats = np.einsum("xij,ykl->xyikjl", m1, m2).reshape(len(m1) * len(m2), d, d)
            out.append((f"{l1}*{l2}", mats))
    return out


def builtin_irreps(group: FiniteGroup) -> IrrepTable:
    """Irreducible representations for the builtin group families.

    Supports cyclic:n, dihedral:n, heisenberg:p (p prime) and their direct
    products, as tensor products of the factors' irreps; other groups raise
    :class:`UnsupportedGroup` and require a user-supplied table, and so does a
    table that differs from the one its label names.
    """
    try:
        factors = _parse_spec(group.label)
    except NotAGroup:
        raise UnsupportedGroup(
            f"no builtin irreps for group {group.label!r}; supply a table"
        ) from None
    if not np.array_equal(group.cayley, _spec_table(factors)):  # shapes first, then entries
        raise UnsupportedGroup(f"group table does not match its label {group.label!r}")
    pairs = functools.reduce(_tensor_product, (_FAMILY_IRREPS[f](n) for f, n in factors))
    return IrrepTable(group=group, irreps=tuple(
        Irrep(label, m.shape[1], Rep(group=group, dim=m.shape[1], matrices=m)) for label, m in pairs
    ))


def validate_irreps(group: FiniteGroup, supplied, tol: float = DEFAULT_TOL) -> IrrepTable:
    """Verify a supplied list of irreps and assemble an :class:`IrrepTable`.

    Checks each entry for the representation axioms, irreducibility and
    pairwise inequivalence (via character orthogonality), and completeness
    sum d^2 = |G|.
    """
    irreps = []
    for entry in supplied:
        if isinstance(entry, Irrep):
            irreps.append(entry)
        else:
            label, rep = entry
            irreps.append(Irrep(label=label, dim=rep.dim, rep=rep))
    for s in irreps:
        if s.rep.group != group:
            raise NotHomomorphism(f"irrep {s.label!r} lives on a different group")
        try:
            s.rep.validate(tol=tol)
        except Exception as exc:
            raise NotHomomorphism(f"irrep {s.label!r}: {exc}") from exc
    # gram[i, j] = <chi_i, chi_j> / |G|: every character norm and overlap from one product
    chars = np.array([s.rep.character() for s in irreps]).reshape(len(irreps), group.order)
    gram = chars @ chars.conj().T / group.order
    loose = max(tol, PLANCHEREL_TOL_FLOOR)
    bad_norms = np.flatnonzero(np.abs(gram.diagonal().real - 1.0) > loose)
    if bad_norms.size:
        i = bad_norms[0]
        raise NotIrreducible(
            f"irrep {irreps[i].label!r} has character norm^2 {gram[i, i].real:.6f}"
        )
    equivalent = np.argwhere(np.triu(np.abs(gram) > loose, 1))  # pairs i < j, row-major
    if equivalent.size:
        i, j = equivalent[0]
        raise NotInequivalent(
            f"irreps {irreps[i].label!r} and {irreps[j].label!r} are equivalent"
        )
    if sum(s.dim ** 2 for s in irreps) != group.order:
        raise NotComplete(
            f"sum of squared dims {sum(s.dim ** 2 for s in irreps)} != |G| = {group.order}"
        )
    return IrrepTable(group=group, irreps=tuple(irreps))


# ---------------------------------------------------------------------------
# Transform and inverse: one |G| x sum d^2 matrix.  Row x of the kernel holds
# every sigma(x), each transposed and flattened, so the flat coefficients
# conj(conj(F) @ M) of a (..., |G|) stack F split block by block into
# fhat(sigma) = sum_x f(x) sigma(x)^*, and the inverse is M @ (w c) with
# w = d_sigma/|G| over each block.


def _kernel(table: IrrepTable) -> np.ndarray:
    n = table.group.order
    return np.concatenate(
        [s.rep.matrices.transpose(0, 2, 1).reshape(n, -1) for s in table.irreps], axis=1
    )


def _weights(table: IrrepTable) -> np.ndarray:
    dims = np.array(table.dims())
    return np.repeat(dims / table.group.order, dims ** 2)


def _samples(table: IrrepTable, f) -> np.ndarray:
    """The data of a vector on the table's group, or a (..., |G|) stack of samples as is."""
    if isinstance(f, GroupVector):
        if f.group != table.group:
            raise DimensionMismatch("vector and irrep table belong to different groups")
        return f.data
    data = np.asarray(f, dtype=complex)
    if data.shape[-1:] != (table.group.order,):
        raise DimensionMismatch(
            f"samples of shape {data.shape} do not fit a group of order {table.group.order}"
        )
    return data


def _coefficients(table: IrrepTable, data: np.ndarray) -> np.ndarray:
    """Flat coefficients of a (..., |G|) stack; the stack is conjugated, never the kernel."""
    return (data.conj() @ _kernel(table)).conj()


def _blocks(table: IrrepTable, flat: np.ndarray) -> tuple:
    """Split one row of flat coefficients into the d_sigma x d_sigma blocks."""
    ends = np.cumsum([d * d for d in table.dims()])
    return tuple(flat[e - d * d:e].reshape(d, d) for d, e in zip(table.dims(), ends))


def plancherel_transform(table: IrrepTable, f: GroupVector) -> PlancherelCoefficients:
    """Blocks fhat(sigma) = sum_x f(x) sigma(x)^*."""
    flat = _coefficients(table, _samples(table, f))
    return PlancherelCoefficients(table=table, blocks=_blocks(table, flat))


def inverse_plancherel(coeffs: PlancherelCoefficients) -> GroupVector:
    """f(x) = sum_sigma (d_sigma/|G|) trace(sigma(x) fhat(sigma))."""
    table = coeffs.table
    flat = np.concatenate([np.asarray(b, dtype=complex).reshape(-1) for b in coeffs.blocks])
    return GroupVector(table.group, _kernel(table) @ (_weights(table) * flat))


def parseval_residual(table: IrrepTable, f):
    """|sum_sigma (d_sigma/|G|) ||fhat(sigma)||_F^2 - ||f||^2| for a vector, or per row
    of a (k, |G|) stack of samples."""
    data = _samples(table, f)
    total = np.abs(_coefficients(table, data)) ** 2 @ _weights(table)
    residual = np.abs(total - np.linalg.norm(data, axis=-1) ** 2)
    return float(residual) if residual.ndim == 0 else residual


def convolution_to_product_check(
    table: IrrepTable, f: GroupVector, g: GroupVector, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Pin the convolution transport: (f * g)^(sigma) = ghat(sigma) fhat(sigma)."""
    from .groups import convolve

    flat = _coefficients(table, np.stack([_samples(table, v) for v in (convolve(f, g), f, g)]))
    fg, fhat, ghat = (_blocks(table, row) for row in flat)
    residual = max(
        float(np.linalg.norm(c - bg @ bf)) for c, bf, bg in zip(fg, fhat, ghat)
    )
    return CheckResult(name="convolution_to_product", residual=residual, tol=tol)


# ---------------------------------------------------------------------------
# Fiber projections and the type-I admissibility criterion


def _fibers(table: IrrepTable, p: InvariantProjection, tol: float, *vectors):
    """The fiber field of p and the blocks of each vector, from one transform of [h, *vectors]."""
    if p.group != table.group:
        raise DimensionMismatch("projection and table belong to different groups")
    p.validate(tol=tol)
    h = GroupVector(table.group, p.matrix[:, table.group.identity])
    flat = _coefficients(table, np.stack([_samples(table, v) for v in (h, *vectors)]))
    hhat, *others = (_blocks(table, row) for row in flat)
    loose = max(tol, PLANCHEREL_TOL_FLOOR)
    for s, b in zip(table.irreps, hhat):
        if not within_tol(np.linalg.norm(b @ b - b), loose, b):
            raise NotInvariant(f"fiber block at {s.label!r} is not idempotent")
        if not within_tol(np.linalg.norm(b - b.conj().T), loose, b):
            raise NotInvariant(f"fiber block at {s.label!r} is not Hermitian")
    return FiberProjectionField(table=table, projections=hhat), others


def fiber_projections(
    table: IrrepTable, p: InvariantProjection, tol: float = DEFAULT_TOL
) -> FiberProjectionField:
    """Per-irrep projections carrying p to a direct sum of 1 (x) P_sigma.

    The blocks are the transform of h = p delta_e; invariance of p makes each
    block Hermitian idempotent, which is verified.
    """
    return _fibers(table, p, tol)[0]


def projection_from_fibers(table: IrrepTable, projections) -> InvariantProjection:
    """Synthesize the invariant projection with prescribed fiber projections."""
    group = table.group
    blocks = []
    for s, b in zip(table.irreps, projections):
        b = np.asarray(b, dtype=complex)
        if b.shape != (s.dim, s.dim):
            raise DimensionMismatch(f"fiber block at {s.label!r} has wrong shape")
        blocks.append(b)
    h = inverse_plancherel(PlancherelCoefficients(table=table, blocks=tuple(blocks)))
    return InvariantProjection(group=group, matrix=convolution_operator(h))


def fiber_admissibility_check(
    table: IrrepTable,
    p: InvariantProjection,
    eta: GroupVector,
    psi: GroupVector,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Fiberwise admissibility: psihat(sigma) etahat(sigma)^* = P_sigma, all sigma.

    eta and psi must lie in range(p).  Equivalent to admissibility of
    (eta, psi) for left translation restricted to range(p).
    """
    for name, v in (("eta", eta), ("psi", psi)):
        leak = np.linalg.norm(p.matrix @ v.data - v.data)
        if not within_tol(leak, max(tol, PLANCHEREL_TOL_FLOOR), v.data):
            raise NotInRange(f"{name} is not in the range of the projection")
    field, (etahat, psihat) = _fibers(table, p, tol, eta, psi)
    residual = max(
        float(np.linalg.norm(bp @ be.conj().T - pb))
        for be, bp, pb in zip(etahat, psihat, field.projections)
    )
    return CheckResult(name="fiber_admissibility", residual=residual, tol=tol)


def rank_measure(field: FiberProjectionField) -> float:
    """nu_H = sum_sigma (d_sigma/|G|) rank(P_sigma), ranks by the 1/2 threshold."""
    return sum(s.dim * r for s, r in zip(field.table.irreps, field.ranks)) / field.table.group.order


def isotypic_projection(table: IrrepTable, label: str) -> InvariantProjection:
    """Projection onto the full isotypic component of one irrep inside l2(G)."""
    blocks = []
    found = False
    for s in table.irreps:
        if s.label == label:
            blocks.append(np.eye(s.dim, dtype=complex))
            found = True
        else:
            blocks.append(np.zeros((s.dim, s.dim), dtype=complex))
    if not found:
        raise KeyError(f"no irrep labelled {label!r}")
    return projection_from_fibers(table, blocks)


def random_invariant_projection(
    table: IrrepTable, rng: np.random.Generator
) -> InvariantProjection:
    """Random invariant projection from random fiber ranks and frames."""
    blocks = []
    for s in table.irreps:
        m = int(rng.integers(0, s.dim + 1))
        if m == 0:
            blocks.append(np.zeros((s.dim, s.dim), dtype=complex))
            continue
        a = rng.standard_normal((s.dim, m)) + 1j * rng.standard_normal((s.dim, m))
        q, _ = np.linalg.qr(a)
        blocks.append(q @ q.conj().T)
    return projection_from_fibers(table, blocks)
