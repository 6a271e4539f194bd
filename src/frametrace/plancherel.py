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
from .groups import FiniteGroup, GroupVector, Rep, _parse_spec, _spec_table
from .numerics import DEFAULT_TOL, PLANCHEREL_TOL_FLOOR, PROJECTION_RANK_CUT, _unit_roots, within_tol
from .reporting import CheckResult


@dataclass(frozen=True)
class Irrep:
    label: str
    dim: int
    rep: Rep


@dataclass(frozen=True)
class IrrepTable:
    """A complete list of pairwise inequivalent irreducibles of a finite group, held as the
    |G| x sum d^2 Plancherel kernel: row x holds every sigma(x), each transposed and flattened,
    in table order.  Each dimension class is one (|G|, m, d, d) gather of it."""

    group: FiniteGroup
    labels: tuple
    degrees: tuple  # d_sigma, in table order
    kernel: np.ndarray = field(repr=False)

    classes = functools.cached_property(lambda self: _classes(self.degrees))

    @functools.cached_property
    def irreps(self) -> tuple:
        """One :class:`Irrep` per kernel block, its matrices a view of the kernel."""
        blocks = _blocks(self, self.kernel)  # sigma(x)^T
        return tuple(Irrep(s, d, Rep(self.group, d, b.transpose(0, 2, 1)))
                     for s, d, b in zip(self.labels, self.degrees, blocks))


def _classes(degrees) -> tuple:
    """(d, irrep indices, their (m, d^2) kernel columns) per dimension d, ascending."""
    dims, ends = np.array(degrees), np.cumsum(np.square(degrees))
    members = [(d, np.flatnonzero(dims == d)) for d in sorted(set(degrees))]
    return tuple((d, i, (ends[i] - d * d)[:, None] + np.arange(d * d)) for d, i in members)


@dataclass(frozen=True)
class PlancherelCoefficients:
    table: IrrepTable
    blocks: tuple = field(repr=False)  # one d_sigma x d_sigma array per irrep


@dataclass(frozen=True)
class FiberProjectionField:
    """The fiber projections P_sigma = hhat(sigma) of an invariant projection, as flat coefficients."""

    table: IrrepTable
    flat: np.ndarray = field(repr=False)

    @functools.cached_property
    def projections(self) -> tuple:
        return _blocks(self.table, self.flat)

    @functools.cached_property
    def ranks(self) -> tuple[int, ...]:
        """Eigenvalues above ``PROJECTION_RANK_CUT``, one stacked ``eigvalsh`` per dimension class."""
        out = np.zeros(len(self.table.degrees), dtype=int)
        for d, members, cols in self.table.classes:
            p = self.flat[cols].reshape(-1, d, d)
            w = np.linalg.eigvalsh(0.5 * (p + p.conj().swapaxes(-1, -2)))
            out[members] = np.sum(w > PROJECTION_RANK_CUT, axis=-1)
        return tuple(out.tolist())


# ---------------------------------------------------------------------------
# Builtin irreducible representations: each family builder returns the labels,
# dims and (order, sum d^2) kernel of its irreps, laid out as IrrepTable.kernel.


def _cyclic_irreps(n: int) -> tuple:
    # chi_k(j) = omega^(k j)
    return [f"chi{k}" for k in range(n)], [1] * n, _unit_roots(np.outer(np.arange(n), np.arange(n)), n)


def _dihedral_irreps(n: int) -> tuple:
    # Elements 0..n-1 are rotations r^j, n..2n-1 are reflections s r^j.
    j = np.arange(n)
    signs = [("triv", 1, 1), ("sgn", 1, -1), ("alt+", -1, 1), ("alt-", -1, -1)][: 4 if n % 2 == 0 else 2]
    hs = np.arange(1, (n + 1) // 2)
    kernel = np.zeros((2 * n, len(signs) + 4 * len(hs)), dtype=complex)
    r, s = np.array([values for _, *values in signs]).T  # values at r, s
    kernel[:, : len(signs)] = np.concatenate([r ** j[:, None], s * r ** j[:, None]])
    # rho_h(r^j) = diag(omega^(h j), omega^(-h j)) and rho_h(s r^j) = flip . rho_h(r^j); a block
    # holds rho_h(x)^T flattened, entries (0, 0), (1, 0), (0, 1), (1, 1) of rho_h(x).
    up, down = _unit_roots(np.outer(j, hs), n), _unit_roots(-np.outer(j, hs), n)
    rho = kernel[:, len(signs):].reshape(2 * n, len(hs), 4)
    rho[:n, :, 0], rho[:n, :, 3], rho[n:, :, 1], rho[n:, :, 2] = up, down, up, down
    labels = [label for label, _, _ in signs] + [f"rho{h}" for h in hs]
    return labels, [1] * len(signs) + [2] * len(hs), kernel


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def _heisenberg_irreps(p: int) -> tuple:
    if not _is_prime(p):
        raise UnsupportedGroup(f"builtin Heisenberg irreps require a prime modulus, got {p}")
    e, t = np.arange(p ** 3), np.arange(p)
    x, y, z = e // (p * p), (e // p) % p, e % p  # element (x, y, z) has index x p^2 + y p + z
    kernel = np.zeros((p ** 3, p * p + (p - 1) * p * p), dtype=complex)
    # chi_(a,b)(x, y, z) = omega^(a x + b y), a along the first axis and b along the second
    chars = _unit_roots(x[:, None, None] * t[:, None] + y[:, None, None] * t, p)
    kernel[:, : p * p] = chars.reshape(p ** 3, -1)
    # p-dimensional irreps, one per nontrivial central character:
    # (pi_c(x, y, z) f)(t) = omega^(c (z + y t)) f(t + x), entry (t, t + x) at (t + x) p + t
    c = np.arange(1, p)[:, None]
    pis = kernel[:, p * p:].reshape(p ** 3, p - 1, p * p)
    pis[e[:, None, None], c - 1, ((t + x[:, None]) % p * p + t)[:, None, :]] = _unit_roots(
        c * (z[:, None, None] + y[:, None, None] * t), p)
    labels = [f"chi{a},{b}" for a, b in np.ndindex(p, p)] + [f"pi{k}" for k in range(1, p)]
    return labels, [1] * (p * p) + [p] * (p - 1), kernel


_FAMILY_IRREPS = {"cyclic": _cyclic_irreps, "dihedral": _dihedral_irreps, "heisenberg": _heisenberg_irreps}


def _tensor_product(left: tuple, right: tuple) -> tuple:
    """Irreps of G1 x G2: element i1 |G2| + i2 maps to sigma1(i1) (x) sigma2(i2), pairs row-major.
    As (sigma1 (x) sigma2)^T = sigma1^T (x) sigma2^T, kernel column ((u1, u2), (v1, v2)) of a pair is
    the product of columns (u1, v1) and (u2, v2) of the factors' kernels: one einsum of two gathers."""
    (l1, d1, k1), (l2, d2, k2) = left, right
    dims = [a * b for a in d1 for b in d2]
    ends = np.cumsum(np.square(dims))
    maps = np.empty((2, ends[-1]), dtype=np.int64)
    for p, i1, c1 in _classes(d1):
        for q, i2, c2 in _classes(d2):
            cols = (ends[i1[:, None] * len(d2) + i2] - (p * q) ** 2)[..., None] + np.arange((p * q) ** 2)
            shape = (len(i1), len(i2), p, q, p, q)
            maps[0, cols] = np.broadcast_to(c1.reshape(-1, 1, p, 1, p, 1), shape).reshape(cols.shape)
            maps[1, cols] = np.broadcast_to(c2.reshape(1, -1, 1, q, 1, q), shape).reshape(cols.shape)
    kernel = np.einsum("xc,yc->xyc", k1[:, maps[0]], k2[:, maps[1]])
    return [f"{a}*{b}" for a in l1 for b in l2], dims, kernel.reshape(len(k1) * len(k2), -1)


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
        raise UnsupportedGroup(f"no builtin irreps for group {group.label!r}; supply a table") from None
    if not np.array_equal(group.cayley, _spec_table(factors)):  # shapes first, then entries
        raise UnsupportedGroup(f"group table does not match its label {group.label!r}")
    labels, dims, kernel = functools.reduce(_tensor_product, (_FAMILY_IRREPS[f](n) for f, n in factors))
    return IrrepTable(group, tuple(labels), tuple(dims), kernel)


def validate_irreps(group: FiniteGroup, supplied, tol: float = DEFAULT_TOL) -> IrrepTable:
    """Verify a supplied list of irreps and assemble an :class:`IrrepTable`.

    Checks each entry for the representation axioms, irreducibility and
    pairwise inequivalence (via character orthogonality), and completeness
    sum d^2 = |G|; then stacks them once into the kernel layout.
    """
    irreps = [e if isinstance(e, Irrep) else Irrep(label=e[0], dim=e[1].dim, rep=e[1]) for e in supplied]
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
        raise NotIrreducible(f"irrep {irreps[i].label!r} has character norm^2 {gram[i, i].real:.6f}")
    equivalent = np.argwhere(np.triu(np.abs(gram) > loose, 1))  # pairs i < j, row-major
    if equivalent.size:
        i, j = equivalent[0]
        raise NotInequivalent(f"irreps {irreps[i].label!r} and {irreps[j].label!r} are equivalent")
    if sum(s.dim ** 2 for s in irreps) != group.order:
        raise NotComplete(f"sum of squared dims {sum(s.dim ** 2 for s in irreps)} != |G| = {group.order}")
    blocks = [s.rep.matrices.transpose(0, 2, 1).reshape(group.order, -1) for s in irreps]
    return IrrepTable(group, tuple(s.label for s in irreps), tuple(s.dim for s in irreps), np.hstack(blocks))


# ---------------------------------------------------------------------------
# Transform and inverse: one product with the table's kernel M.  Its row x holds
# every sigma(x), each transposed and flattened, so the flat coefficients
# conj(conj(F) @ M) of a (..., |G|) stack F split block by block into
# fhat(sigma) = sum_x f(x) sigma(x)^*, and the inverse is M @ (w c) with
# w = d_sigma/|G| over each block.


def _weights(table: IrrepTable) -> np.ndarray:
    dims = np.array(table.degrees)
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
    return (data.conj() @ table.kernel).conj()


def _blocks(table: IrrepTable, flat: np.ndarray) -> tuple:
    """Split (..., sum d^2) flat coefficients into the (..., d_sigma, d_sigma) blocks, as views."""
    ends = np.cumsum(np.square(table.degrees))
    return tuple(flat[..., e - d * d:e].reshape(*flat.shape[:-1], d, d) for d, e in zip(table.degrees, ends))


def plancherel_transform(table: IrrepTable, f: GroupVector) -> PlancherelCoefficients:
    """Blocks fhat(sigma) = sum_x f(x) sigma(x)^*."""
    flat = _coefficients(table, _samples(table, f))
    return PlancherelCoefficients(table=table, blocks=_blocks(table, flat))


def inverse_plancherel(coeffs: PlancherelCoefficients) -> GroupVector:
    """f(x) = sum_sigma (d_sigma/|G|) trace(sigma(x) fhat(sigma))."""
    table = coeffs.table
    flat = np.concatenate([np.asarray(b, dtype=complex).reshape(-1) for b in coeffs.blocks])
    return GroupVector(table.group, table.kernel @ (_weights(table) * flat))


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
    """The fiber field of p and the flat coefficients of [h, *vectors], from one transform; names the
    first irrep whose block of h is not idempotent, or else not Hermitian, one test per dimension class."""
    if p.group != table.group:
        raise DimensionMismatch("projection and table belong to different groups")
    p.validate(tol=tol)
    flat = _coefficients(table, np.stack([_samples(table, v) for v in (p.h, *vectors)]))
    loose = max(tol, PLANCHEREL_TOL_FLOOR)
    bad = np.zeros((len(table.degrees), 2), dtype=bool)  # not idempotent, not Hermitian
    for d, members, cols in table.classes:
        b = flat[0, cols].reshape(-1, d, d)
        bound = loose * np.maximum(1.0, np.linalg.norm(b, axis=(1, 2)))  # the rule of within_tol
        bad[members, 0] = ~(np.linalg.norm(b @ b - b, axis=(1, 2)) <= bound)
        bad[members, 1] = ~(np.linalg.norm(b - b.conj().swapaxes(-1, -2), axis=(1, 2)) <= bound)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise NotInvariant(f"fiber block at {table.labels[i]!r} is not {('idempotent', 'Hermitian')[k]}")
    return FiberProjectionField(table=table, flat=flat[0]), flat


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
    blocks = []
    for label, d, b in zip(table.labels, table.degrees, projections):
        b = np.asarray(b, dtype=complex)
        if b.shape != (d, d):
            raise DimensionMismatch(f"fiber block at {label!r} has wrong shape")
        blocks.append(b)
    return InvariantProjection(inverse_plancherel(PlancherelCoefficients(table=table, blocks=tuple(blocks))))


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
    vs = np.column_stack([eta.data, psi.data])
    for name, v, leak in zip(("eta", "psi"), vs.T, np.linalg.norm(p.apply(vs) - vs, axis=0)):
        if not within_tol(leak, max(tol, PLANCHEREL_TOL_FLOOR), v):
            raise NotInRange(f"{name} is not in the range of the projection")
    _, flat = _fibers(table, p, tol, eta, psi)
    residual = max(  # one stacked product per dimension class
        float(np.max(np.linalg.norm(bp @ be.conj().swapaxes(-1, -2) - pb, axis=(1, 2))))
        for d, _, cols in table.classes for pb, be, bp in [flat[:, cols].reshape(3, -1, d, d)]
    )
    return CheckResult(name="fiber_admissibility", residual=residual, tol=tol)


def rank_measure(field: FiberProjectionField) -> float:
    """nu_H = sum_sigma (d_sigma/|G|) rank(P_sigma), ranks by the 1/2 threshold."""
    return sum(d * r for d, r in zip(field.table.degrees, field.ranks)) / field.table.group.order


def isotypic_projection(table: IrrepTable, label: str) -> InvariantProjection:
    """Projection onto the full isotypic component of one irrep inside l2(G)."""
    if label not in table.labels:
        raise KeyError(f"no irrep labelled {label!r}")
    return projection_from_fibers(
        table, [np.eye(d, dtype=complex) * (s == label) for s, d in zip(table.labels, table.degrees)]
    )


def random_invariant_projection(
    table: IrrepTable, rng: np.random.Generator
) -> InvariantProjection:
    """Random invariant projection from random fiber ranks and frames."""
    blocks = []
    for d in table.degrees:
        m = int(rng.integers(0, d + 1))  # m = 0 draws no normals and gives the zero block
        a = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        q, _ = np.linalg.qr(a)
        blocks.append(q @ q.conj().T)
    return projection_from_fibers(table, blocks)
