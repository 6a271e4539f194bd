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
from .groups import FiniteGroup, GroupVector, Rep, _parse_spec, _spec_table, convolution_operator, convolve
from .numerics import (
    DEFAULT_TOL,
    PLANCHEREL_TOL_FLOOR,
    PROJECTION_RANK_CUT,
    RANK_CUTOFF,
    _unit_roots,
    frame_svds,
    within_tol,
)
from .reporting import CheckResult


@dataclass(frozen=True)
class Irrep:
    label: str
    rep: Rep

    @property
    def dim(self) -> int:
        return self.rep.dim


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
        return tuple(Irrep(s, Rep(self.group, d, b.transpose(0, 2, 1)))
                     for s, d, b in zip(self.labels, self.degrees, blocks))


def _classes(degrees) -> tuple:
    """(d, irrep indices, their (m, d^2) kernel columns) per dimension d, ascending."""
    dims, ends = np.array(degrees), np.cumsum(np.square(degrees))
    members = [(d, np.flatnonzero(dims == d)) for d in sorted(set(degrees))]
    return tuple((d, i, (ends[i] - d * d)[:, None] + np.arange(d * d)) for d, i in members)


@dataclass(frozen=True)
class PlancherelCoefficients:
    """Blocks fhat(sigma) in the table's kernel layout: ``flat`` is (sum d^2,), every block flattened
    row-major in table order, or a (..., sum d^2) stack of such rows; ``blocks`` are (..., d, d) views
    of it.  For an invariant projection p and h = p delta_e, the blocks are the fiber projections
    P_sigma and ``ranks`` their ranks."""

    table: IrrepTable
    flat: np.ndarray = field(repr=False)

    @classmethod
    def from_blocks(cls, table: IrrepTable, blocks) -> "PlancherelCoefficients":
        """One d_sigma x d_sigma block per irrep, in table order, laid out flat."""
        rows = []
        for label, d, b in zip(table.labels, table.degrees, blocks):
            b = np.asarray(b, dtype=complex)
            if b.shape != (d, d):
                raise DimensionMismatch(f"fiber block at {label!r} has wrong shape")
            rows.append(b.reshape(-1))
        return cls(table, np.concatenate(rows))

    blocks = functools.cached_property(lambda self: _blocks(self.table, self.flat))

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
    if p > 1 and not _is_prime(p):  # heisenberg:1 is the trivial group
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

    Supports cyclic:n, dihedral:n, heisenberg:p (p prime or 1) and their direct
    products, as tensor products of the factors' irreps, built from the factor
    list :func:`~frametrace.groups.builtin_group` recorded.  A group without one,
    such as a loaded file, gets them when its table is the one its label names;
    other groups raise :class:`UnsupportedGroup` and require a user-supplied table.
    """
    factors = group.factors  # recorded by builtin_group; a loaded table is matched against its label
    if not factors:
        try:
            factors = _parse_spec(group.label)
        except NotAGroup:
            raise UnsupportedGroup(f"no builtin irreps for group {group.label!r}") from None
        if not np.array_equal(group.cayley, _spec_table(factors)):  # shapes first, then entries
            raise UnsupportedGroup(f"group table does not match its label {group.label!r}")
    labels, dims, kernel = functools.reduce(_tensor_product, (_FAMILY_IRREPS[f](n) for f, n in factors))
    return IrrepTable(group, tuple(labels), tuple(dims), kernel)


# ---------------------------------------------------------------------------
# Irreps of any group from its Cayley table: Dixon's split of l2(G) by one Hermitian
# element of the commutant (Dixon 1970, "Computing irreducible representations of groups").


def table_irreps(group: FiniteGroup) -> IrrepTable:
    """Irreducible representations of any finite group, read off its Cayley table.

    For a = a* in the group algebra, the right convolution R_a is Hermitian and commutes with left
    translation; for a generic a, each eigenspace of R_a is an irreducible left-invariant subspace Q,
    of dimension d_sigma, and sigma(x) = Q* lambda(x) Q.  The eigenvalues are clustered at
    ``RANK_CUTOFF`` times the largest, and one eigenspace is kept per character.  a is drawn from a
    fixed seed; a draw that leaves a cluster reducible or an irrep out fails the count of irreps
    (one per conjugacy class) or of sum d^2 = |G|, and the next fixed seed is drawn.  The irreps are
    named and ordered by their dimensions and characters alone, so the draw changes no label.
    """
    for seed in range(3):
        table = _dixon_split(group, np.random.default_rng(seed))
        if table is not None:
            return table
    raise NotComplete(f"no draw split the regular representation of group {group.label!r}")


def _class_labels(group: FiniteGroup) -> np.ndarray:
    """The least element of each element's conjugacy class: entry [x, y] of the gather is x y x^-1."""
    return group.cayley[group.cayley, group.inverses[:, None]].min(axis=0)


def _closure_plan(group: FiniteGroup) -> list:
    """(z, x, y) index arrays with z = x y, one triple per round, reaching each element but e and the
    generators once: Light's doubling closure R <- R R from {e} and the generators, about log2 |G| + 1
    rounds, so a product of generator matrices along it is at most that many levels deep."""
    known = np.zeros(group.order, dtype=bool)
    known[[group.identity, *group.generators]] = True
    plan = []
    while not known.all():
        r, z = np.flatnonzero(known), np.flatnonzero(~known)
        y = group.cayley[group.inverses[r][:, None], z]  # y = x^-1 z: z is in R R where some y is in R
        hit = known[y]
        cols = np.flatnonzero(hit.any(axis=0))
        rows = hit[:, cols].argmax(axis=0)  # the first x of R that reaches z
        plan.append((z[cols], r[rows], y[rows, cols]))
        known[z[cols]] = True
    return plan


def _character_order(chi: np.ndarray, tol: float) -> np.ndarray:
    """The order of the columns of ``chi`` (classes x irreps), lexicographic in the rows -Re, -Im of
    each class in turn, values within ``tol`` of the next smaller one counted equal.  Distinct
    characters differ at some class, so the refinement stops once every irrep is told apart."""
    m = chi.shape[1]
    rank, distinct = np.zeros(m, dtype=np.int64), 1
    for row in np.stack([-chi.real, -chi.imag], axis=1).reshape(-1, m):
        if distinct == m:
            break
        if np.ptp(row) <= tol:  # a row that tells no two irreps apart
            continue
        order = np.argsort(row)
        ties = np.empty(m, dtype=np.int64)
        ties[order] = np.cumsum(np.diff(row[order], prepend=row[order[0]]) > tol)
        values, rank = np.unique(rank * m + ties, return_inverse=True)
        distinct = values.size
    return np.argsort(rank, kind="stable")


def _stacked_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over stacks of small d x d matrices, as d broadcast products: numpy's matmul pays a fixed
    cost per matrix, several times the arithmetic of a 2 x 2 product."""
    return sum(a[..., :, j, None] * b[..., None, j, :] for j in range(a.shape[-1]))


def _dixon_split(group: FiniteGroup, rng: np.random.Generator) -> IrrepTable | None:
    """:func:`table_irreps` from one draw of a; None when the draw does not split l2(G) cleanly."""
    n, e = group.order, group.identity
    z = rng.standard_normal((2, n))
    a = z[0] + 1j * z[1]
    a = GroupVector(group, a + a[group.inverses].conj())  # a = a*: R_a is Hermitian, bit for bit
    w, q = np.linalg.eigh(convolution_operator(a))
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > RANK_CUTOFF * np.abs(w).max())
    dims = np.diff(starts, append=n)
    # The character of a cluster Q: chi(x) = tr(lambda(x) Q Q*) = (|G| / |C|) sum_(z in C) h(z), with
    # h = (Q Q*) delta_e and C the class of x^-1; one reduceat over the clusters, one over the classes.
    reps, cls, sizes = np.unique(_class_labels(group), return_inverse=True, return_counts=True)
    h = np.add.reduceat(q * q[e].conj(), starts, axis=1)
    sums = np.add.reduceat(h[np.argsort(cls, kind="stable")], np.cumsum(sizes) - sizes, axis=0)
    chars = (n / sizes)[:, None] * sums[cls[group.inverses[reps]]]  # (classes, clusters)
    weighted = sizes[:, None] * chars.conj() / n  # <chi_i, chi_j> = chars[:, i] . weighted[:, j]
    # Character inner products are multiplicities, integers: the cluster is irreducible at 1, and two
    # clusters are copies of one irrep at 1.  A 1-dimensional irrep has one eigenspace, so only the
    # clusters of d >= 2 are compared, within their dimension.
    irreducible = np.rint(np.einsum("kc,kc->c", chars, weighted).real) == 1
    kept = []
    for d in map(int, np.unique(dims)):
        c = np.flatnonzero(irreducible & (dims == d))
        if d > 1:
            c = c[~np.tril(np.rint(np.abs(chars[:, c].T @ weighted[:, c])) > 0, -1).any(axis=1)]
        if c.size:
            kept.append((d, c))
    degrees = [d for d, c in kept for _ in c]
    if len(degrees) != reps.size or sum(d * d for d in degrees) != n:
        return None
    # sigma(s) = Q* lambda(s) Q at the generators, (lambda(s) Q)[y] = Q[s^-1 y]; every other element by
    # stacked products along the closure, one stack per dimension class.
    plan = _closure_plan(group)
    blocks = []
    for d, c in kept:
        u = q[:, starts[c][:, None] + np.arange(d)]  # (|G|, m, d)
        uh = u.transpose(1, 2, 0).conj()  # (m, d, |G|)
        mats = np.empty((n, c.size, d, d), dtype=complex)
        mats[e] = np.eye(d)
        for s in group.generators:  # at most log2 |G| of them
            v, _, wh = np.linalg.svd(uh @ u[group.cayley[group.inverses[s]]].swapaxes(0, 1))
            mats[s] = v @ wh  # the polar factor: unitary, and the first-order error of Q* Q - I cancels
        for zs, xs, ys in plan:
            mats[zs] = _stacked_products(mats[xs], mats[ys])
        # Order by the characters at the classes, largest real part first (the trivial irrep leads).
        order = _character_order(np.trace(mats[reps], axis1=-2, axis2=-1), PLANCHEREL_TOL_FLOOR)
        blocks.append(mats[:, order].swapaxes(-1, -2).reshape(n, -1))  # row x: each sigma(x)^T, flat
    labels = tuple(f"sigma{i}" for i in range(len(degrees)))
    return IrrepTable(group, labels, tuple(degrees), np.hstack(blocks))


def validate_irreps(group: FiniteGroup, supplied, tol: float = DEFAULT_TOL) -> IrrepTable:
    """Verify a supplied list of irreps and assemble an :class:`IrrepTable`.

    Checks each entry for the representation axioms, irreducibility and
    pairwise inequivalence (via character orthogonality), and completeness
    sum d^2 = |G|; then stacks them once into the kernel layout.
    """
    irreps = [e if isinstance(e, Irrep) else Irrep(*e) for e in supplied]
    for s in irreps:
        if s.rep.group != group:
            raise NotHomomorphism(f"irrep {s.label!r} lives on a different group")
        try:
            s.rep.validate(tol=tol)
        except NotInvariant as exc:
            raise NotHomomorphism(f"irrep {s.label!r}: {exc}") from exc
    # gram[i, j] = <chi_i, chi_j> / |G|: every character norm and overlap from one product
    chars = np.array([s.rep.character() for s in irreps]).reshape(len(irreps), group.order)
    gram = chars @ chars.conj().T / group.order
    loose = max(tol, PLANCHEREL_TOL_FLOOR)
    bad_norms = np.flatnonzero(~(np.abs(gram.diagonal().real - 1.0) <= loose))  # a NaN norm fails
    if bad_norms.size:
        i = bad_norms[0]
        raise NotIrreducible(f"irrep {irreps[i].label!r} has character norm^2 {gram[i, i].real:.6f}")
    equivalent = np.argwhere(np.triu(~(np.abs(gram) <= loose), 1))  # pairs i < j, row-major; NaN fails
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


def _synthesis(table: IrrepTable, flat: np.ndarray) -> np.ndarray:
    """The samples of flat coefficients: M (w c)."""
    return table.kernel @ (_weights(table) * flat)


def _blocks(table: IrrepTable, flat: np.ndarray) -> tuple:
    """Split (..., sum d^2) flat coefficients into the (..., d_sigma, d_sigma) blocks, as views."""
    ends = np.cumsum(np.square(table.degrees))
    return tuple(flat[..., e - d * d:e].reshape(*flat.shape[:-1], d, d) for d, e in zip(table.degrees, ends))


def plancherel_transform(table: IrrepTable, f: GroupVector) -> PlancherelCoefficients:
    """Blocks fhat(sigma) = sum_x f(x) sigma(x)^*."""
    return PlancherelCoefficients(table, _coefficients(table, _samples(table, f)))


def inverse_plancherel(coeffs: PlancherelCoefficients) -> GroupVector:
    """f(x) = sum_sigma (d_sigma/|G|) trace(sigma(x) fhat(sigma))."""
    return GroupVector(coeffs.table.group, _synthesis(coeffs.table, coeffs.flat))


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
    flat = _coefficients(table, np.stack([_samples(table, v) for v in (convolve(f, g), f, g)]))
    residual = max(  # one stacked product per dimension class
        float(np.max(np.linalg.norm(c - bg @ bf, axis=(1, 2))))
        for d, _, cols in table.classes for c, bf, bg in [flat[:, cols].reshape(3, -1, d, d)]
    )
    return CheckResult(name="convolution_to_product", residual=residual, tol=tol)


# ---------------------------------------------------------------------------
# Fiber projections and the type-I admissibility criterion


def _fibers(table: IrrepTable, p: InvariantProjection, tol: float, *vectors, ph=None):
    """The coefficients of h = p delta_e, or with ``vectors`` of the stack [h, *vectors], from one
    transform; names the first irrep whose block of h is not idempotent, or else not Hermitian, one
    test per dimension class.  ``ph`` is p h for ``InvariantProjection.validate``, when the caller has it."""
    if p.group != table.group:
        raise DimensionMismatch("projection and table belong to different groups")
    p.validate(tol=tol, ph=ph)
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
    return PlancherelCoefficients(table, flat if vectors else flat[0])


def fiber_projections(
    table: IrrepTable, p: InvariantProjection, tol: float = DEFAULT_TOL
) -> PlancherelCoefficients:
    """Per-irrep projections carrying p to a direct sum of 1 (x) P_sigma.

    The blocks are the transform of h = p delta_e; invariance of p makes each
    block Hermitian idempotent, which is verified.
    """
    return _fibers(table, p, tol)


def projection_from_fibers(table: IrrepTable, projections) -> InvariantProjection:
    """Synthesize the invariant projection with prescribed fiber projections."""
    return InvariantProjection(inverse_plancherel(PlancherelCoefficients.from_blocks(table, projections)))


@dataclass(frozen=True)
class FiberSubspace:
    """An invariant subspace of l2(G) held on the Plancherel fibers: P_sigma = u u*, with ``ranges``
    holding, per (dimension, rank) class of the irreps where P_sigma is not 0, their (m, d^2) kernel
    columns and an (m, d, r) stack u of orthonormal columns.  An operator that commutes with left
    translation acts on every block by left multiplication, so the frame operator, its inverse and
    its inverse root on the subspace are small stacked products, never a |G| x |G| matrix."""

    table: IrrepTable
    ranges: tuple = field(repr=False)

    def projection(self) -> InvariantProjection:
        """The invariant projection p = R_h onto the subspace: hhat(sigma) = P_sigma."""
        flat = np.zeros(self.table.kernel.shape[1], dtype=complex)
        for cols, u in self.ranges:
            flat[cols] = (u @ u.conj().swapaxes(-1, -2)).reshape(cols.shape)
        return InvariantProjection(inverse_plancherel(PlancherelCoefficients(self.table, flat)))

    def frame_solve(self, eta, sqrt: bool = False) -> np.ndarray:
        """S^-1 eta (S^-1/2 eta with ``sqrt``) on the subspace, for S the frame operator of eta projected
        to it.  S acts on fiber sigma as left multiplication by chat = P etahat etahat* P, so in the
        coordinates u, with b = u* etahat = U diag(s) V*, psihat = u U diag(1/s) V* (or u U V*, b's polar
        factor).  ``frame_svds`` takes one ``EIG_FLOOR`` decision over every s^2, the eigenvalues of S on
        the subspace without their multiplicities d_sigma, and raises :class:`NotInvertible` if it fails."""
        flat = _coefficients(self.table, _samples(self.table, eta))
        bs = [u.conj().swapaxes(-1, -2) @ flat[cols].reshape(*u.shape[:2], -1) for cols, u in self.ranges]
        out = np.zeros_like(flat)
        for (cols, u), (left, s, vh) in zip(self.ranges, frame_svds(bs)):
            out[cols] = (u @ (left if sqrt else left / s[..., None, :]) @ vh).reshape(cols.shape)
        return _synthesis(self.table, out)


def fiber_subspace(table: IrrepTable, vectors=None) -> FiberSubspace:
    """The span of the left-translation orbits of ``vectors`` in l2(G) (all of l2(G) for None).

    Left translation multiplies each block on the right, so the orbits of v_1..v_k span the f with
    fhat(sigma) in the column span of the d x kd block [v_1hat(sigma) ... v_khat(sigma)].  Its singular
    values are those of the orbit matrix [R_v1 ... R_vk], each d_sigma times, so its rank counts the
    singular values above ``RANK_CUTOFF`` times the largest over all sigma, as ``orthonormal_columns``
    does for the orbit matrix.  One transform and one stacked SVD per dimension class.
    """
    if vectors is None:
        return FiberSubspace(table, tuple((cols, np.broadcast_to(np.eye(d), (len(members), d, d)))
                                          for d, members, cols in table.classes))
    if len(vectors) == 0:
        return FiberSubspace(table, ())
    flat = _coefficients(table, np.stack([_samples(table, v) for v in vectors]))
    svds = []  # (d, cols, u, s) per dimension class; block [v_1hat ... v_khat] is (m, d, k d)
    for d, members, cols in table.classes:
        blocks = flat[:, cols].reshape(-1, len(members), d, d).transpose(1, 2, 0, 3)
        svds.append((d, cols, *np.linalg.svd(blocks.reshape(len(members), d, -1), full_matrices=False)[:2]))
    cut = RANK_CUTOFF * max(float(s.max()) for *_, s in svds)
    ranges = []
    for d, cols, u, s in svds:
        ranks = np.sum(s > cut, axis=-1)
        ranges += [(cols[ranks == r], u[ranks == r, :, :r]) for r in range(1, d + 1) if np.any(ranks == r)]
    return FiberSubspace(table, tuple(ranges))


def fiber_admissibility_check(
    table: IrrepTable,
    p: InvariantProjection,
    eta: GroupVector,
    psi: GroupVector,
    tol: float = DEFAULT_TOL,
    applied: np.ndarray | None = None,
) -> CheckResult:
    """Fiberwise admissibility: psihat(sigma) etahat(sigma)^* = P_sigma, all sigma.

    eta and psi must lie in range(p).  Equivalent to admissibility of
    (eta, psi) for left translation restricted to range(p).  ``applied`` is p [eta, psi, h] as a
    (|G|, 3) array, when the caller has it: the range test and the validation of p read it.
    """
    vs = np.column_stack([eta.data, psi.data, p.h.data])
    if applied is None:
        applied = p.apply(vs)  # one stacked gather of h for all three
    for name, v, leak in zip(("eta", "psi"), vs.T, np.linalg.norm(applied[:, :2] - vs[:, :2], axis=0)):
        if not within_tol(leak, max(tol, PLANCHEREL_TOL_FLOOR), v):
            raise NotInRange(f"{name} is not in the range of the projection")
    flat = _fibers(table, p, tol, eta, psi, ph=applied[:, 2]).flat
    residual = max(  # one stacked product per dimension class
        float(np.max(np.linalg.norm(bp @ be.conj().swapaxes(-1, -2) - pb, axis=(1, 2))))
        for d, _, cols in table.classes for pb, be, bp in [flat[:, cols].reshape(3, -1, d, d)]
    )
    return CheckResult(name="fiber_admissibility", residual=residual, tol=tol)


def rank_measure(field: PlancherelCoefficients) -> float:
    """nu_H = sum_sigma (d_sigma/|G|) rank(P_sigma), ranks by the 1/2 threshold."""
    return sum(d * r for d, r in zip(field.table.degrees, field.ranks)) / field.table.group.order


def isotypic_projection(table: IrrepTable, label: str) -> InvariantProjection:
    """Projection onto the full isotypic component of one irrep inside l2(G)."""
    if label not in table.labels:
        raise KeyError(f"no irrep labelled {label!r}")
    return projection_from_fibers(
        table, [np.eye(d, dtype=complex) * (s == label) for s, d in zip(table.labels, table.degrees)]
    )
