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

import re
from dataclasses import dataclass, field

import numpy as np

from .commutant import commutant_of_matrices
from .errors import (
    DimensionMismatch,
    NotComplete,
    NotHomomorphism,
    NotInequivalent,
    NotInRange,
    NotIrreducible,
    UnsupportedGroup,
)
from .frames import InvariantProjection
from .groups import (
    _SPEC_RE, FiniteGroup, GroupVector, Rep, _product_table, builtin_group, convolution_operator,
)
from .numerics import DEFAULT_TOL
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

    def weights(self) -> np.ndarray:
        """Plancherel weights d_sigma / |G|."""
        return np.array([s.dim for s in self.irreps], dtype=float) / self.group.order

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

    def ranks(self) -> list[int]:
        out = []
        for p in self.projections:
            w = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
            out.append(int(np.sum(w > 0.5)))
        return out


# ---------------------------------------------------------------------------
# Builtin irreducible representations


def _cyclic_irreps(group: FiniteGroup, n: int) -> list[Irrep]:
    out = []
    js = np.arange(n)
    for k in range(n):
        chars = np.exp(2j * np.pi * k * js / n)
        mats = chars.reshape(n, 1, 1)
        out.append(Irrep(label=f"chi{k}", dim=1, rep=Rep(group=group, dim=1, matrices=mats)))
    return out


def _dihedral_irreps(group: FiniteGroup, n: int) -> list[Irrep]:
    # Elements 0..n-1 are rotations r^j, n..2n-1 are reflections s r^j.
    out = []

    def one_dim(r_val: complex, s_val: complex, label: str) -> Irrep:
        vals = np.empty(2 * n, dtype=complex)
        vals[:n] = r_val ** np.arange(n)
        vals[n:] = s_val * r_val ** np.arange(n)
        return Irrep(label=label, dim=1, rep=Rep(group=group, dim=1, matrices=vals.reshape(-1, 1, 1)))

    out.append(one_dim(1.0, 1.0, "triv"))
    out.append(one_dim(1.0, -1.0, "sgn"))
    if n % 2 == 0:
        out.append(one_dim(-1.0, 1.0, "alt+"))
        out.append(one_dim(-1.0, -1.0, "alt-"))
    omega = np.exp(2j * np.pi / n)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for h in range(1, (n + 1) // 2 if n % 2 else n // 2):
        mats = np.zeros((2 * n, 2, 2), dtype=complex)
        for j in range(n):
            rot = np.diag([omega ** (h * j), omega ** (-h * j)])
            mats[j] = rot
            mats[n + j] = flip @ rot
        out.append(Irrep(label=f"rho{h}", dim=2, rep=Rep(group=group, dim=2, matrices=mats)))
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n ** 0.5) + 1))


def _heisenberg_irreps(group: FiniteGroup, p: int) -> list[Irrep]:
    if not _is_prime(p):
        raise UnsupportedGroup(
            f"builtin Heisenberg irreps require a prime modulus, got {p}"
        )
    n = p
    out = []
    omega = np.exp(2j * np.pi / n)

    def coords(idx: int) -> tuple[int, int, int]:
        x, r = divmod(idx, n * n)
        y, z = divmod(r, n)
        return x, y, z

    for a in range(n):
        for b in range(n):
            vals = np.array(
                [omega ** ((a * x + b * y) % n) for x, y, _ in map(coords, range(n ** 3))],
                dtype=complex,
            )
            out.append(
                Irrep(
                    label=f"chi{a},{b}",
                    dim=1,
                    rep=Rep(group=group, dim=1, matrices=vals.reshape(-1, 1, 1)),
                )
            )
    # p-dimensional irreps, one per nontrivial central character:
    # (pi_c(x, y, z) f)(t) = omega^(c (z + y t)) f(t + x)
    for c in range(1, n):
        mats = np.zeros((n ** 3, n, n), dtype=complex)
        for idx in range(n ** 3):
            x, y, z = coords(idx)
            for t in range(n):
                mats[idx, t, (t + x) % n] = omega ** ((c * (z + y * t)) % n)
        out.append(Irrep(label=f"pi{c}", dim=n, rep=Rep(group=group, dim=n, matrices=mats)))
    return out


def _tensor_irreps(group: FiniteGroup, parts: list[list[Irrep]], orders: list[int]) -> list[Irrep]:
    if len(parts) == 1:
        return parts[0]
    tail_group_order = int(np.prod(orders[1:]))
    tail = _tensor_irreps(group, parts[1:], orders[1:])
    out = []
    for s1 in parts[0]:
        for s2 in tail:
            d = s1.dim * s2.dim
            mats = np.zeros((group.order, d, d), dtype=complex)
            for i1 in range(orders[0]):
                for i2 in range(tail_group_order):
                    mats[i1 * tail_group_order + i2] = np.kron(
                        s1.rep.matrices[i1], s2.rep.matrices[i2]
                    )
            out.append(
                Irrep(label=f"{s1.label}*{s2.label}", dim=d, rep=Rep(group=group, dim=d, matrices=mats))
            )
    return out


def builtin_irreps(group: FiniteGroup) -> IrrepTable:
    """Irreducible representations for the builtin group families.

    Supports cyclic:n, dihedral:n, heisenberg:p (p prime) and their direct
    products; other groups raise :class:`UnsupportedGroup` and require a
    user-supplied table, and so does a table that differs from the one its label names.
    """
    parts = [p.strip() for p in re.split(r"\s*x\s*", group.label.strip()) if p.strip()]
    if not parts or not all(_SPEC_RE.match(p) for p in parts):
        raise UnsupportedGroup(
            f"no builtin irreps for group {group.label!r}; supply a table"
        )
    factor_irreps = []
    orders = []
    table = None
    for part in parts:
        family, n_str = part.split(":")
        n = int(n_str)
        sub = builtin_group(part)
        if family == "cyclic":
            factor_irreps.append(_cyclic_irreps(sub, n))
        elif family == "dihedral":
            factor_irreps.append(_dihedral_irreps(sub, n))
        else:
            factor_irreps.append(_heisenberg_irreps(sub, n))
        orders.append(sub.order)
        table = sub.cayley if table is None else _product_table(table, sub.cayley)
    if not np.array_equal(group.cayley, table):
        raise UnsupportedGroup(f"group table does not match its label {group.label!r}")
    if len(parts) == 1:
        irreps = [
            Irrep(s.label, s.dim, Rep(group=group, dim=s.dim, matrices=s.rep.matrices))
            for s in factor_irreps[0]
        ]
    else:
        irreps = _tensor_irreps(group, factor_irreps, orders)
    return IrrepTable(group=group, irreps=tuple(irreps))


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
    chars = [s.rep.character() for s in irreps]
    for s, chi in zip(irreps, chars):
        norm2 = float(np.vdot(chi, chi).real) / group.order
        if abs(norm2 - 1.0) > max(tol, 1e-8):
            raise NotIrreducible(f"irrep {s.label!r} has character norm^2 {norm2:.6f}")
    for i in range(len(irreps)):
        for j in range(i + 1, len(irreps)):
            overlap = abs(np.vdot(chars[j], chars[i])) / group.order
            if overlap > max(tol, 1e-8):
                raise NotInequivalent(
                    f"irreps {irreps[i].label!r} and {irreps[j].label!r} are equivalent"
                )
    if sum(s.dim ** 2 for s in irreps) != group.order:
        raise NotComplete(
            f"sum of squared dims {sum(s.dim ** 2 for s in irreps)} != |G| = {group.order}"
        )
    return IrrepTable(group=group, irreps=tuple(irreps))


def irreducibility_by_commutant(rep: Rep) -> int:
    """Commutant dimension of a rep; 1 means irreducible.  Cross-check oracle."""
    return len(commutant_of_matrices(rep.matrices))


# ---------------------------------------------------------------------------
# Transform and inverse


def plancherel_transform(table: IrrepTable, f: GroupVector) -> PlancherelCoefficients:
    """Blocks fhat(sigma) = sum_x f(x) sigma(x)^*."""
    if f.group != table.group:
        raise DimensionMismatch("vector and irrep table belong to different groups")
    blocks = tuple(
        np.einsum("x,xij->ji", f.data, s.rep.matrices.conj()) for s in table.irreps
    )
    return PlancherelCoefficients(table=table, blocks=blocks)


def inverse_plancherel(coeffs: PlancherelCoefficients) -> GroupVector:
    """f(x) = sum_sigma (d_sigma/|G|) trace(sigma(x) fhat(sigma))."""
    table = coeffs.table
    n = table.group.order
    data = np.zeros(n, dtype=complex)
    for s, block in zip(table.irreps, coeffs.blocks):
        data += (s.dim / n) * np.einsum("xij,ji->x", s.rep.matrices, block)
    return GroupVector(table.group, data)


def parseval_residual(table: IrrepTable, f: GroupVector) -> float:
    coeffs = plancherel_transform(table, f)
    total = sum(
        (s.dim / table.group.order) * float(np.linalg.norm(b) ** 2)
        for s, b in zip(table.irreps, coeffs.blocks)
    )
    return abs(total - f.norm() ** 2)


def convolution_to_product_check(
    table: IrrepTable, f: GroupVector, g: GroupVector, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Pin the convolution transport: (f * g)^(sigma) = ghat(sigma) fhat(sigma)."""
    from .groups import convolve

    fg = plancherel_transform(table, convolve(f, g))
    fhat = plancherel_transform(table, f)
    ghat = plancherel_transform(table, g)
    residual = max(
        float(np.linalg.norm(c - bg @ bf))
        for c, bf, bg in zip(fg.blocks, fhat.blocks, ghat.blocks)
    )
    return CheckResult(name="convolution_to_product", residual=residual, tol=tol)


# ---------------------------------------------------------------------------
# Fiber projections and the type-I admissibility criterion


def fiber_projections(
    table: IrrepTable, p: InvariantProjection, tol: float = DEFAULT_TOL
) -> FiberProjectionField:
    """Per-irrep projections carrying p to a direct sum of 1 (x) P_sigma.

    The blocks are the transform of h = p delta_e; invariance of p makes each
    block Hermitian idempotent, which is verified.
    """
    if p.group != table.group:
        raise DimensionMismatch("projection and table belong to different groups")
    p.validate(tol=tol)
    h = GroupVector(table.group, p.matrix[:, table.group.identity])
    blocks = plancherel_transform(table, h).blocks
    for s, b in zip(table.irreps, blocks):
        if np.linalg.norm(b @ b - b) > max(tol, 1e-8) * max(1.0, np.linalg.norm(b)):
            raise NotInvariant(f"fiber block at {s.label!r} is not idempotent")
        if np.linalg.norm(b - b.conj().T) > max(tol, 1e-8) * max(1.0, np.linalg.norm(b)):
            raise NotInvariant(f"fiber block at {s.label!r} is not Hermitian")
    return FiberProjectionField(table=table, projections=blocks)


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
    return InvariantProjection(group=group, matrix=convolution_operator(h, side="right"))


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
        if leak > max(tol, 1e-8) * max(1.0, v.norm()):
            raise NotInRange(f"{name} is not in the range of the projection")
    field = fiber_projections(table, p, tol=tol)
    etahat = plancherel_transform(table, eta).blocks
    psihat = plancherel_transform(table, psi).blocks
    residual = max(
        float(np.linalg.norm(bp @ be.conj().T - pb))
        for be, bp, pb in zip(etahat, psihat, field.projections)
    )
    return CheckResult(name="fiber_admissibility", residual=residual, tol=tol)


def rank_measure(field: FiberProjectionField) -> float:
    """nu_H = sum_sigma (d_sigma/|G|) rank(P_sigma), ranks by the 1/2 threshold."""
    n = field.table.group.order
    return float(
        sum(s.dim * r for s, r in zip(field.table.irreps, field.ranks())) / n
    )


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
