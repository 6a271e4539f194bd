"""Finite groups, functions on them, convolution, and unitary representations.

Group elements are dense indices 0..n-1; the multiplication table is the only
source of truth.  Functions on the group live in l2(G) with counting measure
and inner product <f, g> = sum_x f(x) conj(g(x)).
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotAGroup, NotInvariant
from .numerics import DEFAULT_TOL, as_vector, within_tol

#: Largest group order supported, for builtin and loaded groups alike.
MAX_ORDER = 512


def check_order(order: int) -> None:
    """Refuse a group of more than :data:`MAX_ORDER` elements, before any table of it exists."""
    if order > MAX_ORDER:
        raise NotAGroup(f"order {order} exceeds the supported maximum {MAX_ORDER}")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table of element indices.

    A loaded group holds the table it was validated from and its inverses.  A builtin group holds
    None for both and writes them from its factors on the first read of :attr:`cayley` or
    :attr:`inverses`: the Plancherel side (``group analyze``) reads neither.
    """

    order: int
    _cayley: np.ndarray | None
    identity: int
    _inverses: np.ndarray | None
    generators: tuple  # indices whose left-bracketed words (...((e s1) s2)...) reach every element
    label: str = ""
    factors: tuple = ()  # the (family, n) factors of a builtin group, as builtin_group parsed them

    @functools.cached_property
    def cayley(self) -> np.ndarray:
        """The read-only Cayley table: entry [x, y] is the index of x y."""
        if self._cayley is not None:
            return self._cayley
        table = _spec_table(self.factors)
        table.setflags(write=False)
        return table

    @functools.cached_property
    def inverses(self) -> np.ndarray:
        """The read-only index of each element's inverse."""
        if self._inverses is not None:
            return self._inverses
        inverses = np.argmax(self.cayley == self.identity, axis=1)
        inverses.setflags(write=False)
        return inverses

    def mul(self, x: int, y: int) -> int:
        return int(self.cayley[x, y])

    def inv(self, x: int) -> int:
        return int(self.inverses[x])

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and np.array_equal(self.cayley, other.cayley)
        )

    def __hash__(self):
        # Consistent with __eq__, which compares the table and ignores label, generators and factors.
        return hash((self.order, np.asarray(self.cayley, dtype=np.int64).tobytes()))


def group_from_cayley(table, label: str = "", *, copy: bool = True) -> FiniteGroup:
    """Validate a multiplication table and build a :class:`FiniteGroup`.

    Checks, in order: shape, Latin-square property, existence of an identity,
    inverses, and associativity.  Raises :class:`NotAGroup` naming the
    first violated axiom.  A table with a two-sided identity and inverses that
    passes Light's test is a group, hence a Latin square, so the O(n^2 log n)
    Latin sort runs only once a later check has failed, to name the axiom.

    A caller's array stays as it was: the group's read-only table is a copy, unless ``copy`` is
    False, where a writeable int64 array that the caller will not use again is frozen in place.
    """
    cayley = np.asarray(table, dtype=np.int64)
    shared = copy and isinstance(table, np.ndarray) and np.may_share_memory(cayley, table)
    if shared or not cayley.flags.writeable:  # np.take copies a read-only index array on every gather
        cayley = cayley.copy()
    if cayley.ndim != 2 or cayley.shape[0] != cayley.shape[1]:
        raise NotAGroup("table is not square")
    n = cayley.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    check_order(n)
    if cayley.min() < 0 or cayley.max() >= n:
        raise NotAGroup("entries are not element indices")

    idx = np.arange(n)
    try:
        identity = next((e for e in range(n) if np.array_equal(cayley[e], idx)
                         and np.array_equal(cayley[:, e], idx)), -1)
        if identity < 0:
            raise NotAGroup("no two-sided identity")
        inverses = np.argmax(cayley == identity, axis=1)
        if not (np.all(cayley[idx, inverses] == identity) and np.all(cayley[inverses, idx] == identity)):
            raise NotAGroup("inverses missing")
        # Associativity by Light's test: the z with (xy)z = x(yz) for all x, y contain e and are closed
        # under products, so one O(n^2) slice per z in a greedy set S suffices once the words (...((e s1)
        # s2)...) reach every element.  As each s passed, those are the closure R of {e} u S: R <- R R,
        # about log2 |G| + 1 rounds.  R is a group, so by Lagrange each s doubles it: |S| <= log2 |G|.
        reached, gens = idx == identity, []
        while not reached.all():
            z = int(np.argmin(reached))
            col = cayley[:, z]
            if not np.array_equal(np.take(col, cayley), np.take(cayley, col, axis=1)):  # (xy)z vs x(yz)
                raise NotAGroup("associativity fails")
            gens.append(z)
            reached[z] = True
            while not reached.all():
                r = idx[reached]
                grown = np.zeros(n, dtype=bool)
                grown[np.take(cayley[r], r, axis=1)] = True  # R R contains R, as e is in R
                if np.count_nonzero(grown) == r.size:
                    break
                reached = grown
    except NotAGroup:
        if not (np.all(np.sort(cayley, axis=1) == idx) and np.all(np.sort(cayley, axis=0) == idx[:, None])):
            raise NotAGroup("Latin square property fails") from None
        raise
    cayley.setflags(write=False)
    inverses.setflags(write=False)
    return FiniteGroup(n, cayley, identity, inverses, tuple(gens), label)


def _cyclic_table(n: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(np.arange(2 * n - 1) % n, n).copy()


def _dihedral_table(n: int) -> np.ndarray:
    """Dihedral group of order 2n; indices 0..n-1 are r^j, n..2n-1 are s r^j."""
    windows = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n) % n, n)  # row i: (i + j) % n
    rot, ref = windows[:n], windows[n:0:-1]  # (i + j) % n and (j - i) % n
    out = np.empty((2 * n, 2 * n), dtype=np.int64)
    # r^i r^j = r^(i+j), r^i (s r^j) = s r^(j-i), (s r^i) r^j = s r^(i+j), (s r^i)(s r^j) = r^(j-i)
    out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:] = rot, ref + n, rot + n, ref
    return out


def _heisenberg_table(n: int) -> np.ndarray:
    """Unitriangular 3x3 matrices over Z_n; element (x, y, z) has index x n^2 + y n + z."""
    # (x, y, z)(x2, y2, z2) = (x + x2, y + y2, z + z2 + x y2): (x, y) multiplies in Z_n x Z_n, and
    # z + z2 + x y2 is one lookup in the cyclic table, for the n^3 values of (x, y2, z2).
    c, i = _cyclic_table(n), np.arange(n)
    zs = c[i[:, None, None], (np.outer(i, i)[:, None, :, None] + i) % n]  # [x, z, y2, z2]
    xy = _product_table(c, c).reshape(n, n, n, n)  # [x, y, x2, y2]
    return (xy[:, :, None, :, :, None] * n + zs[:, None, :, None]).reshape(n ** 3, n ** 3)


def _product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    n = len(t1) * len(t2)
    return (t1[:, None, :, None] * len(t2) + t2[None, :, None, :]).reshape(n, n)


_SPEC_RE = re.compile(r"(cyclic|dihedral|heisenberg):([0-9]+)")

#: Group order, Cayley table and generators of each builtin family, by its parameter n.  The
#: generators are r of Z_n, r and s of D_n, and the elementary matrices z, y, x of the Heisenberg group.
_FAMILIES = {
    "cyclic": (lambda n: n, _cyclic_table, lambda n: (1,)),
    "dihedral": (lambda n: 2 * n, _dihedral_table, lambda n: (1, n)),
    "heisenberg": (lambda n: n ** 3, _heisenberg_table, lambda n: (1, n, n * n)),
}


def _parse_spec(spec: str) -> list[tuple[str, int]]:
    """The ``(family, n)`` factors of a group spec such as ``cyclic:2 x dihedral:3``.

    Refuses a spec whose order exceeds :data:`MAX_ORDER` (:func:`check_order`) before any table exists.
    """
    parts = [p.strip() for p in spec.split("x")]
    if not all(parts):
        raise NotAGroup(f"empty factor in group spec {spec!r}")
    factors = []
    for part in parts:
        m = _SPEC_RE.fullmatch(part)
        if not m:
            raise NotAGroup(f"unknown group spec {part!r}")
        family, n = m.group(1), int(m.group(2))
        if n < 1:
            raise NotAGroup("group parameter must be at least 1")
        factors.append((family, n))
    check_order(math.prod(_FAMILIES[family][0](n) for family, n in factors))
    return factors


def _spec_table(factors: list[tuple[str, int]]) -> np.ndarray:
    """Cayley table of the direct product of the factors, first factor outermost."""
    return functools.reduce(_product_table, (_FAMILIES[f][1](n) for f, n in factors))


def builtin_group(spec: str) -> FiniteGroup:
    """Build one of the named group families.

    Supported specs: ``cyclic:n``, ``dihedral:n`` (order 2n), ``heisenberg:n``
    (order n^3), and direct products joined with ``x``, for example
    ``cyclic:2 x dihedral:3``.  The order, identity (index 0) and generators come from the family
    formulas, unvalidated: they are the ones :func:`group_from_cayley` finds.  No table is written
    here; the group writes it, and its inverses, when they are first read.
    """
    factors = _parse_spec(spec)
    gens, order = [], 1
    for family, n in reversed(factors):  # the last factor is innermost: it holds the lowest indices
        size, _, words = _FAMILIES[family]
        gens += [order * s for s in dict.fromkeys(words(n)) if s < size(n)]
        order *= size(n)
    label = " x ".join(f"{family}:{n}" for family, n in factors)
    return FiniteGroup(order, None, 0, None, tuple(gens), label, tuple(factors))


@dataclass(frozen=True)
class GroupVector:
    """A complex function on a finite group, an element of l2(G)."""

    group: FiniteGroup
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = as_vector(self.data)
        if d.shape[0] != self.group.order:
            raise DimensionMismatch(
                f"vector length {d.shape[0]} != group order {self.group.order}"
            )
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    def inner(self, other: "GroupVector") -> complex:
        _same_group(self, other)
        return complex(np.sum(self.data * other.data.conj()))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def delta(group: FiniteGroup, x: int) -> GroupVector:
    d = np.zeros(group.order, dtype=complex)
    d[x] = 1.0
    return GroupVector(group, d)


def _same_group(f: GroupVector, g: GroupVector) -> None:
    if f.group != g.group:
        raise DimensionMismatch("vectors live on different groups")


def convolve(f: GroupVector, g: GroupVector) -> GroupVector:
    """(f * g)(x) = sum_y f(y) g(y^-1 x) with counting measure."""
    _same_group(f, g)
    return GroupVector(f.group, star_convolve(f.group, involution(f).data, g.data))


def involution(f: GroupVector) -> GroupVector:
    """f*(x) = conj(f(x^-1))."""
    return GroupVector(f.group, f.data[f.group.inverses].conj())


def convolution_operator(f: GroupVector) -> np.ndarray:
    """Matrix of right convolution g -> g * f: entry [x, y] = f(y^-1 x)."""
    group = f.group
    return f.data[group.cayley[group.inverses]].T.copy()


def star_convolve(group: FiniteGroup, eta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The data of eta* * psi, c(x) = sum_z conj eta(z) psi(z x), from data arrays in one table gather.

    For left translation on l2(G), V_psi^* V_eta = R_c, right convolution by c; the frame operator
    V_eta^* V_eta is R_(eta* * eta).  The columns of a (|G|, k) ``eta`` give the k products at once.
    """
    return psi[group.cayley].T @ eta.conj()


@dataclass(frozen=True)
class Rep:
    """A unitary representation: one d x d matrix per group element."""

    group: FiniteGroup
    dim: int
    matrices: np.ndarray = field(repr=False)  # shape (order, dim, dim)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=complex).view()  # freezes a view, not the caller's array
        if mats.shape != (self.group.order, self.dim, self.dim):
            raise DimensionMismatch(
                f"expected matrices of shape {(self.group.order, self.dim, self.dim)}, "
                f"got {mats.shape}"
            )
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def __getitem__(self, x: int) -> np.ndarray:
        return self.matrices[x]

    def homomorphism_residual(self) -> float:
        """delta = max_{x, s in S} ||rep(x)rep(s) - rep(xs)||_F over the generators S, 0 for a homomorphism.

        For unitary matrices (2|G| - 1) delta bounds d = max_{x,y} ||rep(x)rep(y) - rep(xy)||_F.  Let d_k
        be that max over words y = y's of length <= k in S.  From rep(x)rep(y) - rep(xy) = rep(x)[rep(y's)
        - rep(y')rep(s)] + [rep(x)rep(y') - rep(xy')]rep(s) + [rep(xy')rep(s) - rep(xy)], d_k <= d_(k-1)
        + 2 delta; d_0 = ||rep(e) - Id||_F = ||rep(e)rep(s) - rep(es)||_F <= delta; every y has k < |G|,
        so d <= (2|G| - 1) delta.  The trivial group has no generators and is checked on S = {e}."""
        m, cayley, gens = self.matrices, self.group.cayley, self.group.generators or (self.group.identity,)
        return max(float(np.max(np.linalg.norm(m @ m[s] - m[cayley[:, s]], axis=(1, 2)))) for s in gens)

    def unitarity_residual(self) -> float:
        eye = np.eye(self.dim)
        prods = self.matrices @ self.matrices.conj().transpose(0, 2, 1)
        return float(np.max(np.linalg.norm(prods - eye, axis=(1, 2))))

    def identity_residual(self) -> float:
        return float(np.linalg.norm(self.matrices[self.group.identity] - np.eye(self.dim)))

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        if not self.identity_residual() <= tol:  # "not <=": a NaN residual fails
            raise NotInvariant("rep does not map the identity to Id")
        if not self.unitarity_residual() <= tol:
            raise NotInvariant("rep matrices are not unitary within tolerance")
        if not self.homomorphism_residual() <= tol:
            raise NotInvariant("rep is not a homomorphism within tolerance")

    def character(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


def left_regular_rep(group: FiniteGroup) -> Rep:
    """Permutation matrices of left translation: (lambda(x) f)(y) = f(x^-1 y)."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    cols = np.arange(n)
    for x in group.elements():
        mats[x, group.cayley[x], cols] = 1.0  # lambda(x) delta_y = delta_{xy}
    return Rep(group=group, dim=n, matrices=mats)


def restrict_rep(rep: Rep, basis, tol: float = DEFAULT_TOL) -> Rep:
    """Compress ``rep`` to the span of ``basis`` (a list of orthonormal vectors).

    The span must be invariant; otherwise :class:`NotInvariant` is raised.
    """
    q = np.column_stack([as_vector(v) for v in basis])
    if np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) > tol:
        raise NotInvariant("basis vectors are not orthonormal")
    proj = q @ q.conj().T
    eye = np.eye(rep.dim)
    for x in rep.group.elements():
        leak = (eye - proj) @ rep.matrices[x] @ q
        if not within_tol(np.linalg.norm(leak), tol, q):
            raise NotInvariant(f"span is not invariant under element {x}")
    compressed = np.einsum("ij,xjk,kl->xil", q.conj().T, rep.matrices, q, optimize=True)
    return Rep(group=rep.group, dim=q.shape[1], matrices=compressed)
