"""Test-only oracles: earlier algorithms kept to check the package's current ones.

Import from a test module as ``from oracles import ...`` (pytest puts ``tests/``
on ``sys.path``).
"""
from __future__ import annotations

import functools
import json

import numpy as np

from frametrace.commutant import commutant_of_matrices
from frametrace.errors import DimensionMismatch, InvariantViolated, NotAGroup, NotInvariant
from frametrace.frames import InvariantProjection
from frametrace.gabor import GaborSystem, WHGroup, _walnut_blocks, gabor_coefficient_map
from frametrace.groups import (
    MAX_ORDER,
    FiniteGroup,
    GroupVector,
    Rep,
    convolution_operator,
    group_from_cayley,
    star_convolve,
)
from frametrace.numerics import (
    DEFAULT_TOL,
    PLANCHEREL_TOL_FLOOR,
    PROJECTION_RANK_CUT,
    _unit_roots,
    as_vector,
    eig_hermitian,
    within_tol,
)
from frametrace.plancherel import plancherel_transform

#: Smallest spectral gap, relative to the spread of the spectrum, at which
#: :func:`random_invariant_projection_spectral` may cut.
SPECTRAL_GAP = 1e-6


def random_invariant_projection_spectral(
    group: FiniteGroup, rng: np.random.Generator
) -> InvariantProjection:
    """Random invariant projection without irrep data or a carried basis.

    Takes a random Hermitian element of VN_r(G) (a symmetrized right
    convolution) and cuts its spectrum at a random genuine gap, so degenerate
    clusters stay together and the spectral projection remains invariant.
    """
    while True:
        data = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        u = convolution_operator(GroupVector(group, data))
        dec = eig_hermitian(u + u.conj().T)
        w = dec.eigenvalues
        spread = max(float(w[-1] - w[0]), 1.0)
        cuts = np.nonzero(np.diff(w) > SPECTRAL_GAP * spread)[0] + 1
        if cuts.size == 0:
            continue
        c = int(rng.choice(cuts))
        q = dec.eigenvectors[:, :c]
        return InvariantProjection(GroupVector(group, (q @ q.conj().T)[:, group.identity]))


def coset_average(group: FiniteGroup, u: np.ndarray) -> np.ndarray:
    """u averaged over the right cosets of {e, s}, s the first involution: the frame-ladder
    subspace window, whose left-translation orbit spans a proper invariant subspace."""
    s = next(x for x in group.elements() if x != group.identity and group.mul(x, x) == group.identity)
    return 0.5 * (u + u[group.cayley[:, s]])


def validate_dense(group: FiniteGroup, p: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """The former matrix ``InvariantProjection.validate``: three checks on the dense p, O(|G|^3).

    Idempotent and Hermitian, then invariant: p commutes with every left
    translation exactly when it is the right convolution by its own column at
    the identity, h = p delta_e.
    """
    if not within_tol(np.linalg.norm(p @ p - p), tol, p):
        raise InvariantViolated("projection is not idempotent")
    if not within_tol(np.linalg.norm(p - p.conj().T), tol, p):
        raise InvariantViolated("projection is not Hermitian")
    h = GroupVector(group, p[:, group.identity])
    if not within_tol(np.linalg.norm(p - convolution_operator(h)), tol, p):
        raise NotInvariant("projection does not commute with left translation")


def admissibility_defect_dense(p: InvariantProjection, eta, psi) -> np.ndarray:
    """The former ``frames.admissibility_defect``: eta and psi projected by the dense R_h = p,
    one matrix-vector product each, then d = eta* * psi - h."""
    m = convolution_operator(p.h)
    return star_convolve(p.group, m @ as_vector(eta), m @ as_vector(psi)) - p.h.data


def regular_coefficient_matrix(group: FiniteGroup, eta) -> np.ndarray:
    """The former ``frames.regular_coefficient_matrix``: V_eta for left translation on l2(G),
    entry [x, y] = conj eta(x^-1 y), one table gather.

    Equals ``coefficient_operator(left_regular_rep(group), eta).matrix`` without the n^3 tensor.
    """
    eta = as_vector(eta)
    if eta.shape[0] != group.order:
        raise DimensionMismatch(f"window length {eta.shape[0]} != group order {group.order}")
    return eta[group.cayley[group.inverses]].conj()


def group_from_cayley_by_word_length(table, label: str = "") -> FiniteGroup:
    """``group_from_cayley`` with Light's closure grown one word length per round.

    Each round right-multiplies the newest elements by every generator so far,
    so a cyclic group of order n takes n rounds.  The checks and the greedy
    generator set are those of ``groups.group_from_cayley``.
    """
    cayley = np.asarray(table, dtype=np.int64)
    if cayley.ndim != 2 or cayley.shape[0] != cayley.shape[1]:
        raise NotAGroup("table is not square")
    n = cayley.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    if n > MAX_ORDER:
        raise NotAGroup(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    if cayley.min() < 0 or cayley.max() >= n:
        raise NotAGroup("entries are not element indices")

    idx = np.arange(n)
    if not (np.all(np.sort(cayley, axis=1) == idx) and np.all(np.sort(cayley, axis=0) == idx[:, None])):
        raise NotAGroup("Latin square property fails")

    identity = -1
    for e in range(n):
        if np.array_equal(cayley[e], idx) and np.array_equal(cayley[:, e], idx):
            identity = e
            break
    if identity < 0:
        raise NotAGroup("no two-sided identity")

    inverses = np.argmax(cayley == identity, axis=1)
    if not (np.all(cayley[idx, inverses] == identity) and np.all(cayley[inverses, idx] == identity)):
        raise NotAGroup("inverses missing")

    reached, gens = idx == identity, []
    while not reached.all():
        z = int(np.argmin(reached))
        if not np.array_equal(cayley[:, z][cayley], cayley[:, cayley[:, z]]):  # (xy)z vs x(yz)
            raise NotAGroup("associativity fails")
        gens.append(z)
        frontier = idx[reached]
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[cayley[np.ix_(frontier, gens)]] = True
            frontier = idx[fresh & ~reached]
            reached |= fresh

    return FiniteGroup(n, cayley, identity, inverses, tuple(gens), label)


def element_orders(group: FiniteGroup) -> list[int]:
    orders = []
    for x in group.elements():
        k, y = 1, x
        while y != group.identity:
            y = group.mul(y, x)
            k += 1
        orders.append(k)
    return orders


def center(group: FiniteGroup) -> list[int]:
    return [
        x
        for x in group.elements()
        if all(group.mul(x, g) == group.mul(g, x) for g in group.elements())
    ]


def is_abelian(group: FiniteGroup) -> bool:
    return bool(np.array_equal(group.cayley, group.cayley.T))


def conjugacy_classes(group: FiniteGroup) -> list[list[int]]:
    seen = np.zeros(group.order, dtype=bool)
    classes = []
    for x in group.elements():
        if seen[x]:
            continue
        orbit = {group.mul(group.mul(g, x), group.inv(g)) for g in group.elements()}
        for y in orbit:
            seen[y] = True
        classes.append(sorted(orbit))
    return classes


def irreducibility_by_commutant(rep: Rep) -> int:
    """Commutant dimension of a rep; 1 means irreducible.  Cross-check oracle."""
    return len(commutant_of_matrices(rep.matrices))


def save_json_indent2(payload: dict, path) -> None:
    """The former writer of vector, window and group files: the pure-Python indenting encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def unit_roots_by_exp(k, n: int) -> np.ndarray:
    """The former ``numerics._unit_roots``: one complex exp per entry of k."""
    return np.exp(2j * np.pi * (np.asarray(k) % n) / n)


def walnut_blocks_by_gather(length: int, a: int, b: int, gamma, g) -> np.ndarray:
    """The former ``gabor._walnut_blocks``: two (L/b) x b x (L/a) gathers and L/b batched
    matmuls, block r = (L/b) sum_n gamma[idx_r - n a] conj g[idx_r - n a]^T, O(L^2 b / a)."""
    idx = np.arange(length // b)[:, None] + (length // b) * np.arange(b)
    shifted = (idx[:, :, None] - a * np.arange(length // a)) % length
    return (length / b) * (gamma[shifted] @ g[shifted].conj().swapaxes(1, 2))


def wh_bridge_residual_by_scatter(wh: WHGroup, f, g) -> float:
    """The former ``gabor.wh_bridge_check`` residual: the Walnut blocks of (g, f) scattered into a
    zero-filled L x L (the former ``gabor._walnut_dense``), then subtracted from the group average."""
    f, g = as_vector(f), as_vector(g)
    phase, shift = wh.operators
    acc = (phase * g[shift]).T @ (phase * f[shift]).conj() / wh.q
    idx = np.arange(wh.L // wh.b)[:, None] + (wh.L // wh.b) * np.arange(wh.b)
    cross = np.zeros((wh.L, wh.L), dtype=complex)
    cross[idx[:, :, None], idx[:, None, :]] = _walnut_blocks(wh.L, wh.a, wh.b, g, f)
    return float(np.linalg.norm(acc - cross))


def wr_fundamental_relation_dense(length: int, a: int, b: int, f, g, h) -> float:
    """The former ``gabor.wr_fundamental_relation_check`` residual, from the dense analysis
    matrices of both lattices: ||V_f^* V_g h - (L/ab) V'_h^* V'_g f||."""
    def analysis(tstep, fstep, v):
        return gabor_coefficient_map(GaborSystem(length, tstep, fstep, v))

    lhs = analysis(a, b, f).conj().T @ (analysis(a, b, g) @ h)
    rhs = analysis(length // b, length // a, h).conj().T @ (analysis(length // b, length // a, g) @ f)
    return float(np.linalg.norm(lhs - (length / (a * b)) * rhs))


def translation(length: int, x: int) -> np.ndarray:
    """The former ``gabor.translation``: the cyclic shift (T_x f)(j) = f(j - x mod L), a rolled identity."""
    return np.roll(np.eye(length, dtype=complex), x, axis=0)


def modulation(length: int, w: int) -> np.ndarray:
    """The former ``gabor.modulation``: the diagonal phase (M_w f)(j) = exp(2 pi i w j / L) f(j)."""
    return np.diag(np.exp(2j * np.pi * w * np.arange(length) / length))


def lattice_ops_dense(length: int, tstep: int, fstep: int) -> np.ndarray:
    """The former ``gabor._dense_ops``: dense products M_(m fstep) T_(n tstep), m outer and n inner."""
    return np.array([
        modulation(length, m * fstep) @ translation(length, n * tstep)
        for m in range(length // fstep)
        for n in range(length // tstep)
    ])


def wh_rep_dense(wh: WHGroup) -> Rep:
    """The former ``gabor.wh_rep``: exp(2 pi i z / q) M_(mb) T_(na) from the dense matrices, one
    element at a time, on the table of the law (the former ``WHGroup.group``)."""
    table = wh.product(*np.ogrid[: wh.order, : wh.order])
    mats = np.array([
        np.exp(2j * np.pi * z / wh.q) * modulation(wh.L, m * wh.b) @ translation(wh.L, n * wh.a)
        for m, n, z in map(wh.coords, range(wh.order))
    ])
    return Rep(group=group_from_cayley(table), dim=wh.L, matrices=mats)


def wh_operators_by_coords(wh: WHGroup) -> tuple[np.ndarray, np.ndarray]:
    """The former ``gabor._wh_operators``: (phase, shift) of each element from its coordinates (m, n, z)."""
    m, n, z = wh.coords(np.arange(wh.order))
    j = np.arange(wh.L)
    phase = _unit_roots(z, wh.q)[:, None] * _unit_roots(np.outer(wh.b * m, j), wh.L)
    return phase, (j - wh.a * n[:, None]) % wh.L


def coefficient_map_by_gathers(sys: GaborSystem) -> np.ndarray:
    """The former ``gabor.gabor_coefficient_map``: L/a shifted windows times L/b phase rows, broadcast."""
    length, j = sys.L, np.arange(sys.L)
    shifted = sys.window[(j - sys.a * np.arange(length // sys.a)[:, None]) % length]
    phase = _unit_roots(np.outer(sys.b * np.arange(length // sys.b), j), length)
    return (phase[:, None, :] * shifted[None, :, :]).conj().reshape(-1, length)


def spec_table_by_blocks(spec: str) -> np.ndarray:
    """The former family table builders: modular formulas, the dihedral table by ``np.block``,
    and the direct product of the factors' tables, first factor outermost."""
    def cyclic(n):
        idx = np.arange(n)
        return (idx[:, None] + idx[None, :]) % n

    def dihedral(n):
        i, j = np.arange(n)[:, None], np.arange(n)[None, :]
        rot, ref = (i + j) % n, (j - i) % n
        return np.block([[rot, n + ref], [n + rot, ref]])

    def heisenberg(n):
        e = np.arange(n ** 3)
        x, y, z = e // (n * n), (e // n) % n, e % n
        x, y, z, x2, y2, z2 = x[:, None], y[:, None], z[:, None], x, y, z
        return ((x + x2) % n) * n * n + ((y + y2) % n) * n + (z + z2 + x * y2) % n

    def product(t1, t2):
        n2 = t2.shape[0]
        return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(len(t1) * n2, len(t1) * n2)

    families = {"cyclic": cyclic, "dihedral": dihedral, "heisenberg": heisenberg}
    tables = [families[family](int(n)) for family, n in (part.split(":") for part in spec.split(" x "))]
    return functools.reduce(product, tables)


def builtin_irreps_by_pairs(spec: str) -> list[tuple[str, np.ndarray]]:
    """The former ``plancherel.builtin_irreps`` builders: (label, matrices) per irrep, the
    matrices of shape (order, d, d), a product's irreps by one einsum per pair of factor irreps."""
    def cyclic(n):
        chars = _unit_roots(np.outer(np.arange(n), np.arange(n)), n)
        return [(f"chi{k}", row.reshape(n, 1, 1)) for k, row in enumerate(chars)]

    def dihedral(n):
        j = np.arange(n)
        signs = [("triv", 1, 1), ("sgn", 1, -1), ("alt+", -1, 1), ("alt-", -1, -1)]
        out = [
            (label, np.concatenate([r ** j, s * r ** j]).astype(complex).reshape(-1, 1, 1))
            for label, r, s in signs[: 4 if n % 2 == 0 else 2]
        ]
        hs = np.arange(1, (n + 1) // 2)
        up, down = _unit_roots(np.outer(hs, j), n), _unit_roots(-np.outer(hs, j), n)
        mats = np.zeros((len(hs), 2 * n, 2, 2), dtype=complex)
        mats[:, :n, 0, 0], mats[:, :n, 1, 1] = up, down
        mats[:, n:, 0, 1], mats[:, n:, 1, 0] = down, up
        return out + [(f"rho{h}", m) for h, m in zip(hs, mats)]

    def heisenberg(p):
        e, t = np.arange(p ** 3), np.arange(p)
        x, y, z = e // (p * p), (e // p) % p, e % p
        chars = _unit_roots(t[:, None, None] * x + t[:, None] * y, p).reshape(p * p, -1, 1, 1)
        out = [(f"chi{a},{b}", c) for (a, b), c in zip(np.ndindex(p, p), chars)]
        for c in range(1, p):
            mats = np.zeros((p ** 3, p, p), dtype=complex)
            mats[e[:, None], t, (t + x[:, None]) % p] = _unit_roots(c * (z[:, None] + y[:, None] * t), p)
            out.append((f"pi{c}", mats))
        return out

    def tensor_product(left, right):
        out = []
        for l1, m1 in left:
            for l2, m2 in right:
                d = m1.shape[1] * m2.shape[1]
                mats = np.einsum("xij,ykl->xyikjl", m1, m2).reshape(len(m1) * len(m2), d, d)
                out.append((f"{l1}*{l2}", mats))
        return out

    families = {"cyclic": cyclic, "dihedral": dihedral, "heisenberg": heisenberg}
    parts = [families[family](int(n)) for family, n in (part.split(":") for part in spec.split(" x "))]
    return functools.reduce(tensor_product, parts)


def fibers_by_irrep(table, p: InvariantProjection, tol: float = DEFAULT_TOL, *vectors):
    """The former ``plancherel._fibers``: one transform of [h, *vectors], then a per-irrep
    loop testing each block of h idempotent, then Hermitian.  Returns the blocks of h and of
    each vector."""
    if p.group != table.group:
        raise DimensionMismatch("projection and table belong to different groups")
    p.validate(tol=tol)
    hhat, *others = (plancherel_transform(table, v).blocks for v in (p.h, *vectors))
    loose = max(tol, PLANCHEREL_TOL_FLOOR)
    for s, b in zip(table.irreps, hhat):
        if not within_tol(np.linalg.norm(b @ b - b), loose, b):
            raise NotInvariant(f"fiber block at {s.label!r} is not idempotent")
        if not within_tol(np.linalg.norm(b - b.conj().T), loose, b):
            raise NotInvariant(f"fiber block at {s.label!r} is not Hermitian")
    return hhat, others


def fiber_ranks_by_irrep(projections) -> tuple[int, ...]:
    """The former ``FiberProjectionField.ranks``: one ``eigvalsh`` per irrep."""
    return tuple(
        int(np.sum(np.linalg.eigvalsh(0.5 * (b + b.conj().T)) > PROJECTION_RANK_CUT)) for b in projections
    )


def fiber_admissibility_residual_by_irrep(table, p, eta, psi, tol: float = DEFAULT_TOL) -> float:
    """The former ``fiber_admissibility_check`` residual: max over irreps of
    ||psihat etahat^* - P_sigma||_F, one product per irrep."""
    hhat, (etahat, psihat) = fibers_by_irrep(table, p, tol, eta, psi)
    return max(float(np.linalg.norm(bp @ be.conj().T - pb)) for be, bp, pb in zip(etahat, psihat, hhat))
