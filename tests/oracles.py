"""Test-only oracles: earlier algorithms kept to check the package's current ones.

Import from a test module as ``from oracles import ...`` (pytest puts ``tests/``
on ``sys.path``).
"""
from __future__ import annotations

import json

import numpy as np

from frametrace.commutant import commutant_of_matrices
from frametrace.errors import InvariantViolated, NotAGroup, NotInvariant
from frametrace.frames import InvariantProjection
from frametrace.gabor import GaborSystem, WHGroup, gabor_coefficient_map
from frametrace.groups import (
    MAX_ORDER,
    FiniteGroup,
    GroupVector,
    Rep,
    convolution_operator,
    group_from_cayley,
)
from frametrace.numerics import DEFAULT_TOL, _unit_roots, eig_hermitian, within_tol

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
