"""Commutant computation and traciality tests."""
import numpy as np
import pytest

from frametrace.commutant import (
    commutant_basis,
    commutant_of_matrices,
    generalized_biorthogonality,
    is_tracial_pair,
    reduced_commutant,
    regular_commutant_basis,
)
from frametrace.errors import NotAGroup, ReferencePairNotAdmissible
from frametrace.frames import (
    canonical_dual,
    coefficient_operator,
    is_admissible_pair,
    is_frame_vector,
)
from frametrace.gabor import GaborSystem, gabor_canonical_dual, lattice_ops, wexler_raz_check, wh_group_build, wh_rep
from frametrace.groups import (
    GroupVector,
    Rep,
    builtin_group,
    delta,
    left_regular_rep,
    restrict_rep,
)
from frametrace.plancherel import builtin_irreps, isotypic_projection, projection_from_fibers
from oracles import commutant_by_kronecker, random_invariant_projection


def commutator_norms(elements, matrices):
    return max(
        np.linalg.norm(t @ u - u @ t) for t in elements for u in matrices
    )


def test_one_dim_rep_commutant():
    g = builtin_group("cyclic:3")
    w = np.exp(2j * np.pi / 3)
    mats = np.array([[[w ** x]] for x in range(3)], dtype=complex)
    basis = commutant_basis(Rep(group=g, dim=1, matrices=mats))
    assert len(basis) == 1
    assert abs(abs(basis.elements[0][0, 0]) - 1.0) < 1e-12


def test_regular_commutant_dimension_cyclic():
    g = builtin_group("cyclic:5")
    lam = left_regular_rep(g)
    basis = commutant_basis(lam)
    assert len(basis) == g.order
    assert commutator_norms(basis.elements, lam.matrices) <= 1e-9
    # cross-check: closed-form right-convolution basis spans the same space
    closed = regular_commutant_basis(g)
    stack = np.column_stack([t.reshape(-1) for t in closed.elements])
    for t in basis.elements:
        v = t.reshape(-1)
        proj = stack @ (stack.conj().T @ v)
        assert np.linalg.norm(proj - v) <= 1e-9


def test_regular_commutant_dimension_dihedral4():
    g = builtin_group("dihedral:4")
    lam = left_regular_rep(g)
    basis = commutant_basis(lam)
    assert len(basis) == 8
    table = builtin_irreps(g)
    assert sum(s.dim ** 2 for s in table.irreps) == 8


def test_irreducible_rep_commutant_is_scalars():
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    rho = [s for s in table.irreps if s.dim == 2][0]
    basis = commutant_basis(rho.rep)
    assert len(basis) == 1


def test_commutant_closed_under_adjoint():
    g = builtin_group("heisenberg:2")
    lam = left_regular_rep(g)
    basis = commutant_basis(lam)
    stack = np.column_stack([t.reshape(-1) for t in basis.elements])
    assert np.linalg.norm(stack.conj().T @ stack - np.eye(len(basis))) <= 1e-10
    for t in basis.elements:
        v = t.conj().T.reshape(-1)
        proj = stack @ (stack.conj().T @ v)
        assert np.linalg.norm(proj - v) <= 1e-9


def test_commutant_of_matrices_plain_family():
    # commutant of {Id, swap} on C^2 is the 2-dim algebra of symmetric choices
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    elems = commutant_of_matrices(np.array([np.eye(2), swap]))
    assert len(elems) == 2
    assert commutator_norms(elems, [swap]) <= 1e-10


def test_reduced_commutant_cases():
    g = builtin_group("cyclic:2")
    lam = left_regular_rep(g)
    basis = commutant_basis(lam)
    full = reduced_commutant(basis, np.eye(2))
    assert len(full) == 2
    p = 0.5 * np.ones((2, 2), dtype=complex)
    line = reduced_commutant(basis, p)
    assert len(line) == 1

    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    rng = np.random.default_rng(30)
    u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    q1, _ = np.linalg.qr(u)
    blocks = [
        q1 @ q1.conj().T if s.label == "rho1" else np.zeros((s.dim, s.dim), dtype=complex)
        for s in table.irreps
    ]
    p_rank1 = projection_from_fibers(table, blocks)
    red = reduced_commutant(regular_commutant_basis(g), p_rank1)
    assert len(red) == 1  # Schur: single copy of an irrep


def test_tracial_pair_regular_delta():
    g = builtin_group("dihedral:4")
    basis = regular_commutant_basis(g)
    e = delta(g, g.identity).data
    assert is_tracial_pair(basis, g, e, e).passed
    assert not is_tracial_pair(basis, g, e, 1.1 * e).passed


def test_tracial_matches_admissible_on_subrep():
    rng = np.random.default_rng(31)
    g = builtin_group("dihedral:3")
    lam = left_regular_rep(g)
    table = builtin_irreps(g)
    p = isotypic_projection(table, "rho1")
    q = p.range_basis()
    rep = restrict_rep(lam, [q[:, j] for j in range(q.shape[1])])
    red = reduced_commutant(regular_commutant_basis(g), p)
    agreements = 0
    for k in range(100):
        eta_c = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        psi_c = canonical_dual(coefficient_operator(rep, eta_c))
        if k % 2:
            # perturb well above tolerance; both tests must then fail
            psi_c = psi_c + 1e-3 * (
                rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
            )
        adm = is_admissible_pair(rep, eta_c, psi_c)
        tra = is_tracial_pair(red, g, q @ eta_c, q @ psi_c)
        assert adm.passed == tra.passed == (k % 2 == 0)
        agreements += 1
    assert agreements == 100


def test_generalized_biorthogonality():
    rng = np.random.default_rng(32)
    g = builtin_group("dihedral:3")
    lam = left_regular_rep(g)
    basis = regular_commutant_basis(g)
    e = delta(g, g.identity).data
    res = generalized_biorthogonality(lam, basis, e, e, e, e)
    assert res.passed
    bad = generalized_biorthogonality(lam, basis, e, e, e, 2 * e)
    assert not bad.passed
    # fresh admissible pair agrees with the reference
    eta = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    psi = canonical_dual(coefficient_operator(lam, eta))
    assert generalized_biorthogonality(lam, basis, e, e, eta, psi).passed
    with pytest.raises(ReferencePairNotAdmissible):
        generalized_biorthogonality(lam, basis, e, 3 * e, e, e)


def rand_c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def span_distance(a, b) -> float:
    """sin of the largest principal angle between the Frobenius spans of two orthonormal families."""
    a, b = (np.column_stack([t.reshape(-1) for t in fam]) for fam in (a, b))
    return float(np.linalg.norm(a - b @ (b.conj().T @ a), 2))


def restricted_reps(spec, seed, count):
    """``count`` restrictions of the regular representation to random invariant ranges of rank >= 1."""
    g = builtin_group(spec)
    lam, table, rng = left_regular_rep(g), builtin_irreps(g), np.random.default_rng(seed)
    reps = []
    while len(reps) < count:
        q = random_invariant_projection(table, rng).range_basis()
        if q.shape[1]:
            reps.append(restrict_rep(lam, list(q.T)))
    return reps


def parity_cases():
    """(name, unitary group up to phases) of every shape the group average must handle."""
    regular = ["cyclic:12", "dihedral:4", "heisenberg:3", "dihedral:12", "cyclic:2 x dihedral:6", "cyclic:1"]
    cases = [(spec, left_regular_rep(builtin_group(spec)).matrices) for spec in regular]
    for spec, seed in [("dihedral:4", 40), ("heisenberg:3", 41), ("cyclic:2 x dihedral:6", 42)]:
        cases += [(f"{spec} restricted to rank {r.dim}", r.matrices) for r in restricted_reps(spec, seed, 3)]
        cases += [(f"{spec} irrep {s.label}", s.rep.matrices) for s in builtin_irreps(builtin_group(spec)).irreps]
    rho = next(s for s in builtin_irreps(builtin_group("dihedral:3")).irreps if s.dim == 2).rep.matrices
    cases.append(("three copies of a 2-dimensional irrep", np.kron(np.eye(3), rho)))  # k = 9 > d = 6
    for lattice in [(12, 3, 2), (4, 2, 2), (24, 4, 3)]:
        cases.append((f"wh_rep{lattice}", wh_rep(wh_group_build(*lattice)).matrices))
        cases.append((f"lattice_ops{lattice}", np.array(lattice_ops(*lattice))))
    return cases


def test_group_average_matches_the_kronecker_oracle():
    """The range of the group average is the commutant the d^2 x d^2 eigh found: same dimension, span within
    principal-angle distance 1e-10, every element commuting with every matrix within 1e-12."""
    for name, mats in parity_cases():
        new, old = commutant_of_matrices(mats), commutant_by_kronecker(mats)
        assert len(new) == len(old), name
        assert span_distance(new, old) <= 1e-10, (name, span_distance(new, old))
        stack = np.array(new)[:, None]
        assert np.linalg.norm(stack @ mats - mats @ stack, axis=(2, 3)).max() <= 1e-12, name


@pytest.mark.parametrize("seed", range(5))
def test_group_average_refuses_a_family_that_is_not_a_group(seed):
    """{Id, U} for a random unitary U: its average is no projection, and its range has more dimensions
    than its trace k, so the top k singular vectors of the draws are not the commutant (of dimension 4).
    The SVD of the draws shows s[k] far above RANK_CUTOFF s[0]."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    assert len(commutant_by_kronecker([np.eye(4), u])) == 4
    with pytest.raises(NotAGroup, match="not a unitary group up to phases"):
        commutant_of_matrices(np.array([np.eye(4), u]))


@pytest.mark.parametrize("lattice", [(12, 3, 2), (4, 2, 2), (24, 4, 3)], ids=["12-3-2", "4-2-2", "24-4-3"])
def test_wexler_raz_is_traciality_on_the_wh_commutant(lattice):
    """The paper's Wexler-Raz generalisation: on the Weyl-Heisenberg group, whose q central phases cancel in
    V_psi^* V_g = q sum_lattice (M T psi)(M T g)^*, gamma is a dual window of g exactly when (g, gamma/q) is an
    admissible pair, and exactly when it is tracial on the group's own L x L commutant."""
    wh = wh_group_build(*lattice)
    rep, rng = wh_rep(wh), np.random.default_rng(44)
    basis = commutant_basis(rep)
    g = rand_c(rng, wh.L)
    sys_ = GaborSystem(wh.L, wh.a, wh.b, g)
    psi = gabor_canonical_dual(sys_) / wh.q
    for size in [0.0, 1e-6, 1e-4, 1e-2]:
        cand = psi + size * np.linalg.norm(psi) * rand_c(rng, wh.L)
        tra = is_tracial_pair(basis, rep.group, g, cand)
        adm = is_admissible_pair(rep, g, cand)
        wr = wexler_raz_check(sys_, wh.q * cand)
        assert tra.passed == adm.passed == wr.passed == (size == 0.0), (size, tra, adm, wr)


@pytest.mark.parametrize("spec", ["dihedral:4", "heisenberg:3", "cyclic:2 x dihedral:6"])
def test_tracial_matches_admissible_on_a_restricted_rep_commutant(spec):
    """The natural trace tr(T)/|G| on the d x d commutant of a subrepresentation itself, with no lift to l2(G)."""
    rng = np.random.default_rng(45)
    for rep in restricted_reps(spec, 46, 3):
        basis = commutant_basis(rep)
        for k in range(6):
            while True:
                eta = rand_c(rng, rep.dim)
                v = coefficient_operator(rep, eta)
                if is_frame_vector(v):
                    break
            psi = canonical_dual(v)
            if k % 2:
                psi = psi + 10.0 ** rng.uniform(-6, -2) * np.linalg.norm(psi) * rand_c(rng, rep.dim)
            tra = is_tracial_pair(basis, rep.group, eta, psi)
            adm = is_admissible_pair(rep, eta, psi)
            assert tra.passed == adm.passed == (k % 2 == 0), (spec, rep.dim, k, tra, adm)
