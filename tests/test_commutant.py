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
from frametrace.errors import ReferencePairNotAdmissible
from frametrace.frames import (
    canonical_dual,
    coefficient_operator,
    is_admissible_pair,
)
from frametrace.groups import (
    GroupVector,
    Rep,
    builtin_group,
    delta,
    left_regular_rep,
    restrict_rep,
)
from frametrace.plancherel import builtin_irreps, isotypic_projection, projection_from_fibers


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
