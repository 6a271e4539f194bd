"""Table-native checks against the dense algorithms they replaced.

The CLI checks admissibility, traciality and projection invariance on l2(G)
with O(|G|^2) gathers on the Cayley table.  The dense versions stay here as
oracles: compression of the left regular representation to range(p) with
``restrict_rep``, the reduced commutant basis, and the loop of commutators
with every lambda(x).  Groups: the acceptance groups, each on the full space
and on seeded random invariant projections.
"""
import numpy as np
import pytest

from frametrace.commutant import is_tracial_pair, reduced_commutant, regular_commutant_basis, tracial_check
from frametrace.errors import NotInvariant, UnsupportedGroup
from frametrace.frames import (
    InvariantProjection,
    admissibility_defect,
    admissible_check,
    canonical_dual,
    coefficient_operator,
    is_admissible_pair,
    is_frame_vector,
    projection_from_spanning,
    regular_coefficient_matrix,
)
from frametrace.gabor import wh_group_build, wh_rep
from frametrace.groups import builtin_group, left_regular_rep, restrict_rep
from frametrace.plancherel import builtin_irreps, random_invariant_projection

from oracles import random_invariant_projection_spectral

TOL = 1e-9


def acceptance_groups():
    groups = [builtin_group(s) for s in ("cyclic:12", "dihedral:4", "heisenberg:3")]
    return groups + [wh_rep(wh_group_build(12, 3, 2)).group]


def rand_c(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def projections(group, rng, count):
    """The full space, then ``count`` random invariant projections of 0 < rank < |G|."""
    yield InvariantProjection(group, np.eye(group.order, dtype=complex))
    try:
        table = builtin_irreps(group)
    except UnsupportedGroup:
        table = None
    made = 0
    while made < count:
        if table is not None:
            p = random_invariant_projection(table, rng)
        else:
            p = random_invariant_projection_spectral(group, rng)
        if 0 < p.rank() < group.order:
            made += 1
            yield p


def commutator_oracle(p: InvariantProjection) -> float:
    """max_x ||lambda(x) p - p lambda(x)||_F, the residual of the old validate."""
    lam = left_regular_rep(p.group)
    m = p.matrix
    return max(float(np.linalg.norm(lam[x] @ m - m @ lam[x])) for x in p.group.elements())


@pytest.mark.parametrize("group", acceptance_groups(), ids=lambda g: g.label)
def test_residuals_agree_with_compressed_and_commutant_oracles(group):
    rng = np.random.default_rng(300 + group.order)
    lam = left_regular_rep(group)
    checked = 0
    for p in projections(group, rng, 3):
        q = p.range_basis()
        rep = restrict_rep(lam, [q[:, j] for j in range(q.shape[1])])
        reduced = reduced_commutant(regular_commutant_basis(group), p)
        for k in range(6):
            while True:
                eta_c = rand_c(rng, rep.dim)
                v = coefficient_operator(rep, eta_c)
                if is_frame_vector(v):
                    break
            psi_c = canonical_dual(v)
            perturbed = bool(k % 2)
            if perturbed:
                size = 10.0 ** rng.uniform(-6, -2)
                psi_c = psi_c + size * np.linalg.norm(psi_c) * rand_c(rng, rep.dim)
            eta, psi = q @ eta_c, q @ psi_c
            old_adm = is_admissible_pair(rep, eta_c, psi_c, tol=TOL)
            old_tra = is_tracial_pair(reduced, group, eta, psi, tol=TOL)
            d = admissibility_defect(p, eta, psi)
            new_adm, new_tra = admissible_check(group, d, TOL), tracial_check(group, d, TOL)
            assert new_adm.name == old_adm.name and new_tra.name == old_tra.name
            assert new_adm.passed == old_adm.passed == (not perturbed)
            assert new_tra.passed == old_tra.passed == (not perturbed)
            if perturbed:
                assert abs(new_adm.residual - old_adm.residual) <= 1e-9 * old_adm.residual
            else:
                # Both residuals are rounding noise here, so only their gap is bounded.
                assert abs(new_adm.residual - old_adm.residual) <= 1e-12
            checked += 1
    assert checked == 24


@pytest.mark.parametrize("group", acceptance_groups(), ids=lambda g: g.label)
def test_validate_agrees_with_commutator_oracle(group):
    rng = np.random.default_rng(400 + group.order)
    for p in projections(group, rng, 4):
        bound = TOL * max(1.0, np.linalg.norm(p.matrix))
        assert commutator_oracle(p) <= bound
        p.validate(TOL)
        if p.rank() == group.order:
            continue  # every rotation fixes the identity
        # A small unitary rotation keeps a Hermitian idempotent but breaks invariance.
        a = rand_c(rng, group.order ** 2).reshape(group.order, group.order)
        w, v = np.linalg.eigh(a + a.conj().T)
        eps = 10.0 ** rng.uniform(-6, -2)
        u = (v * np.exp(1j * eps * w / np.abs(w).max())) @ v.conj().T
        rotated = InvariantProjection(group, u @ p.matrix @ u.conj().T)
        assert commutator_oracle(rotated) > bound
        with pytest.raises(NotInvariant):
            rotated.validate(TOL)


@pytest.mark.parametrize("group", acceptance_groups(), ids=lambda g: g.label)
def test_gathers_match_the_dense_representation(group):
    rng = np.random.default_rng(500 + group.order)
    lam = left_regular_rep(group)
    f, g = rand_c(rng, group.order), rand_c(rng, group.order)
    assert np.array_equal(regular_coefficient_matrix(group, f), coefficient_operator(lam, f).matrix)
    orbit = np.hstack([np.einsum("xij,j->ix", lam.matrices, w) for w in (f, g)])
    u, s, _ = np.linalg.svd(orbit, full_matrices=False)
    q = u[:, s > 1e-11 * s[0]]
    p = projection_from_spanning(group, [f, g])
    assert np.linalg.norm(p.matrix - q @ q.conj().T) <= 1e-10
