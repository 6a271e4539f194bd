"""Table-native checks against the dense algorithms they replaced.

The CLI checks admissibility, traciality and invariant projections on l2(G)
with O(|G|^2) gathers on the Cayley table.  The dense versions stay here as
oracles: compression of the left regular representation to range(p) with
``restrict_rep``, the reduced commutant basis, the former matrix validate
(``oracles.validate_dense``) and the loop of commutators with every
lambda(x).  Groups: the acceptance groups, each on the full space and on
seeded random invariant projections.
"""
import numpy as np
import pytest

from frametrace import frames
from frametrace.commutant import is_tracial_pair, reduced_commutant, regular_commutant_basis, tracial_check
from frametrace.errors import InvariantViolated, NotInvariant, UnsupportedGroup
from frametrace.frames import (
    InvariantProjection,
    admissibility_defect,
    admissible_check,
    canonical_dual,
    coefficient_operator,
    is_admissible_pair,
    is_frame_vector,
    projection_from_spanning,
)
from frametrace.gabor import wh_group_build, wh_rep
from frametrace.groups import (
    GroupVector,
    builtin_group,
    convolution_operator,
    delta,
    involution,
    left_regular_rep,
    restrict_rep,
    star_convolve,
)
from frametrace.numerics import frob_norm
from frametrace.plancherel import builtin_irreps, random_invariant_projection

import oracles
from oracles import coset_average, random_invariant_projection_spectral, regular_coefficient_matrix, validate_dense

TOL = 1e-9


def acceptance_groups():
    groups = [builtin_group(s) for s in ("cyclic:12", "dihedral:4", "heisenberg:3")]
    return groups + [wh_rep(wh_group_build(12, 3, 2)).group]


def rand_c(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def projections(group, rng, count):
    """The full space, then ``count`` random invariant projections of 0 < rank < |G|."""
    yield InvariantProjection(delta(group, group.identity))
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
    m = convolution_operator(p.h)
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


def validate_verdict_and_residuals(monkeypatch, module, check):
    """The error message of ``check(TOL)`` (None when it passes), and the residuals and scales
    ``check(inf)`` hands to ``module.within_tol``: every check runs at an infinite tolerance."""
    try:
        check(TOL)
        verdict = None
    except (InvariantViolated, NotInvariant) as exc:
        verdict = str(exc)
    seen = []
    with monkeypatch.context() as mp:
        mp.setattr(module, "within_tol", lambda r, tol, scale: seen.append((r, frob_norm(scale))) or True)
        check(np.inf)
    return verdict, np.array(seen)


@pytest.mark.parametrize("group", acceptance_groups(), ids=lambda g: g.label)
def test_validate_agrees_with_commutator_oracle(group, monkeypatch):
    # validate checks h * h = h and h = h* on h = p delta_e; the oracle is the
    # former matrix validate on R_h, whose invariance check R_h always passes.
    rng = np.random.default_rng(400 + group.order)
    for p in projections(group, rng, 4):
        eps = 10.0 ** rng.uniform(-6, -2)
        noise = eps * np.linalg.norm(p.h.data) * rand_c(rng, group.order)
        noisy = InvariantProjection(GroupVector(group, p.h.data + noise))
        for q, perturbed in ((p, False), (noisy, True)):
            m = convolution_operator(q.h)
            assert commutator_oracle(q) <= 1e-12 * max(1.0, np.linalg.norm(m))
            new, new_res = validate_verdict_and_residuals(monkeypatch, frames, q.validate)
            old, old_res = validate_verdict_and_residuals(
                monkeypatch, oracles, lambda tol: validate_dense(group, m, tol))
            assert new == old == ("projection is not idempotent" if perturbed else None)
            assert old_res[2, 0] == 0.0  # ||R_h - R_h||_F
            assert np.allclose(new_res[:, 1], old_res[:2, 1], rtol=1e-12, atol=0.0)  # ||p||_F
            gap = np.abs(new_res[:, 0] - old_res[:2, 0])
            if perturbed:
                assert np.all(gap <= 1e-9 * old_res[:2, 0])
            else:
                # Both residuals are rounding noise here, so only their gap is bounded.
                assert np.all(gap <= 1e-12)


def dense_lambda(group):
    """lambda(x) for each x as a dense permutation matrix, delta_y -> delta_xy, one at a time:
    at order 512 the tensor of ``left_regular_rep`` would take 2 GiB."""
    cols = np.arange(group.order)
    for x in group.elements():
        m = np.zeros((group.order, group.order))
        m[group.cayley[x], cols] = 1.0
        yield m


#: The acceptance groups spanned by a random pair, and the frame-ladder subspace
#: shapes (a coset average) on its two groups and at order 512.
GATHER_CASES = [(g, "pair") for g in acceptance_groups()] + [
    (builtin_group(s), "coset") for s in ("dihedral:16", "cyclic:3 x dihedral:8", "dihedral:256")
]


@pytest.mark.parametrize("group, span", GATHER_CASES, ids=lambda c: getattr(c, "label", c))
def test_gathers_match_the_dense_representation(group, span):
    rng = np.random.default_rng(500 + group.order)
    f, g = rand_c(rng, group.order), rand_c(rng, group.order)
    vectors = [f, g] if span == "pair" else [coset_average(group, g)]
    orbits = np.array([[m @ w for w in (f, *vectors)] for m in dense_lambda(group)])  # [x, k] = lambda(x) w_k
    assert np.array_equal(regular_coefficient_matrix(group, f), orbits[:, 0].conj())
    if group.order <= 64:
        assert np.array_equal(orbits[:, 0].conj(), coefficient_operator(left_regular_rep(group), f).matrix)
    u, s, _ = np.linalg.svd(orbits[:, 1:].reshape(-1, group.order).T, full_matrices=False)
    q = u[:, s > 1e-11 * s[0]]
    p = projection_from_spanning(group, vectors)
    assert np.linalg.norm(convolution_operator(p.h) - q @ q.conj().T) <= 1e-12 * np.sqrt(group.order)
    assert p.rank() == q.shape[1] == InvariantProjection(p.h).rank()


@pytest.mark.parametrize("group, span", GATHER_CASES, ids=lambda c: getattr(c, "label", c))
def test_right_convolution_is_the_adjoint_of_the_coefficient_matrix(group, span):
    # V_f = R_f^* for left translation: the former gather of V_f, conjugated and transposed, bit for bit.
    f = rand_c(np.random.default_rng(600 + group.order), group.order)
    expect = regular_coefficient_matrix(group, f)
    assert convolution_operator(GroupVector(group, f)).conj().T.tobytes() == expect.tobytes()


@pytest.mark.parametrize("group, span", GATHER_CASES, ids=lambda c: getattr(c, "label", c))
def test_star_convolution_is_the_kernel_of_v_psi_star_v_eta(group, span):
    # V_psi^* V_eta = R_c with c = eta* * psi, against the product of the former n x n matrices.
    rng = np.random.default_rng(700 + group.order)
    eta, psi = rand_c(rng, group.order), rand_c(rng, group.order)
    dense = regular_coefficient_matrix(group, psi).conj().T @ regular_coefficient_matrix(group, eta)
    r_c = convolution_operator(GroupVector(group, star_convolve(group, eta, psi)))
    assert np.linalg.norm(r_c - dense) <= 1e-13 * np.linalg.norm(dense)
    c = star_convolve(group, eta, eta)  # S = R_c is Hermitian: c = c*
    assert np.linalg.norm(c - involution(GroupVector(group, c)).data) <= 1e-13 * np.linalg.norm(c)


@pytest.mark.parametrize("group", acceptance_groups() + [builtin_group("dihedral:16")], ids=lambda g: g.label)
def test_apply_is_the_dense_right_convolution(group):
    # p v = R_h v = v * h without R_h, for one vector and for the columns of a (|G|, 3) array.
    rng = np.random.default_rng(800 + group.order)
    n = group.order
    hs = [p.h for p in projections(group, rng, 3)][1:] + [GroupVector(group, rand_c(rng, n))]  # last: h != h*
    for h in hs:
        p, m = InvariantProjection(h), convolution_operator(h)
        for v in (rand_c(rng, n), rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))):
            expect = m @ v
            assert p.apply(v).shape == v.shape
            assert np.linalg.norm(p.apply(v) - expect) <= 1e-12 * np.linalg.norm(expect)
    full = InvariantProjection(delta(group, group.identity))  # h = delta_e: p is the identity, bit for bit
    for v in (rand_c(rng, n), rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))):
        assert full.apply(v).tobytes() == (convolution_operator(full.h) @ v).tobytes() == v.tobytes()


#: The frame-ladder groups and the order-512 shapes of the CLI guard.
DEFECT_SPECS = ("dihedral:8", "heisenberg:3", "dihedral:16", "dihedral:32", "cyclic:3 x dihedral:8",
                "dihedral:256", "cyclic:512")


@pytest.mark.parametrize("spec", DEFECT_SPECS)
def test_defect_through_apply_matches_the_dense_projection(spec):
    # Full space: the same bits as the former p.matrix @ v defect.  --subspace (a window averaged
    # over a subgroup, its orbit spanning range(p)): the same defect up to the order of the sums.
    group = builtin_group(spec)
    rng = np.random.default_rng(900 + group.order)
    u, psi = rand_c(rng, group.order), rand_c(rng, group.order)
    if group.order % 2:  # no involution: average over the cyclic subgroup of the last generator
        s, powers = group.generators[-1], [group.identity]
        while group.mul(powers[-1], s) != group.identity:
            powers.append(group.mul(powers[-1], s))
        eta = sum(u[group.cayley[:, t]] for t in powers)
    else:
        eta = coset_average(group, u)
    full = InvariantProjection(delta(group, group.identity))
    expect = oracles.admissibility_defect_dense(full, eta, psi)
    assert admissibility_defect(full, eta, psi).tobytes() == expect.tobytes()
    sub = projection_from_spanning(group, [eta])
    assert 0 < sub.rank() < group.order
    expect = oracles.admissibility_defect_dense(sub, eta, psi)
    assert np.linalg.norm(admissibility_defect(sub, eta, psi) - expect) <= 1e-12 * np.linalg.norm(expect)
