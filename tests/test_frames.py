"""Coefficient/frame operator, dual vector, natural trace and projection tests."""
import numpy as np
import pytest

from frametrace.errors import DimensionMismatch, NotInvertible
from frametrace.frames import (
    InvariantProjection,
    admissibility_defect,
    admissible_vector_for_projection,
    canonical_dual,
    coefficient_operator,
    dual_null_space,
    frame_operator,
    is_admissible_pair,
    is_frame_vector,
    natural_trace,
    projection_from_spanning,
    tighten,
    trace_of_projection,
)
from frametrace.groups import (
    GroupVector,
    Rep,
    builtin_group,
    convolution_operator,
    convolve,
    delta,
    involution,
    left_regular_rep,
)
from frametrace.numerics import inv_psd, inv_sqrt_psd
from frametrace.plancherel import (
    PlancherelCoefficients,
    builtin_irreps,
    fiber_projections,
    inverse_plancherel,
    isotypic_projection,
    rank_measure,
)

from oracles import (
    coset_average,
    dual_null_space_by_columns,
    random_invariant_projection_spectral,
    subgroup_average,
)


def rand_vec(group, rng):
    return GroupVector(
        group, rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    )


def test_coefficient_operator_delta_is_identity():
    g = builtin_group("dihedral:3")
    lam = left_regular_rep(g)
    v = coefficient_operator(lam, delta(g, g.identity).data)
    assert np.allclose(v.matrix, np.eye(g.order))


def test_coefficient_operator_equals_right_convolution_of_involution():
    rng = np.random.default_rng(20)
    g = builtin_group("dihedral:4")
    lam = left_regular_rep(g)
    f = rand_vec(g, rng)
    v = coefficient_operator(lam, f.data)
    u = convolution_operator(involution(f))
    assert np.linalg.norm(v.matrix - u) <= 1e-12


def test_coefficient_operator_character_formula():
    g = builtin_group("cyclic:3")
    w = np.exp(2j * np.pi / 3)
    chi = np.array([[w ** x] for x in range(3)], dtype=complex).reshape(3, 1, 1)
    from frametrace.groups import Rep

    rep = Rep(group=g, dim=1, matrices=chi)
    v = coefficient_operator(rep, [1.0])
    phi = np.array([2.0 + 1j])
    for x in range(3):
        assert abs(v.matrix[x] @ phi - phi[0] * np.conj(w ** x)) < 1e-12


def test_coefficient_operator_intertwines():
    rng = np.random.default_rng(21)
    g = builtin_group("heisenberg:2")
    lam = left_regular_rep(g)
    eta = rand_vec(g, rng)
    v = coefficient_operator(lam, eta.data)
    for x in g.elements():
        assert (
            np.linalg.norm(v.matrix @ lam.matrices[x] - lam.matrices[x] @ v.matrix)
            <= 1e-10
        )


def test_coefficient_operator_dim_mismatch():
    g = builtin_group("cyclic:2")
    lam = left_regular_rep(g)
    with pytest.raises(DimensionMismatch):
        coefficient_operator(lam, [1.0, 0.0, 0.0])


def test_projection_apply_rejects_a_vector_of_the_wrong_length():
    g = builtin_group("cyclic:3")
    p = InvariantProjection(delta(g, g.identity))
    for n in (2, 4):  # a longer vector must not lose its extra entries to the inverse gather
        with pytest.raises(DimensionMismatch):
            admissibility_defect(p, np.ones(n), np.ones(n))


def test_frame_operator_cases():
    g = builtin_group("dihedral:3")
    lam = left_regular_rep(g)
    assert np.allclose(
        frame_operator(coefficient_operator(lam, delta(g, g.identity).data)),
        np.eye(g.order),
    )
    zero = np.zeros(g.order)
    assert np.allclose(frame_operator(coefficient_operator(lam, zero)), 0.0)


def test_frame_operator_rank_one_sum_oracle():
    rng = np.random.default_rng(22)
    g = builtin_group("dihedral:3")
    lam = left_regular_rep(g)
    eta = rand_vec(g, rng)
    s = frame_operator(coefficient_operator(lam, eta.data))
    oracle = np.zeros((g.order, g.order), dtype=complex)
    for x in g.elements():
        v = lam.matrices[x] @ eta.data
        oracle += np.outer(v, v.conj())
    assert np.linalg.norm(s - oracle) <= 1e-10


def test_is_frame_vector():
    g = builtin_group("cyclic:4")
    lam = left_regular_rep(g)
    assert is_frame_vector(coefficient_operator(lam, delta(g, g.identity).data))
    assert not is_frame_vector(coefficient_operator(lam, np.zeros(g.order)))
    # vector supported on a proper invariant subspace cannot frame all of l2(G)
    table = builtin_irreps(g)
    p = isotypic_projection(table, table.irreps[0].label)
    eta = convolution_operator(p.h) @ np.ones(g.order)
    assert not is_frame_vector(coefficient_operator(lam, eta))


def test_canonical_dual_cases():
    g = builtin_group("cyclic:3")
    lam = left_regular_rep(g)
    e = delta(g, g.identity).data
    assert np.allclose(canonical_dual(coefficient_operator(lam, e)), e)
    assert np.allclose(canonical_dual(coefficient_operator(lam, 2 * e)), e / 2)


def test_canonical_dual_reconstructs():
    rng = np.random.default_rng(23)
    g = builtin_group("heisenberg:2")
    lam = left_regular_rep(g)
    eta = rand_vec(g, rng)
    v = coefficient_operator(lam, eta.data)
    assert is_frame_vector(v)
    psi = canonical_dual(v)
    assert is_admissible_pair(lam, eta.data, psi).residual <= 1e-9


def test_canonical_dual_of_non_frame_raises():
    g = builtin_group("cyclic:2")
    lam = left_regular_rep(g)
    with pytest.raises(NotInvertible):
        canonical_dual(coefficient_operator(lam, np.zeros(2)))


def test_dual_null_space_orthogonality():
    rng = np.random.default_rng(24)
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    # single copy of the 2-dim irrep: multiplicity 1 < dimension 2, so the
    # set W of windows with vanishing cross frame operator is nontrivial
    from frametrace.plancherel import projection_from_fibers

    blocks = []
    for s in table.irreps:
        if s.label == "rho1":
            u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            q1, _ = np.linalg.qr(u)
            blocks.append(q1 @ q1.conj().T)
        else:
            blocks.append(np.zeros((s.dim, s.dim), dtype=complex))
    p = projection_from_fibers(table, blocks)
    from frametrace.groups import restrict_rep

    q = p.range_basis()
    rep = restrict_rep(left_regular_rep(g), [q[:, j] for j in range(q.shape[1])])
    eta = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    w_basis = dual_null_space(rep, eta)
    assert w_basis.shape[1] > 0
    v_eta = coefficient_operator(rep, eta).matrix
    psi = canonical_dual(coefficient_operator(rep, eta))
    for j in range(w_basis.shape[1]):
        w = w_basis[:, j]
        v_w = coefficient_operator(rep, w).matrix
        assert np.linalg.norm(v_w.conj().T @ v_eta) <= 1e-9
        # canonical dual is the minimal-norm dual: orthogonal to the null set
        assert abs(np.vdot(w, psi)) <= 1e-9 * np.linalg.norm(psi) * np.linalg.norm(w)
        assert np.linalg.norm(psi) <= np.linalg.norm(psi + w) + 1e-12


@pytest.mark.parametrize("spec", ["dihedral:4", "heisenberg:3", "dihedral:24"])
def test_dual_null_space_matches_the_column_oracle(spec):
    # One einsum and one thin SVD against d coefficient_operator calls and a full SVD: the same span
    # of W (projectors within 1e-9), for random, delta_e and subgroup-averaged windows.
    g = builtin_group(spec)
    rep = left_regular_rep(g)
    rng = np.random.default_rng(8)
    windows = [rand_vec(g, rng).data, delta(g, g.identity).data, subgroup_average(g, rand_vec(g, rng).data)]
    for eta in windows:
        got, want = dual_null_space(rep, eta), dual_null_space_by_columns(rep, eta)
        assert got.shape == want.shape
        assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= 1e-9
    assert np.array_equal(dual_null_space(rep, np.zeros(g.order)), np.eye(g.order))


def test_more_dimensions_than_group_elements_is_not_a_frame():
    # The orbit of eta spans at most |G| < dim directions: S has a zero eigenvalue the thin SVD of the
    # 3 x 2 matrix V^* leaves out, and frame_duals counts it.
    g = builtin_group("cyclic:2")
    rep = Rep(group=g, dim=3, matrices=np.array([np.eye(3)] * 2, dtype=complex))
    v = coefficient_operator(rep, [1.0, 2.0, 3.0])
    assert not is_frame_vector(v)
    for solve in (canonical_dual, tighten):
        with pytest.raises(NotInvertible):
            solve(v)


def window_from_fibers(table, rng, ratio):
    """A window on l2(G) whose Plancherel blocks are random unitaries, with one column of the largest
    scaled by sqrt(ratio): its frame operator has the eigenvalues 1 and ratio."""
    draws = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in table.degrees]
    blocks = [np.linalg.qr(x)[0] for x in draws]
    blocks[int(np.argmax(table.degrees))][:, 0] *= np.sqrt(ratio)
    return inverse_plancherel(PlancherelCoefficients.from_blocks(table, tuple(blocks))).data


@pytest.mark.parametrize("spec", ["dihedral:16", "heisenberg:5"])
@pytest.mark.parametrize("ratio", [1e-6, 1e-8, 1e-10, 1e-11])
def test_dual_and_tighten_beat_the_normal_equations(spec, ratio):
    # canonical_dual and tighten solve from the SVD of V^* (frame_duals), which loses sqrt(kappa) eps, not
    # the kappa eps of inverting S = V^* V by eigh (inv_psd, inv_sqrt_psd).  Smallest gain seen: 194x for the
    # dual, about 4000x for tighten.
    g = builtin_group(spec)
    lam, table = left_regular_rep(g), builtin_irreps(g)
    for seed in range(4):
        eta = window_from_fibers(table, np.random.default_rng(seed), ratio)
        v = coefficient_operator(lam, eta)
        s = frame_operator(v)
        w = np.linalg.eigvalsh(s)
        assert w[0] / w[-1] == pytest.approx(ratio, rel=1e-2)
        t, t_ref = tighten(v), inv_sqrt_psd(s) @ eta
        dual = is_admissible_pair(lam, eta, canonical_dual(v)).residual
        tight = is_admissible_pair(lam, t, t).residual
        assert 100 * dual <= is_admissible_pair(lam, eta, inv_psd(s) @ eta).residual, (seed, dual)
        assert 100 * tight <= is_admissible_pair(lam, t_ref, t_ref).residual, (seed, tight)
        if ratio == 1e-6:
            assert dual <= 1e-8 and tight <= 1e-11, (seed, dual, tight)


def test_tighten_cases():
    g = builtin_group("cyclic:3")
    lam = left_regular_rep(g)
    e = delta(g, g.identity).data
    assert np.allclose(tighten(coefficient_operator(lam, e)), e)
    assert np.allclose(tighten(coefficient_operator(lam, 3 * e)), e)


def test_tighten_self_dual():
    rng = np.random.default_rng(25)
    g = builtin_group("dihedral:4")
    lam = left_regular_rep(g)
    eta = rand_vec(g, rng)
    t = tighten(coefficient_operator(lam, eta.data))
    assert is_admissible_pair(lam, t, t).residual <= 1e-9


def test_is_admissible_pair_cases():
    g = builtin_group("cyclic:4")
    lam = left_regular_rep(g)
    e = delta(g, g.identity).data
    assert is_admissible_pair(lam, e, e).passed
    bad = is_admissible_pair(lam, e, 2 * e)
    assert not bad.passed
    # V_psi^* V_eta = 2 Id, distance from Id is ||Id||_F = 2
    assert abs(bad.residual - 2.0) < 1e-12


def test_natural_trace_identity_and_paper_values():
    rng = np.random.default_rng(26)
    g = builtin_group("dihedral:3")
    assert abs(natural_trace(np.eye(g.order), g) - 1.0) < 1e-14
    f = rand_vec(g, rng)
    u = convolution_operator(f)
    assert abs(natural_trace(u.conj().T @ u, g) - f.norm() ** 2) <= 1e-10
    # trace identity via coefficient operators of the regular rep
    lam = left_regular_rep(g)
    h = rand_vec(g, rng)
    vf = coefficient_operator(lam, f.data).matrix
    vh = coefficient_operator(lam, h.data).matrix
    assert abs(natural_trace(vf.conj().T @ vh, g) - f.inner(h)) <= 1e-10


def test_natural_trace_axioms():
    rng = np.random.default_rng(27)
    g = builtin_group("cyclic:6")

    def tr(t):
        return natural_trace(t, g)

    f = rand_vec(g, rng)
    u = convolution_operator(f)
    pos = u.conj().T @ u
    assert abs(tr(pos + 2 * pos) - 3 * tr(pos)) < 1e-12
    assert tr(pos).real >= -1e-12
    # unitary invariance with a convolution unitary
    w = convolution_operator(delta(g, 2))
    assert abs(tr(w @ pos @ w.conj().T) - tr(pos)) <= 1e-12


def test_projection_from_spanning_cases():
    g = builtin_group("cyclic:2")
    p_full = projection_from_spanning(g, [delta(g, g.identity).data])
    assert np.allclose(p_full.h.data, [1.0, 0.0])
    assert np.allclose(convolution_operator(p_full.h), np.eye(2))
    p_half = projection_from_spanning(g, [np.ones(2)])
    assert np.allclose(p_half.h.data, [0.5, 0.5])
    assert np.allclose(convolution_operator(p_half.h), 0.5 * np.ones((2, 2)))
    p_zero = projection_from_spanning(g, [])
    assert np.allclose(p_zero.h.data, 0.0)


def test_admissible_vector_for_projection():
    g = builtin_group("cyclic:2")
    lam = left_regular_rep(g)
    p = projection_from_spanning(g, [np.ones(2)])
    v = admissible_vector_for_projection(p)
    assert np.allclose(v.data, [0.5, 0.5])
    vv = coefficient_operator(lam, v.data)
    assert np.linalg.norm(vv.matrix.conj().T @ vv.matrix - convolution_operator(p.h)) <= 1e-12

    g = builtin_group("dihedral:4")
    lam = left_regular_rep(g)
    table = builtin_irreps(g)
    two_dim = [s.label for s in table.irreps if s.dim == 2][0]
    p = isotypic_projection(table, two_dim)
    v = admissible_vector_for_projection(p)
    vv = coefficient_operator(lam, v.data)
    assert np.linalg.norm(vv.matrix.conj().T @ vv.matrix - convolution_operator(p.h)) <= 1e-9
    assert abs(trace_of_projection(p) - v.norm() ** 2) <= 1e-9


def test_trace_of_projection_cases():
    g = builtin_group("cyclic:2")
    assert trace_of_projection(projection_from_spanning(g, [np.eye(2)[:, 0], np.eye(2)[:, 1]])) == pytest.approx(1.0)
    half = projection_from_spanning(g, [np.ones(2)])
    assert trace_of_projection(half) == pytest.approx(0.5)
    assert abs(np.linalg.norm([0.5, 0.5]) ** 2 - 0.5) < 1e-12
    assert trace_of_projection(projection_from_spanning(g, [])) == 0.0


def test_random_invariant_projection_spectral_is_invariant():
    rng = np.random.default_rng(28)
    g = builtin_group("dihedral:3")
    for _ in range(5):
        p = random_invariant_projection_spectral(g, rng)
        p.validate(1e-9)
        assert 0 < p.rank() < g.order or p.rank() in (0, g.order)


@pytest.mark.parametrize(
    "spec",
    ["dihedral:4", "heisenberg:3", "cyclic:2 x dihedral:3",
     "dihedral:16", "cyclic:3 x dihedral:8", "dihedral:256"],  # the frame-ladder subspace groups, and order 512
)
def test_range_basis_of_a_spanned_projection(spec):
    # range_basis is the eigenvectors of R_h above PROJECTION_RANK_CUT: orthonormal, spanning range(p),
    # as many as the rank of the spanning set and as the fiber ranks count.
    g = builtin_group(spec)
    table = builtin_irreps(g)
    rng = np.random.default_rng(21)
    proper = random_invariant_projection_spectral(g, rng)
    spans = [
        [],
        [rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)],
        [convolution_operator(proper.h)[:, j] for j in rng.choice(g.order, size=2, replace=False)],
    ]
    if g.order % 2 == 0:  # the frame-ladder subspace needs an involution
        spans.append([coset_average(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))])
    ranks = []
    for vectors in spans:
        p = projection_from_spanning(g, vectors)
        q = p.range_basis()
        assert q.shape == (g.order, p.rank())
        assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-12
        assert np.linalg.norm(q @ q.conj().T - convolution_operator(p.h)) <= 1e-12 * np.sqrt(g.order)
        assert abs(rank_measure(fiber_projections(table, p)) - trace_of_projection(p)) <= 1e-12
        ranks.append(p.rank())
    assert ranks == [0, g.order, proper.rank(), g.order // 2][: len(spans)]


def test_invariant_projection_rejects_a_matrix_for_h():
    """The former form InvariantProjection(group, matrix) fails at construction, not at a
    later use of h (rank() used to return |G| from the matrix taken as a carried basis)."""
    g = builtin_group("dihedral:3")
    with pytest.raises(TypeError, match="positional argument"):  # h is the one field
        InvariantProjection(g, np.eye(g.order, dtype=complex))
    with pytest.raises(TypeError, match="GroupVector"):
        InvariantProjection(g)
    with pytest.raises(TypeError, match="ndarray"):
        InvariantProjection(np.eye(g.order)[:, g.identity])
    assert InvariantProjection(delta(g, g.identity)).rank() == g.order
