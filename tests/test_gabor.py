"""Finite Gabor systems, Wexler-Raz duality and the Weyl-Heisenberg group."""
import tracemalloc

import numpy as np
import pytest

from frametrace.errors import NotAFrame
from frametrace.gabor import (
    GaborSystem,
    adjoint_lattice_ops,
    frame_bounds_ratio,
    gabor_canonical_dual,
    gabor_coefficient_map,
    gabor_frame_operator,
    gabor_reconstruction_check,
    lattice_ops,
    reference_window,
    wexler_raz_check,
    wh_bridge_check,
    wh_group_build,
    wh_rep,
    wr_fundamental_relation_check,
)
from frametrace.commutant import commutant_of_matrices
from frametrace.numerics import DEFAULT_TOL, inv_sqrt_psd

from oracles import element_orders, is_abelian


def rand_c(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def tf_ops(L):
    """Every M_w T_x on C^L: lattice_ops(L, 1, 1)[w * L + x]."""
    ops = lattice_ops(L, 1, 1)
    assert len(ops) == L * L
    return lambda w, x: ops[w * L + x]


def test_translation_moves_delta():
    op = tf_ops(5)
    e0 = np.zeros(5)
    e0[0] = 1.0
    for x in range(5):
        out = op(0, x) @ e0
        assert out[x] == 1.0 and np.count_nonzero(out) == 1


def test_modulation_group_law():
    L = 6
    op = tf_ops(L)
    for b in range(L):
        for b2 in range(L):
            lhs = op(b, 0) @ op(b2, 0)
            rhs = op((b + b2) % L, 0)
            assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_commutation_relation():
    L = 8
    op = tf_ops(L)
    rng = np.random.default_rng(50)
    for _ in range(5):
        x = int(rng.integers(L))
        w = int(rng.integers(L))
        lhs = op(0, x) @ op(w, 0)
        rhs = np.exp(-2j * np.pi * x * w / L) * op(w, 0) @ op(0, x)
        assert np.linalg.norm(lhs - rhs) <= 1e-12
        assert np.linalg.norm(op(w, x) - op(w, 0) @ op(0, x)) <= 1e-12


def test_coefficient_map_trivial_lattice():
    sys = GaborSystem(L=1, a=1, b=1, window=np.array([2.0 - 1j]))
    m = gabor_coefficient_map(sys)
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - (2.0 + 1j)) < 1e-14


def test_full_lattice_tightness():
    rng = np.random.default_rng(51)
    L = 6
    g = rand_c(rng, L)
    sys = GaborSystem(L=L, a=1, b=1, window=g)
    s = gabor_frame_operator(sys)
    # rank-one sum oracle
    oracle = np.zeros((L, L), dtype=complex)
    for op in lattice_ops(L, 1, 1):
        v = op @ g
        oracle += np.outer(v, v.conj())
    assert np.linalg.norm(s - oracle) <= 1e-10
    assert np.linalg.norm(s - L * np.linalg.norm(g) ** 2 * np.eye(L)) <= 1e-9


def test_reference_window_tight():
    for L, a, b in [(4, 2, 2), (12, 3, 2)]:
        g = reference_window(L, a, b)
        sys = GaborSystem(L=L, a=a, b=b, window=g)
        s = gabor_frame_operator(sys)
        assert np.linalg.norm(s - np.eye(L)) <= 1e-10
    assert np.allclose(reference_window(4, 2, 2), [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])
    assert np.allclose(
        reference_window(12, 3, 2)[:4], [np.sqrt(1 / 6)] * 3 + [0.0]
    )
    with pytest.raises(ValueError):
        reference_window(4, 2, 4)


def test_canonical_dual_tight_window():
    g = reference_window(12, 3, 2)
    sys = GaborSystem(L=12, a=3, b=2, window=g)
    assert np.linalg.norm(gabor_canonical_dual(sys) - g) <= 1e-10
    assert frame_bounds_ratio(sys) == pytest.approx(1.0, abs=1e-10)


def test_canonical_dual_reconstructs():
    rng = np.random.default_rng(52)
    g = rand_c(rng, 12)
    sys = GaborSystem(L=12, a=3, b=2, window=g)
    gamma = gabor_canonical_dual(sys)
    v_g = gabor_coefficient_map(sys)
    v_gamma = gabor_coefficient_map(GaborSystem(L=12, a=3, b=2, window=gamma))
    assert np.linalg.norm(v_gamma.conj().T @ v_g - np.eye(12)) <= 1e-9


def shrunk_in_block(L, a, b, ratio, seed=1):
    """The tight window S^-1/2 g of a random g, times C = I - (1 - sqrt(ratio)) P with P the top
    eigenspace of a Hermitian element of the commutant built from adjoint lattice operators.  C commutes
    with the lattice, so the frame operator is C C* with eigenvalues 1 and ratio; P is not diagonal in
    the coordinates of the Walnut blocks, so the small eigenvalue sits inside a block."""
    rng = np.random.default_rng(seed)
    g = rand_c(rng, L)
    tight = inv_sqrt_psd(gabor_frame_operator(GaborSystem(L, a, b, g))) @ g
    x = sum(c * op for c, op in zip(rand_c(rng, 4), adjoint_lattice_ops(L, a, b)[1:5]))
    w, q = np.linalg.eigh(x + x.conj().T)
    top = q[:, w >= w[-1] - 1e-8 * (w[-1] - w[0])]
    return GaborSystem(L, a, b, tight - (1 - np.sqrt(ratio)) * top @ (top.conj().T @ tight))


@pytest.mark.parametrize("lattice", [(60, 4, 6), (256, 8, 8)])
@pytest.mark.parametrize("ratio", [1e-4, 1e-6, 1e-8, 1e-10])
def test_dual_of_a_window_ill_conditioned_inside_its_blocks(lattice, ratio):
    sys_ = shrunk_in_block(*lattice, ratio)
    assert frame_bounds_ratio(sys_) == pytest.approx(ratio, rel=1e-3)
    assert gabor_reconstruction_check(sys_, gabor_canonical_dual(sys_), DEFAULT_TOL).passed


def test_dual_at_a_long_window_stays_small():
    """The dual holds each window sample once: one FFT of the window and 16384 Zak blocks of size 1 x 2 at
    L = 32768, a = b = 128, where the 128 Walnut factors G_r of size 128 x 256 alone take 64 MiB.  Each pair
    check reads the b x a Wexler-Raz array off one b x L product of rolled rows (64 MiB) and no b x L index."""
    sys_ = GaborSystem(32768, 128, 128, rand_c(np.random.default_rng(55), 32768))

    def traced(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    gamma, peak = traced(gabor_canonical_dual, sys_)
    assert peak < 16 * 2**20
    for check in (gabor_reconstruction_check, wexler_raz_check):
        result, peak = traced(check, sys_, gamma, DEFAULT_TOL)
        assert result.passed and peak < 72 * 2**20


def test_undersampled_is_not_a_frame():
    rng = np.random.default_rng(53)
    sys = GaborSystem(L=4, a=2, b=4, window=rand_c(rng, 4))
    with pytest.raises(NotAFrame):
        gabor_canonical_dual(sys)


def test_adjoint_lattice_trivial_for_full_lattice():
    ops = adjoint_lattice_ops(6, 1, 1)
    assert len(ops) == 1
    assert np.allclose(ops[0], np.eye(6))


def test_adjoint_lattice_commutes():
    latt = lattice_ops(12, 3, 2)
    assert len(latt) == 24
    for adj in adjoint_lattice_ops(12, 3, 2):
        for op in latt:
            assert np.linalg.norm(adj @ op - op @ adj) <= 1e-12


def test_adjoint_lattice_spans_commutant():
    L, a, b = 12, 3, 2
    comm = commutant_of_matrices(np.array(lattice_ops(L, a, b)))
    adj = adjoint_lattice_ops(L, a, b)
    assert len(comm) == len(adj) == a * b
    # mutual projection: each spans the other within tolerance
    stack_c = np.column_stack([t.reshape(-1) for t in comm])
    stack_a = np.linalg.qr(np.column_stack([t.reshape(-1) for t in adj]))[0]
    for s_from, s_to in [(stack_a, stack_c), (stack_c, stack_a)]:
        for j in range(s_from.shape[1]):
            v = s_from[:, j]
            proj = s_to @ (s_to.conj().T @ v)
            assert np.linalg.norm(proj - v) <= 1e-9


def test_wexler_raz_canonical_dual():
    rng = np.random.default_rng(54)
    g = rand_c(rng, 12)
    sys = GaborSystem(L=12, a=3, b=2, window=g)
    gamma = gabor_canonical_dual(sys)
    res = wexler_raz_check(sys, gamma)
    assert res.passed
    # constant at the identity operator really is ab/L = 1/2
    assert abs(np.vdot(sys.window, gamma) - 0.5) <= 1e-9
    assert not wexler_raz_check(sys, 2 * gamma).passed


def test_wexler_raz_reference_self_dual():
    g = reference_window(12, 3, 2)
    sys = GaborSystem(L=12, a=3, b=2, window=g)
    assert wexler_raz_check(sys, g).passed


def test_wexler_raz_iff_reconstruction():
    rng = np.random.default_rng(55)
    g = rand_c(rng, 12)
    sys = GaborSystem(L=12, a=3, b=2, window=g)
    gamma0 = gabor_canonical_dual(sys)
    v_g = gabor_coefficient_map(sys)
    for k in range(50):
        cand = gamma0 if k == 0 else gamma0 + (10.0 ** -(k % 8)) * rand_c(rng, 12)
        wr = wexler_raz_check(sys, cand, tol=1e-9)
        v_c = gabor_coefficient_map(GaborSystem(L=12, a=3, b=2, window=cand))
        recon = float(np.linalg.norm(v_c.conj().T @ v_g - np.eye(12)))
        assert wr.passed == (recon <= 1e-6), (wr.residual, recon)


def test_wr_fundamental_relation_delta():
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert wr_fundamental_relation_check(4, 2, 2, e0, e0, e0).residual <= 1e-12


def test_wr_fundamental_relation_random():
    rng = np.random.default_rng(56)
    f, g, h = (rand_c(rng, 12) for _ in range(3))
    assert wr_fundamental_relation_check(12, 3, 2, f, g, h).residual <= 1e-9


def test_wr_fundamental_relation_full_lattice():
    rng = np.random.default_rng(57)
    f, g, h = (rand_c(rng, 6) for _ in range(3))
    assert wr_fundamental_relation_check(6, 1, 1, f, g, h).residual <= 1e-9


def test_wh_group_critical_density():
    wh = wh_group_build(4, 2, 2)
    assert wh.q == 1
    group = wh_rep(wh).group
    assert group.order == 4
    assert is_abelian(group)
    assert sorted(element_orders(group)) == [1, 2, 2, 2]  # Z2 x Z2


def test_wh_group_half_density():
    wh = wh_group_build(12, 3, 2)
    assert wh.q == 2
    group = wh_rep(wh).group
    assert group.order == 48
    assert not is_abelian(group)


def test_wh_rep_is_projective_lift():
    wh = wh_group_build(12, 3, 2)
    rep = wh_rep(wh)
    rep.validate(1e-9)


def test_wh_bridge():
    rng = np.random.default_rng(58)
    wh = wh_group_build(12, 3, 2)
    for _ in range(3):
        f, g = rand_c(rng, 12), rand_c(rng, 12)
        assert wh_bridge_check(wh, f, g).residual <= 1e-9
