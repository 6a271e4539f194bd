"""Walnut-block and gather Gabor kernels against the dense operators they replaced.

Every lattice operator is a shift times a phase, so the kernels never build an
L x L operator.  The dense versions stay here as oracles, built from the
rolled-identity and diagonal matrices of ``oracles.translation`` and
``oracles.modulation``: the analysis matrix, ``inv_psd``/``eigvalsh`` of the
dense frame operator, the loop over the adjoint lattice operators (applied as
M_(sL/a) and T_(tL/b) at L = 512, where the whole list takes 256 MiB), the
dense product V_gamma^* V_g and the sum over the dense Weyl-Heisenberg
representation.  The one (phase, shift) kernel is also checked bitwise against
the gathers it replaced, and its dense views against the dense products.  The
b x a correlation array is checked bitwise against the b x L gather it replaced;
the Walnut blocks read from it, against the gather-and-matmul blocks they
replaced, and the reconstruction check, which reads no block, against their
norm.  The Walnut form of the lattice-swap relation is checked against its
dense form.  Windows: random ones, and ones that vanish on a residue class
mod a, which are never frames.
"""
import dataclasses
import math

import numpy as np
import pytest

from frametrace.errors import DimensionMismatch, NotAFrame, NotAGroup, NotInvertible
from frametrace.gabor import (
    GaborSystem,
    WHGroup,
    adjoint_lattice_ops,
    frame_bounds_ratio,
    gabor_canonical_dual,
    gabor_coefficient_map,
    gabor_frame_operator,
    gabor_reconstruction_check,
    lattice_ops,
    wexler_raz_check,
    wh_bridge_check,
    wh_group_build,
    wh_rep,
    wr_fundamental_relation_check,
)
from frametrace.gabor import _apply_blocks, _correlation, _walnut_blocks, _zak_blocks
from frametrace.numerics import inv_psd
from oracles import (
    coefficient_map_by_gathers,
    correlation_by_gather,
    lattice_ops_dense,
    modulation,
    translation,
    walnut_blocks_by_gather,
    wh_bridge_residual_by_scatter,
    wh_operators_by_coords,
    wh_rep_dense,
    wr_fundamental_relation_dense,
)

LATTICES = [
    (4, 2, 2), (6, 1, 1), (12, 3, 2), (24, 4, 3), (30, 5, 3),
    (36, 6, 6), (48, 4, 4), (60, 5, 6), (256, 8, 8), (512, 8, 8),
]
SMALL = [lat for lat in LATTICES if lat[0] <= 60]  # WH groups of order <= 512
# a does not divide L/b (twice), and a > L/b: then ab > L and no window is a frame; a = L and b = L.
BLOCK_LATTICES = LATTICES + [(20, 4, 2), (36, 4, 6), (48, 16, 4), (12, 12, 1), (12, 1, 12)]
PERTURBATIONS = (0.0, 1e-13, 1e-9, 1e-6, 1e-3)


def ids(lat):
    return "L{}a{}b{}".format(*lat)


def rand_c(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)


def seeds(length):
    return range(3) if length <= 60 else range(1)


def windows(length, a, seed):
    """A random window, then the same window zeroed on one residue class mod a."""
    rng = np.random.default_rng(1000 * seed + length)
    g = rand_c(rng, length)
    zeroed = g.copy()
    zeroed[int(rng.integers(a)) :: a] = 0.0
    return [("random", g), ("zeroed", zeroed)]


def dense_frame_operator(sys_):
    v = gabor_coefficient_map(sys_)
    s = v.conj().T @ v
    return 0.5 * (s + s.conj().T)


def dense_cross(length, a, b, gamma, g):
    """V_gamma^* V_g from the analysis matrices."""
    v_gamma = gabor_coefficient_map(GaborSystem(length, a, b, gamma))
    return v_gamma.conj().T @ gabor_coefficient_map(GaborSystem(length, a, b, g))


def adjoint_images(length, a, b, cands):
    """A @ cands for each adjoint lattice operator A, identity first.

    At L = 512 the operators are built one at a time as M_(sL/a) and T_(tL/b).
    """
    if length <= 256:
        return [op @ cands for op in lattice_ops_dense(length, length // b, length // a)]
    return [
        modulation(length, s * (length // a)) @ (translation(length, t * (length // b)) @ cands)
        for s in range(a)
        for t in range(b)
    ]


def wr_oracle(sys_, cands):
    """Residual of the check, for each column of cands, as the loop over the dense
    adjoint lattice operators it replaced."""
    constant = sys_.a * sys_.b / sys_.L
    residual = np.zeros(cands.shape[1])
    for k, images in enumerate(adjoint_images(sys_.L, sys_.a, sys_.b, cands)):
        values = sys_.window.conj() @ images
        residual = np.maximum(residual, np.abs(values - (constant if k == 0 else 0.0)))
    return residual


@pytest.mark.parametrize("lat", SMALL, ids=ids)
def test_coefficient_map_matches_lattice_operators(lat):
    length, a, b = lat
    ops = lattice_ops_dense(length, a, b)
    for seed in seeds(length):
        for _, g in windows(length, a, seed):
            rows = np.array([(op @ g).conj() for op in ops])
            got = gabor_coefficient_map(GaborSystem(length, a, b, g))
            assert np.abs(got - rows).max() <= 1e-12


@pytest.mark.parametrize("lat", SMALL, ids=ids)
def test_tf_kernel_is_the_former_gathers_and_the_dense_products(lat):
    length, a, b = lat
    wh = wh_group_build(length, a, b)
    for got, former in zip(wh.operators, wh_operators_by_coords(wh)):
        assert got.dtype == former.dtype and got.tobytes() == former.tobytes()
    for _, g in windows(length, a, 0):
        sys_ = GaborSystem(length, a, b, g)
        assert gabor_coefficient_map(sys_).tobytes() == coefficient_map_by_gathers(sys_).tobytes()
    views = [
        (lattice_ops(length, a, b), lattice_ops_dense(length, a, b)),
        (adjoint_lattice_ops(length, a, b), lattice_ops_dense(length, length // b, length // a)),
        (wh_rep(wh).matrices, wh_rep_dense(wh).matrices),
    ]
    for got, oracle in views:
        assert np.shape(got) == oracle.shape
        assert np.abs(np.asarray(got) - oracle).max() <= 1e-12


@pytest.mark.parametrize("lat", BLOCK_LATTICES, ids=ids)
def test_walnut_blocks_match_the_gather_oracle(lat):
    length, a, b = lat
    for seed in seeds(length):
        rng = np.random.default_rng(seed)
        _, g = windows(length, a, seed)[0]
        random_gamma = rand_c(rng, length)
        for gamma in (random_gamma, g):
            assert np.array_equal(_correlation(length, a, b, gamma, g), correlation_by_gather(length, a, b, gamma, g))
            got = _walnut_blocks(length, a, b, gamma, g)
            oracle = walnut_blocks_by_gather(length, a, b, gamma, g)
            assert got.shape == oracle.shape == (length // b, b, b)
            assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()
            for r in range(length // b):
                assert got[r].tobytes() == got[r % a].tobytes()
        # The reconstruction check forms no block: (L/b) sqrt(L) / a times the norm of the Wexler-Raz defect.
        # A dual's residual is rounding on both routes, so it is compared relative to the blocks' norm.
        sys_ = GaborSystem(length, a, b, g)
        for gamma in [random_gamma] + ([gabor_canonical_dual(sys_)] if a * b <= length else []):
            blocks = walnut_blocks_by_gather(length, a, b, gamma, g)
            want = np.linalg.norm(blocks - np.eye(b))
            scale = want if gamma is random_gamma else np.linalg.norm(blocks)
            assert abs(gabor_reconstruction_check(sys_, gamma, 1e-9).residual - want) <= 1e-13 * scale
        # S's block r is G_r G_r^*, G_r[i, n] = sqrt(L/b) g(r + i L/b - n a), and class r has the singular values
        # of class r mod c, c = gcd(L/b, a): those of its e = gcd(L/a, b) Zak blocks.
        p, c, e = length // b, math.gcd(length // b, a), math.gcd(length // a, b)
        r, i, n = np.ogrid[:p, :b, : length // a]
        walnut = np.sqrt(p) * g[(r + p * i - a * n) % length]
        assert np.abs(walnut @ walnut.conj().swapaxes(1, 2) - oracle).max() <= 1e-13 * np.abs(oracle).max()
        blocks, pos = _zak_blocks(GaborSystem(length, a, b, g))
        assert blocks.shape == (c * e, b // e, length // (a * e))
        assert np.array_equal(np.sort(pos), np.arange(length // c))  # each sample of g once
        zak = np.sort(np.linalg.svd(blocks, compute_uv=False).reshape(c, -1), axis=1)
        walnut_s = np.sort(np.linalg.svd(walnut, compute_uv=False), axis=1)
        assert np.abs(walnut_s - zak[np.arange(p) % c]).max() <= 1e-13 * walnut_s.max()


@pytest.mark.parametrize("lat", BLOCK_LATTICES, ids=ids)
def test_frame_operator_dual_and_bounds_match_dense(lat):
    length, a, b = lat
    for seed in seeds(length):
        for kind, g in windows(length, a, seed):
            sys_ = GaborSystem(length, a, b, g)
            dense = dense_frame_operator(sys_)
            scale = np.linalg.norm(dense)
            assert np.linalg.norm(gabor_frame_operator(sys_) - dense) <= 1e-12 * scale

            w = np.linalg.eigvalsh(dense)
            oracle_ratio = w[0] / w[-1] if w[-1] > 0 else 0.0
            assert abs(frame_bounds_ratio(sys_) - oracle_ratio) <= 1e-12

            try:
                oracle = inv_psd(dense) @ g
            except NotInvertible:
                oracle = None
            if oracle is None:
                with pytest.raises(NotAFrame):
                    gabor_canonical_dual(sys_)
            else:
                gamma = gabor_canonical_dual(sys_)
                assert np.linalg.norm(gamma - oracle) <= 1e-10 * np.linalg.norm(oracle)
            # A window that vanishes on a residue class mod a is never a frame,
            # nor is any window when the (L/a)(L/b) vectors are fewer than L.
            assert (oracle is None) == (kind == "zeroed" or a * b > length)


@pytest.mark.parametrize("lat", LATTICES, ids=ids)
def test_wexler_raz_and_reconstruction_match_dense(lat):
    length, a, b = lat
    for seed in seeds(length):
        rng = np.random.default_rng(seed)
        _, g = windows(length, a, seed)[0]
        sys_ = GaborSystem(length, a, b, g)
        gamma0 = gabor_canonical_dual(sys_)
        cands = np.stack([gamma0 + eps * rand_c(rng, length) for eps in PERTURBATIONS], axis=1)
        for cand, oracle in zip(cands.T, wr_oracle(sys_, cands)):
            wr = wexler_raz_check(sys_, cand, tol=1e-9)
            assert abs(wr.residual - oracle) <= 1e-12
            assert wr.passed == (oracle <= 1e-9)

            dense = dense_cross(length, a, b, cand, g) - np.eye(length)
            recon = gabor_reconstruction_check(sys_, cand, 1e-9).residual
            assert abs(recon - np.linalg.norm(dense)) <= 1e-11


@pytest.mark.parametrize("lat", [lat for lat in BLOCK_LATTICES if lat[0] <= 256], ids=ids)
def test_wr_fundamental_relation_matches_dense_and_needs_its_factor(lat):
    length, a, b = lat
    for seed in seeds(length):
        rng = np.random.default_rng(seed)
        f, g, h = (rand_c(rng, length) for _ in range(3))
        got = wr_fundamental_relation_check(length, a, b, f, g, h, tol=1e-9)
        assert got.passed
        assert abs(got.residual - wr_fundamental_relation_dense(length, a, b, f, g, h)) <= 1e-11
        # The two Walnut forms the check compares are far from 0: a wrong factor fails.
        lhs = _apply_blocks(_walnut_blocks(length, a, b, f, g), h)
        rhs = _apply_blocks(_walnut_blocks(length, length // b, length // a, h, g), f)
        factor = length / (a * b)
        assert np.linalg.norm(lhs - factor * rhs) == got.residual
        for wrong in (factor * (1 + 1e-6), 2 * factor, factor / 2):
            assert np.linalg.norm(lhs - wrong * rhs) > 1e-9


@pytest.mark.parametrize("lat", SMALL, ids=ids)
def test_wh_table_and_bridge_match_dense(lat):
    length, a, b = lat
    wh = wh_group_build(length, a, b)
    n_m, n_n, q = length // b, length // a, wh.q
    k = (a * b * q) // length

    def index(m, n, z):
        return ((m % n_m) * n_n + n % n_n) * q + z % q

    order = wh.order
    table = np.zeros((order, order), dtype=np.int64)
    for i in range(order):
        m, n, z = wh.coords(i)
        for j in range(order):
            m2, n2, z2 = wh.coords(j)
            table[i, j] = index(m + m2, n + n2, z + z2 - k * n * m2)
    assert np.array_equal(wh_rep(wh).group.cayley, table)

    mats = wh_rep_dense(wh).matrices
    # The law residual reads the phases of pi(x) pi(s) - pi(xs) on the three
    # generators; the dense matrices give the same entries.  A wrong cocycle
    # k + 1 changes the law unless q = 1, where every k gives the same law.
    x = np.arange(order)
    gens = [int(np.ravel_multi_index(e, wh.shape, mode="wrap")) for e in np.eye(3, dtype=int)]
    for law in (wh, dataclasses.replace(wh, k=k + 1)):
        dense = max(np.abs(mats @ mats[s] - mats[law.product(x, s)]).max() for s in gens)
        assert abs(law.law_residual() - dense) <= 1e-13
    assert wh.law_residual() <= 1e-13
    if q > 1:
        assert dataclasses.replace(wh, k=k + 1).law_residual() >= 1.0

    for seed in seeds(length):
        rng = np.random.default_rng(seed)
        f, g = rand_c(rng, length), rand_c(rng, length)
        acc = sum(np.outer(p @ g, (p @ f).conj()) for p in mats) / q
        oracle = float(np.linalg.norm(acc - dense_cross(length, a, b, g, f)))
        assert abs(wh_bridge_check(wh, f, g).residual - oracle) <= 1e-11


@pytest.mark.parametrize("lat", [(48, 4, 4), (12, 2, 3), (24, 4, 3), (36, 6, 4), (60, 5, 6)], ids=ids)
def test_wh_bridge_subtracts_the_blocks_in_place_bit_for_bit(lat):
    # The Walnut blocks come off the group average on their classes mod L/b; off them the former
    # zero-filled L x L subtracted exact zeros, so the residual keeps every bit.
    wh = wh_group_build(*lat)
    rng = np.random.default_rng(sum(lat))
    f, g = rand_c(rng, lat[0]), rand_c(rng, lat[0])
    assert wh_bridge_check(wh, f, g).residual == wh_bridge_residual_by_scatter(wh, f, g)


def test_wh_bridge_fails_on_a_corrupted_shift_but_not_on_a_scalar_phase():
    length, a, b = 12, 3, 2
    rng = np.random.default_rng(59)
    f, g = rand_c(rng, length), rand_c(rng, length)
    wh = wh_group_build(length, a, b)
    phase, shift = wh.operators
    cross = dense_cross(length, a, b, g, f)

    def oracle(phase, shift):
        """The residual from the dense matrices of f -> phase[x] * f[shift[x]], built entry by entry."""
        mats = np.zeros(shift.shape + (length,), dtype=complex)
        for x, j in np.ndindex(shift.shape):
            mats[x, j, shift[x, j]] = phase[x, j]
        acc = sum(np.outer(p @ g, (p @ f).conj()) for p in mats) / wh.q
        return float(np.linalg.norm(acc - cross))

    def bridge(operators):
        corrupted = wh_group_build(length, a, b)
        vars(corrupted)["operators"] = operators  # the cached (phase, shift) of the group
        return wh_bridge_check(corrupted, f, g, tol=1e-9)

    clean = wh_bridge_check(wh, f, g, tol=1e-9)
    assert clean.passed and abs(clean.residual - oracle(phase, shift)) <= 1e-12

    rolled = shift.copy()
    rolled[5] = np.roll(rolled[5], 1)
    broken = bridge((phase, rolled))
    assert not broken.passed and broken.residual > 1.0
    assert broken.residual == pytest.approx(oracle(phase, rolled), rel=1e-12)

    # The average of pi(x) g (pi(x) f)^* is blind to a unit scalar on one pi(x): only
    # a shift or a non-scalar phase error can show.
    rotated = phase.copy()
    rotated[7] *= np.exp(0.7j)
    assert bridge((rotated, shift)).residual <= 1e-12


def test_wh_group_build_refuses_large_orders_up_front():
    # The operator arrays are order x L: 3456 x 96 entries, above MAX_ORDER^2.
    with pytest.raises(NotAGroup, match="order 3456 x L = 331776 exceeds the supported maximum 262144"):
        wh_group_build(96, 4, 4)
    # An order above MAX_ORDER on a short L builds, but has no Cayley table to validate.
    wh = wh_group_build(48, 4, 3)
    assert wh.order == 768 and wh.law_residual() <= 1e-13
    with pytest.raises(NotAGroup, match="order 768 exceeds the supported maximum 512"):
        wh_rep(wh)
    # The law needs no table, so it is checked at any order.
    assert WHGroup(96, 4, 4, 6, 1).law_residual() <= 1e-13


def test_kernels_reject_a_window_of_the_wrong_length():
    sys_ = GaborSystem(12, 3, 2, np.ones(12))
    wh = wh_group_build(12, 3, 2)
    for wrong in (np.ones(11), np.ones(13)):
        with pytest.raises(DimensionMismatch):
            wexler_raz_check(sys_, wrong)
        with pytest.raises(DimensionMismatch):
            gabor_reconstruction_check(sys_, wrong, 1e-9)
        with pytest.raises(DimensionMismatch):
            wh_bridge_check(wh, wrong, np.ones(12))
