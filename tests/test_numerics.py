"""Dense complex kernel tests against brute-force oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frametrace.errors import DimensionMismatch, NotAFrame, NotHermitian, NotInvertible
from frametrace.numerics import (
    EIG_FLOOR,
    _unit_roots,
    as_vector,
    eig_hermitian,
    frame_duals,
    frob_norm,
    inv_psd,
    inv_sqrt_psd,
    orthonormal_columns,
    within_tol,
)

from oracles import unit_roots_by_exp


def rand_c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_adjoint_isometry():
    rng = np.random.default_rng(5)
    a = rand_c(rng, 6, 4)
    assert abs(frob_norm(a.conj().T) - frob_norm(a)) < 1e-12


def test_eig_diagonal():
    dec = eig_hermitian(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])


def test_eig_identity():
    dec = eig_hermitian(np.eye(5))
    assert np.allclose(dec.eigenvalues, 1.0)


def test_eig_reconstruction():
    rng = np.random.default_rng(6)
    a = rand_c(rng, 6, 6)
    a = a + a.conj().T
    dec = eig_hermitian(a)
    assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * frob_norm(a)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_within_tol_is_relative_above_unit_scale_and_fails_nan():
    small, big = np.eye(2) / 10, 10 * np.eye(2)  # ||small||_F < 1 < ||big||_F
    assert within_tol(1e-9, 1e-9, small) and not within_tol(1.1e-9, 1e-9, small)
    assert within_tol(1e-8, 1e-9, big) and not within_tol(1.5e-8, 1e-9, big)
    assert not within_tol(float("nan"), 1e-9, big)


def test_inv_psd_cases():
    assert np.allclose(inv_psd(np.eye(3)), np.eye(3))
    assert np.allclose(inv_psd(np.diag([4.0, 1.0])), np.diag([0.25, 1.0]))


def test_inv_psd_random():
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rand_c(rng, 5, 5))[0]
    a = q @ np.diag([1.0, 2.0, 3.0, 5.0, 9.0]) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    assert np.linalg.norm(inv_psd(a) @ a - np.eye(5)) <= 1e-10


def test_inv_psd_singular_raises():
    with pytest.raises(NotInvertible):
        inv_psd(np.diag([1.0, 0.0]))


def test_stack_is_one_operator_for_the_floor():
    # Each block is well conditioned, but the stack as one block-diagonal
    # operator has min/max = 1e-13 <= EIG_FLOOR.
    stack = np.array([np.eye(2), 1e-13 * np.eye(2)])
    for blk in stack:
        assert np.allclose(inv_psd(blk) @ blk, np.eye(2))
    with pytest.raises(NotInvertible):
        inv_psd(stack)
    with pytest.raises(NotInvertible):
        inv_psd(np.zeros((3, 2, 2)))
    with pytest.raises(DimensionMismatch):
        eig_hermitian(np.zeros((3, 2, 4)))


def test_frame_duals_share_one_floor_across_stacks():
    # Analysis blocks of one operator in stacks of 1 x 1 and 2 x 2 blocks: each stack alone is well
    # conditioned, together the s^2 have min/max = 1e-13 <= EIG_FLOOR; the ratio is that of the union.
    small, large = np.full((3, 1, 1), np.sqrt(1e-13)), np.array([np.eye(2), np.sqrt(2) * np.eye(2)])
    ((left, _),), ratio = frame_duals([small])
    assert np.allclose(np.abs(left), 1 / np.sqrt(1e-13)) and ratio == 1.0
    with pytest.raises(NotAFrame) as exc:
        frame_duals([small, large])
    assert exc.value.ratio == pytest.approx(0.5e-13)
    with pytest.raises(NotAFrame) as exc:
        frame_duals([])
    assert exc.value.ratio == 0.0
    with pytest.raises(NotAFrame):
        frame_duals([np.zeros((2, 1, 3))])
    duals, ratio = frame_duals([10 * small, large])
    assert [(left.shape, vh.shape) for left, vh in duals] == [((3, 1, 1), (3, 1, 1)), ((2, 2, 2), (2, 2, 2))]
    assert ratio == pytest.approx(0.5e-11)


def test_frame_duals_refuse_blocks_with_more_rows_than_columns():
    # b b* of an r x d block with r > d has r - d zero eigenvalues that the thin SVD leaves out: its
    # d singular values are all 1 here, yet the floor fails with ratio 0, as eigh of b b* finds.
    tall = np.array([np.eye(3)[:, :2]] * 2)
    assert frame_duals([tall.swapaxes(1, 2)])[1] == pytest.approx(1.0)
    with pytest.raises(NotAFrame) as exc:
        frame_duals([tall])
    assert exc.value.ratio == 0.0
    assert eig_hermitian(tall @ tall.swapaxes(1, 2)).eigenvalues.min() == 0.0


def test_frame_duals_give_the_dual_and_tight_blocks():
    # b = U diag(s) V*: U diag(1/s) V* = (b b*)^-1 b and U V* = (b b*)^-1/2 b, for r x d blocks, r <= d.
    rng = np.random.default_rng(4)
    stacks = [rand_c(rng, 5, 1, 3), rand_c(rng, 2, 2, 3), rand_c(rng, 4, 3, 3)]
    duals, tights = frame_duals(stacks)[0], frame_duals(stacks, tight=True)[0]
    for b, (left, vh), (u, wh) in zip(stacks, duals, tights):
        gram = b @ b.conj().swapaxes(-1, -2)
        assert np.allclose(left @ vh, inv_psd(gram) @ b, atol=1e-12)
        assert np.allclose(u @ wh, inv_sqrt_psd(gram) @ b, atol=1e-12)


def test_frame_duals_return_the_ratio_the_floor_tests():
    # The ratio is min/max of the eigenvalues of the stacked b b*, the frame operator; just below
    # EIG_FLOOR the NotAFrame raised carries the same ratio.
    rng = np.random.default_rng(7)
    stacks = [rand_c(rng, 5, 1, 3), rand_c(rng, 2, 2, 3), rand_c(rng, 4, 3, 3)]
    lam = np.concatenate([np.linalg.eigvalsh(b @ b.conj().swapaxes(-1, -2)).ravel() for b in stacks])
    assert frame_duals(stacks)[1] == pytest.approx(lam.min() / lam.max(), rel=1e-12)
    q = np.linalg.qr(rand_c(rng, 3, 3))[0]
    for scale in (1.1, 0.9):  # just above the floor, just below it
        b = (q * np.sqrt([1.0, 0.5, scale * EIG_FLOOR]))[None]
        lam = np.linalg.eigvalsh(b @ b.conj().swapaxes(-1, -2))
        if scale > 1:
            ratio = frame_duals([b])[1]
        else:
            with pytest.raises(NotAFrame) as exc:
                frame_duals([b])
            ratio = exc.value.ratio
        assert ratio == pytest.approx(scale * EIG_FLOOR, rel=1e-9)
        assert ratio == pytest.approx(lam.min() / lam.max(), rel=1e-3)


def test_stack_agrees_with_block_diagonal():
    rng = np.random.default_rng(11)
    b = rand_c(rng, 4, 3, 3)
    stack = b @ b.conj().swapaxes(1, 2) + np.eye(3)
    dense = np.zeros((12, 12), dtype=complex)
    for k in range(4):
        dense[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = stack[k]
    dec = eig_hermitian(stack)
    assert np.allclose(np.sort(dec.eigenvalues.ravel()), eig_hermitian(dense).eigenvalues)
    assert np.linalg.norm(dec.reconstruct() - stack) <= 1e-10 * frob_norm(stack)
    inv = inv_psd(stack)
    root = inv_sqrt_psd(stack)
    for k in range(4):
        blk = slice(3 * k, 3 * k + 3)
        assert np.allclose(inv[k], inv_psd(dense)[blk, blk], atol=1e-12)
        assert np.allclose(root[k], inv_sqrt_psd(dense)[blk, blk], atol=1e-12)
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


def test_inv_sqrt_psd_cases():
    assert np.allclose(inv_sqrt_psd(np.eye(4)), np.eye(4))
    assert np.allclose(inv_sqrt_psd(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))


def test_inv_sqrt_psd_random():
    rng = np.random.default_rng(8)
    b = rand_c(rng, 6, 6)
    a = b @ b.conj().T + 0.1 * np.eye(6)
    a = 0.5 * (a + a.conj().T)
    r = inv_sqrt_psd(a)
    assert np.linalg.norm(r @ r @ a - np.eye(6)) <= 1e-10


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        as_vector([np.inf, 0.0])


def test_orthonormal_columns():
    rng = np.random.default_rng(10)
    base = rand_c(rng, 6, 2)
    cols = np.hstack([base, base @ rand_c(rng, 2, 3)])  # rank 2 by construction
    q = orthonormal_columns(cols)
    assert q.shape == (6, 2)
    assert np.linalg.norm(q.conj().T @ q - np.eye(2)) < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_eig_reconstruction_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rand_c(rng, n, n)
    a = a + a.conj().T
    dec = eig_hermitian(a)
    assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * max(frob_norm(a), 1.0)
    assert np.all(np.diff(dec.eigenvalues) >= -1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_inv_sqrt_property(n, seed):
    rng = np.random.default_rng(seed)
    b = rand_c(rng, n, n)
    a = b @ b.conj().T + np.eye(n)  # condition number well under 1e6
    a = 0.5 * (a + a.conj().T)
    r = inv_sqrt_psd(a)
    assert np.linalg.norm(r @ r @ a - np.eye(n)) <= 1e-9


@pytest.mark.parametrize("n", [*range(1, 65), 512, 2048])
def test_unit_roots_by_lookup_are_bitwise_the_exp_of_each_entry(n):
    k = np.arange(-3 * n, 5 * n)
    assert _unit_roots(k, n).tobytes() == unit_roots_by_exp(k, n).tobytes()
    outer = np.outer(np.arange(-7, 9) * 5, np.arange(n + 3))
    assert _unit_roots(outer, n).tobytes() == unit_roots_by_exp(outer, n).tobytes()
    assert _unit_roots(-1, n) == unit_roots_by_exp(-1, n)
