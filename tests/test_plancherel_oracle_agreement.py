"""The one-matrix Plancherel transform and the regrouped trace identity against
the loops they replaced.

``plancherel`` maps a stack of samples to every block by one product with the
|G| x sum d^2 matrix of all irreps, and ``group analyze`` reads
tr(V_f^* V_g) as sum_z N(z) f(z) conj g(z) / |G| from one count of the table.
The per-irrep ``einsum`` transform, inverse and Parseval loop and the gathered
Frobenius product of V_f and V_g are the previous implementation, kept here as
oracles on the irrep-oracle specs.
"""
import numpy as np
import pytest

from frametrace.cli import _trace_identity_residuals
from frametrace.groups import FiniteGroup, GroupVector, builtin_group
from frametrace.numerics import DEFAULT_TOL
from frametrace.plancherel import (
    PlancherelCoefficients,
    builtin_irreps,
    inverse_plancherel,
    parseval_residual,
    plancherel_transform,
)
from oracles import regular_coefficient_matrix
from test_irrep_oracle_agreement import SPECS


def einsum_transform(table, f):
    return [np.einsum("x,xij->ji", f, s.rep.matrices.conj()) for s in table.irreps]


def einsum_inverse(table, blocks):
    n = table.group.order
    data = np.zeros(n, dtype=complex)
    for s, block in zip(table.irreps, blocks):
        data += (s.dim / n) * np.einsum("xij,ji->x", s.rep.matrices, block)
    return data


def einsum_parseval(table, f):
    total = sum(
        (s.dim / table.group.order) * float(np.linalg.norm(b) ** 2)
        for s, b in zip(table.irreps, einsum_transform(table, f))
    )
    return abs(total - np.linalg.norm(f) ** 2)


def gathered_trace_residual(group, f, g):
    vf = regular_coefficient_matrix(group, f)
    vg = regular_coefficient_matrix(group, g)
    lhs = complex(np.sum(vf.conj() * vg)) / group.order
    rhs = np.vdot(g, f)  # <f, g>
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def samples(rng, k, n):
    z = rng.standard_normal((k, 2, n))
    return z[:, 0] + 1j * z[:, 1]


@pytest.mark.parametrize("spec", SPECS)
def test_transform_inverse_and_parseval_match_einsum_loops(spec):
    group = builtin_group(spec)
    table = builtin_irreps(group)
    rng = np.random.default_rng(sum(map(ord, spec)))
    stack = samples(rng, 20, group.order)

    f = stack[0]
    blocks = plancherel_transform(table, GroupVector(group, f)).blocks
    oracle = einsum_transform(table, f)
    scale = max(np.abs(b).max() for b in oracle)
    for s, b, o in zip(table.irreps, blocks, oracle):
        assert b.shape == o.shape == (s.dim, s.dim)
        assert np.abs(b - o).max() <= 1e-12 * scale, s.label

    back = inverse_plancherel(PlancherelCoefficients(table=table, blocks=blocks)).data
    assert np.abs(back - einsum_inverse(table, oracle)).max() <= 1e-12 * np.abs(f).max()
    assert np.abs(back - f).max() <= 1e-12 * np.abs(f).max()

    # The CLI's sampled Parseval check: 20 samples, residual / (1 + ||f||^2).
    norms = 1.0 + np.linalg.norm(stack, axis=1) ** 2
    new = parseval_residual(table, stack) / norms
    old = np.array([einsum_parseval(table, row) for row in stack]) / norms
    assert np.abs(new - old).max() <= 1e-14
    assert (new.max() <= DEFAULT_TOL) == (old.max() <= DEFAULT_TOL)
    single = parseval_residual(table, GroupVector(group, f))
    assert single == pytest.approx(new[0] * norms[0], abs=1e-12)


@pytest.mark.parametrize("spec", SPECS)
def test_regrouped_trace_identity_matches_gathered(spec):
    group = builtin_group(spec)
    rng = np.random.default_rng(sum(map(ord, spec)))
    f, g = samples(rng, 3, group.order), samples(rng, 3, group.order)
    new = _trace_identity_residuals(group, f, g)
    old = [gathered_trace_residual(group, a, b) for a, b in zip(f, g)]
    assert np.abs(new - old).max() <= 1e-13


def test_regrouped_trace_identity_reads_a_non_latin_table():
    # Not a group: the table is not a Latin square, so N(z) = #{(x, y) : x^-1 y = z}
    # is not |G| everywhere and tr(V_f^* V_g) != <f, g>.  Built directly, since
    # group_from_cayley refuses it.
    cayley = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    fake = FiniteGroup(order=3, cayley=cayley, identity=0, inverses=np.array([0, 1, 2]), generators=(1,))
    assert np.bincount(cayley[fake.inverses].ravel(), minlength=3).tolist() == [4, 3, 2]
    rng = np.random.default_rng(3)
    f, g = samples(rng, 4, 3), samples(rng, 4, 3)
    new = _trace_identity_residuals(fake, f, g)
    old = np.array([gathered_trace_residual(fake, a, b) for a, b in zip(f, g)])
    assert old.min() > 1e-2
    assert np.allclose(new, old, rtol=1e-12, atol=0.0)
