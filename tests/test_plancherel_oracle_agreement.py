"""The one-matrix Plancherel transform against the loops it replaced.

``plancherel`` maps a stack of samples to every block by one product with the
|G| x sum d^2 matrix of all irreps.  The per-irrep ``einsum`` transform,
inverse and Parseval loop are the previous implementation, kept here as
oracles on the irrep-oracle specs, also for the one check of ``group analyze``.
"""
import json

import numpy as np
import pytest

from frametrace.cli import main
from frametrace.groups import GroupVector, builtin_group
from frametrace.numerics import DEFAULT_TOL
from frametrace.plancherel import (
    PlancherelCoefficients,
    builtin_irreps,
    inverse_plancherel,
    parseval_residual,
    plancherel_transform,
)
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

    back = inverse_plancherel(PlancherelCoefficients.from_blocks(table, blocks)).data
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
def test_group_analyze_checks_parseval_on_its_first_draw(spec, tmp_path):
    # The table is validated on load, so Parseval on the run's first 20 samples is the one check.
    out = tmp_path / "r.json"
    assert main(["group", "analyze", "--builtin", spec, "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    group = builtin_group(spec)
    table = builtin_irreps(group)
    stack = samples(np.random.default_rng(7), 20, group.order)
    old = max(einsum_parseval(table, f) / (1.0 + np.linalg.norm(f) ** 2) for f in stack)
    (check,) = report["checks"]
    assert check["name"] == "parseval_sampled" and check["pass"] is True
    assert abs(check["residual"] - old) <= 1e-14
    assert report["metadata"]["irrep_dims"] == sorted(table.degrees)
