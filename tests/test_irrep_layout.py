"""Irreps stored per dimension class in the Plancherel-kernel layout, against the builders they replaced.

``builtin_irreps`` writes every family's irreps straight into the ``|G| x sum d^2``
kernel and forms a product's kernel from two column gathers of its factors'
kernels; ``IrrepTable.irreps`` is a view of that kernel.  The former builders,
one ``(order, d, d)`` stack per irrep and one einsum per pair of factor irreps,
stay in ``oracles.builtin_irreps_by_pairs``: labels, their order, dims and
matrices must be bitwise equal.

The fiber tests (``_fibers``, ``FiberProjectionField.ranks`` and the
``fiber_admissibility_check`` residual) make one stacked call per dimension
class.  The former per-irrep loops stay in ``oracles``: ranks must be equal,
residuals within 1e-12 relative, and a corrupted fiber block must raise the
same message, naming the first bad irrep in table order.
"""
import numpy as np
import pytest

from frametrace.errors import InvariantViolated, NotInvariant
from frametrace.groups import GroupVector, builtin_group, convolution_operator
from frametrace.plancherel import (
    builtin_irreps,
    fiber_admissibility_check,
    fiber_projections,
    projection_from_fibers,
    random_invariant_projection,
    validate_irreps,
)

from oracles import (
    builtin_irreps_by_pairs,
    fiber_admissibility_residual_by_irrep,
    fiber_ranks_by_irrep,
    fibers_by_irrep,
)

PRODUCTS = [
    "cyclic:2 x dihedral:3",
    "cyclic:3 x dihedral:8",
    "cyclic:5 x cyclic:7",
    "dihedral:4 x heisenberg:3",
    "heisenberg:3 x cyclic:5",
    "dihedral:64 x cyclic:2",
    "cyclic:2 x dihedral:64",
    "cyclic:3 x cyclic:2 x dihedral:4",
    "cyclic:3 x cyclic:5 x dihedral:7",
    "dihedral:2 x dihedral:3 x cyclic:2",
]
SPECS = (
    [f"cyclic:{n}" for n in range(1, 9)] + ["cyclic:128"]
    + [f"dihedral:{n}" for n in range(1, 10)] + ["dihedral:16"]
    + [f"heisenberg:{p}" for p in (2, 3, 5, 7)]
    + PRODUCTS
)


@pytest.mark.parametrize("spec", SPECS)
def test_builtin_irreps_bitwise_equal_to_per_pair_builders(spec):
    group = builtin_group(spec)
    table = builtin_irreps(group)
    oracle = builtin_irreps_by_pairs(spec)
    assert list(table.labels) == [label for label, _ in oracle]
    assert list(table.degrees) == [m.shape[1] for _, m in oracle]
    assert [s.label for s in table.irreps] == list(table.labels)
    for s, (label, mats) in zip(table.irreps, oracle):
        assert s.dim == mats.shape[1] and s.rep.group == group
        assert np.ascontiguousarray(s.rep.matrices).tobytes() == mats.tobytes(), label


@pytest.mark.parametrize("spec", ["dihedral:5", "heisenberg:3", "cyclic:3 x dihedral:4"])
def test_kernel_is_the_concatenated_transposed_irreps_and_classes_gather_it(spec):
    group = builtin_group(spec)
    table = builtin_irreps(group)
    oracle = builtin_irreps_by_pairs(spec)
    flat = [m.transpose(0, 2, 1).reshape(group.order, -1) for _, m in oracle]
    assert table.kernel.tobytes() == np.concatenate(flat, axis=1).tobytes()
    seen = []
    for d, members, cols in table.classes:
        assert all(table.degrees[i] == d for i in members)
        stack = table.kernel[:, cols]  # (|G|, m, d^2)
        for k, i in enumerate(members):
            assert np.array_equal(stack[:, k], flat[i])
        seen.extend(members.tolist())
    assert sorted(seen) == list(range(len(table.labels)))


@pytest.mark.parametrize("spec", ["dihedral:4", "heisenberg:3", "cyclic:2 x dihedral:3"])
def test_validate_irreps_stacks_supplied_irreps_into_the_same_kernel(spec):
    group = builtin_group(spec)
    table = builtin_irreps(group)
    again = validate_irreps(group, [(s.label, s.rep) for s in table.irreps])
    assert again.labels == table.labels and again.degrees == table.degrees
    assert again.kernel.tobytes() == table.kernel.tobytes()


def _in_range(p, rng):
    v = rng.standard_normal(p.group.order) + 1j * rng.standard_normal(p.group.order)
    return GroupVector(p.group, convolution_operator(p.h) @ v)


@pytest.mark.parametrize("spec", ["dihedral:8", "heisenberg:3", "cyclic:3 x dihedral:4", "dihedral:32",
                                  "cyclic:2 x dihedral:3 x cyclic:2"])
def test_fibers_match_the_per_irrep_loops(spec):
    rng = np.random.default_rng(131)
    table = builtin_irreps(builtin_group(spec))
    for _ in range(6):
        p = random_invariant_projection(table, rng)
        field = fiber_projections(table, p)
        hhat, _ = fibers_by_irrep(table, p)
        assert field.ranks == fiber_ranks_by_irrep(hhat)
        for new, old in zip(field.projections, hhat):
            assert new.tobytes() == old.tobytes()
        eta, psi = _in_range(p, rng), _in_range(p, rng)
        new = fiber_admissibility_check(table, p, eta, psi).residual
        old = fiber_admissibility_residual_by_irrep(table, p, eta, psi)
        assert abs(new - old) <= 1e-12 * old


def _message(fn):
    try:
        fn()
    except (NotInvariant, InvariantViolated) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("spec", ["cyclic:64", "dihedral:32", "cyclic:2 x dihedral:16", "heisenberg:5"])
def test_corrupted_fiber_block_names_the_first_bad_irrep_in_table_order(spec):
    # Many full fibers make the Frobenius scale of p large, so p.validate(tol) still
    # passes while a corrupted block fails the per-block test at the same tol.
    rng = np.random.default_rng(132)
    table = builtin_irreps(builtin_group(spec))
    tol, named = 1e-3, set()
    for trial in range(12):
        blocks = [np.eye(d, dtype=complex) for d in table.degrees]
        bad = sorted(rng.choice(len(blocks), size=1 + trial % 3, replace=False))
        for i in bad:
            d = table.degrees[i]
            if rng.random() < 0.5 or d == 1:
                blocks[i] = blocks[i] * 1.003  # not idempotent
            else:
                blocks[i][1, 1], blocks[i][0, 1] = 0.0, 0.003  # idempotent, not Hermitian
        p = projection_from_fibers(table, blocks)
        new = _message(lambda: fiber_projections(table, p, tol=tol))
        old = _message(lambda: fibers_by_irrep(table, p, tol))
        assert new == old
        if new is not None and new[0] is NotInvariant:
            assert repr(table.labels[bad[0]]) in new[1]
            named.add(new[1].split()[-1])
    assert named == ({"idempotent"} if spec == "cyclic:64" else {"idempotent", "Hermitian"})
