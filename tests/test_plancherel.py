"""Finite Plancherel transform, fiber projections and the rank measure."""
import numpy as np
import pytest

from frametrace.errors import (
    NotComplete,
    NotInequivalent,
    NotInRange,
    NotInvariant,
    NotIrreducible,
    UnsupportedGroup,
)
from frametrace.frames import (
    admissible_vector_for_projection,
    canonical_dual,
    coefficient_operator,
    is_admissible_pair,
    natural_trace,
    trace_of_projection,
)
from frametrace.groups import (
    GroupVector,
    Rep,
    builtin_group,
    convolution_operator,
    delta,
    left_regular_rep,
    restrict_rep,
)
from frametrace.plancherel import (
    builtin_irreps,
    convolution_to_product_check,
    fiber_admissibility_check,
    fiber_projections,
    inverse_plancherel,
    isotypic_projection,
    parseval_residual,
    plancherel_transform,
    projection_from_fibers,
    random_invariant_projection,
    rank_measure,
    validate_irreps,
    PlancherelCoefficients,
)

from oracles import irreducibility_by_commutant, random_invariant_projection_spectral


def rand_vec(group, rng):
    return GroupVector(
        group, rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    )


def test_builtin_dims_cyclic4():
    table = builtin_irreps(builtin_group("cyclic:4"))
    assert table.degrees == (1, 1, 1, 1)


def test_builtin_dims_dihedral4():
    table = builtin_irreps(builtin_group("dihedral:4"))
    assert sorted(table.degrees) == [1, 1, 1, 1, 2]
    assert sum(d * d for d in table.degrees) == 8


def test_builtin_dims_heisenberg3():
    table = builtin_irreps(builtin_group("heisenberg:3"))
    assert sorted(table.degrees) == [1] * 9 + [3, 3]
    assert sum(d * d for d in table.degrees) == 27


def test_builtin_irreps_are_irreducible_by_commutant():
    table = builtin_irreps(builtin_group("dihedral:4"))
    for s in table.irreps:
        s.rep.validate(1e-10)
        assert irreducibility_by_commutant(s.rep) == 1


def test_builtin_product_table():
    g = builtin_group("cyclic:2 x dihedral:3")
    table = builtin_irreps(g)
    assert sum(d * d for d in table.degrees) == g.order


def test_builtin_rejects_unknown_label():
    from frametrace.groups import group_from_cayley

    g = group_from_cayley([[0, 1], [1, 0]], label="mystery")
    with pytest.raises(UnsupportedGroup):
        builtin_irreps(g)


KLEIN_FOUR = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_builtin_rejects_table_that_contradicts_label():
    from frametrace.groups import group_from_cayley

    klein = group_from_cayley(KLEIN_FOUR, label="cyclic:4")
    with pytest.raises(UnsupportedGroup, match="does not match"):
        builtin_irreps(klein)


@pytest.mark.parametrize("spec", ["dihedral:4", "heisenberg:3", "cyclic:2 x dihedral:3", "cyclic:12"])
def test_builtin_rejects_relabelings_that_change_the_table(spec):
    """builtin_irreps compares only the n x |S| products x s with the generators s: two group
    tables with the same identity that agree there agree everywhere.  A relabeling that moves
    the identity, or keeps it and changes the table, is refused; an automorphism is the same table."""
    from frametrace.groups import group_from_cayley

    group = builtin_group(spec)
    rng = np.random.default_rng(17)
    refused = 0
    for k in range(12):
        perm = rng.permutation(group.order)
        if k % 2:
            perm = np.concatenate([[0], rng.permutation(np.arange(1, group.order))])
        inv = np.argsort(perm)
        relabeled = group_from_cayley(perm[group.cayley[np.ix_(inv, inv)]], label=spec)
        if relabeled == group:
            assert builtin_irreps(relabeled).labels == builtin_irreps(group).labels
            continue
        with pytest.raises(UnsupportedGroup, match="does not match"):
            builtin_irreps(relabeled)
        refused += 1
    assert refused >= 10
    assert len(builtin_irreps(group_from_cayley(KLEIN_FOUR, label="cyclic:2 x cyclic:2")).irreps) == 4


def test_builtin_heisenberg_requires_prime():
    g = builtin_group("heisenberg:4")
    with pytest.raises(UnsupportedGroup):
        builtin_irreps(g)


def test_validate_irreps_roundtrip():
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    revalidated = validate_irreps(g, list(table.irreps))
    assert revalidated.degrees == table.degrees


def test_validate_irreps_incomplete():
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    with pytest.raises(NotComplete):
        validate_irreps(g, list(table.irreps)[:-1])


def test_validate_irreps_reducible():
    g = builtin_group("cyclic:2")
    # 2-dim rep = triv + sgn, visibly reducible
    mats = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)
    red = Rep(group=g, dim=2, matrices=mats)
    assert irreducibility_by_commutant(red) == 2
    table = builtin_irreps(g)
    with pytest.raises(NotIrreducible):
        validate_irreps(g, [("bad", red), ("chi0", table.irreps[0].rep)])


def test_validate_irreps_names_first_equivalent_pair_row_major():
    # Two equivalent pairs, (0, 4) and (1, 3): row-major order over i < j names
    # (triv, triv-copy) first, although (sgn, sgn-copy) closes first by column.
    g = builtin_group("dihedral:4")
    by_label = {s.label: s.rep for s in builtin_irreps(g).irreps}
    supplied = [
        ("triv", by_label["triv"]),
        ("sgn", by_label["sgn"]),
        ("alt+", by_label["alt+"]),
        ("sgn-copy", by_label["sgn"]),
        ("triv-copy", by_label["triv"]),
    ]
    with pytest.raises(NotInequivalent, match="'triv' and 'triv-copy' are equivalent"):
        validate_irreps(g, supplied)


def test_transform_delta_identity_blocks():
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    coeffs = plancherel_transform(table, delta(g, g.identity))
    for s, b in zip(table.irreps, coeffs.blocks):
        assert np.allclose(b, np.eye(s.dim))


def test_transform_cyclic2_two_point():
    g = builtin_group("cyclic:2")
    table = builtin_irreps(g)
    f = GroupVector(g, np.array([3.0, 2.0], dtype=complex))
    coeffs = plancherel_transform(table, f)
    values = {s.label: complex(b[0, 0]) for s, b in zip(table.irreps, coeffs.blocks)}
    assert abs(values["chi0"] - 5.0) < 1e-14  # a + b
    assert abs(values["chi1"] - 1.0) < 1e-14  # a - b


def test_parseval_random():
    rng = np.random.default_rng(40)
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    for _ in range(10):
        assert parseval_residual(table, rand_vec(g, rng)) <= 1e-10


def test_roundtrip():
    rng = np.random.default_rng(41)
    g = builtin_group("heisenberg:3")
    table = builtin_irreps(g)
    f = rand_vec(g, rng)
    back = inverse_plancherel(plancherel_transform(table, f))
    assert np.linalg.norm(back.data - f.data) <= 1e-10
    # zero blocks and identity blocks
    zero = PlancherelCoefficients(
        table=table, blocks=tuple(np.zeros((s.dim, s.dim)) for s in table.irreps)
    )
    assert np.allclose(inverse_plancherel(zero).data, 0.0)
    eye = PlancherelCoefficients(
        table=table, blocks=tuple(np.eye(s.dim) for s in table.irreps)
    )
    assert np.allclose(inverse_plancherel(eye).data, delta(g, g.identity).data)


def test_convolution_transport():
    rng = np.random.default_rng(42)
    g = builtin_group("heisenberg:2")
    table = builtin_irreps(g)
    f, h = rand_vec(g, rng), rand_vec(g, rng)
    assert convolution_to_product_check(table, f, h).residual <= 1e-10
    assert convolution_to_product_check(table, delta(g, g.identity), h).residual <= 1e-12


def test_convolution_transport_abelian_order_free():
    rng = np.random.default_rng(43)
    g = builtin_group("cyclic:6")
    table = builtin_irreps(g)
    f, h = rand_vec(g, rng), rand_vec(g, rng)
    fb = plancherel_transform(table, f).blocks
    hb = plancherel_transform(table, h).blocks
    for bf, bh in zip(fb, hb):
        assert np.linalg.norm(bf @ bh - bh @ bf) <= 1e-12


def test_fiber_projections_identity():
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    from frametrace.frames import InvariantProjection

    p = InvariantProjection(delta(g, g.identity))
    field = fiber_projections(table, p)
    for s, b in zip(table.irreps, field.projections):
        assert np.allclose(b, np.eye(s.dim))
    assert rank_measure(field) == pytest.approx(1.0)


def test_fiber_projections_cyclic2_halfspace():
    g = builtin_group("cyclic:2")
    table = builtin_irreps(g)
    from frametrace.frames import InvariantProjection

    p = InvariantProjection(GroupVector(g, [0.5, 0.5]))
    field = fiber_projections(table, p)
    vals = {s.label: complex(b[0, 0]) for s, b in zip(table.irreps, field.projections)}
    assert abs(vals["chi0"] - 1.0) < 1e-12
    assert abs(vals["chi1"]) < 1e-12
    assert rank_measure(field) == pytest.approx(0.5)


def test_fiber_projections_rejects_non_idempotent_block():
    # p = R_h holds exactly, so p.validate passes at this tolerance; the first
    # fiber block, 1.003, is not idempotent.
    g = builtin_group("cyclic:64")
    table = builtin_irreps(g)
    blocks = [np.eye(1) * (k < 32) for k in range(64)]
    blocks[0] = blocks[0] * 1.003
    p = projection_from_fibers(table, blocks)
    p.validate(tol=1e-3)
    with pytest.raises(NotInvariant, match="chi0"):
        fiber_projections(table, p, tol=1e-3)


def test_fiber_projections_single_copy_dihedral4():
    rng = np.random.default_rng(44)
    g = builtin_group("dihedral:4")
    table = builtin_irreps(g)
    two = [s for s in table.irreps if s.dim == 2][0]
    u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    q, _ = np.linalg.qr(u)
    blocks = [
        q @ q.conj().T if s.label == two.label else np.zeros((s.dim, s.dim), dtype=complex)
        for s in table.irreps
    ]
    p = projection_from_fibers(table, blocks)
    p.validate(1e-10)
    field = fiber_projections(table, p)
    ranks = dict(zip([s.label for s in table.irreps], field.ranks))
    assert ranks[two.label] == 1
    assert all(r == 0 for lbl, r in ranks.items() if lbl != two.label)


def test_fiber_criterion_orientation_discriminates():
    """The documented orientation passes; swapping the adjoint onto the pair fails."""
    rng = np.random.default_rng(45)
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    blocks = []
    for s in table.irreps:
        if s.label == "rho1":
            u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            q, _ = np.linalg.qr(u)
            blocks.append(q @ q.conj().T)
        elif s.label == "triv":
            blocks.append(np.eye(1, dtype=complex))
        else:
            blocks.append(np.zeros((s.dim, s.dim), dtype=complex))
    p = projection_from_fibers(table, blocks)
    q = p.range_basis()
    rep = restrict_rep(left_regular_rep(g), [q[:, j] for j in range(q.shape[1])])
    eta_c = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    psi_c = canonical_dual(coefficient_operator(rep, eta_c))
    assert is_admissible_pair(rep, eta_c, psi_c).passed
    eta = GroupVector(g, q @ eta_c)
    psi = GroupVector(g, q @ psi_c)
    assert fiber_admissibility_check(table, p, eta, psi).residual <= 1e-9
    # the adjoint-between form is wrong for a genuinely asymmetric pair
    field = fiber_projections(table, p)
    eh = plancherel_transform(table, eta).blocks
    ph = plancherel_transform(table, psi).blocks
    wrong = max(
        np.linalg.norm(bp.conj().T @ be - pb)
        for be, bp, pb in zip(eh, ph, field.projections)
    )
    assert wrong > 1e-3


def test_fiber_criterion_matches_constructed_vector():
    rng = np.random.default_rng(46)
    g = builtin_group("heisenberg:3")
    table = builtin_irreps(g)
    p = random_invariant_projection(table, rng)
    v = admissible_vector_for_projection(p)
    if v.norm() == 0.0:
        pytest.skip("drew the zero projection")
    assert fiber_admissibility_check(table, p, v, v).passed
    scaled = GroupVector(g, 2 * v.data)
    assert not fiber_admissibility_check(table, p, scaled, scaled).passed


def test_fiber_criterion_identity_delta():
    g = builtin_group("cyclic:3")
    table = builtin_irreps(g)
    from frametrace.frames import InvariantProjection

    p = InvariantProjection(delta(g, g.identity))
    e = delta(g, g.identity)
    assert fiber_admissibility_check(table, p, e, e).residual <= 1e-12


def test_fiber_criterion_rejects_out_of_range():
    g = builtin_group("cyclic:2")
    table = builtin_irreps(g)
    from frametrace.frames import InvariantProjection

    p = InvariantProjection(GroupVector(g, [0.5, 0.5]))
    e = delta(g, 0)
    with pytest.raises(NotInRange):
        fiber_admissibility_check(table, p, e, e)


def test_rank_measure_matches_natural_trace():
    rng = np.random.default_rng(47)
    g = builtin_group("dihedral:4")
    table = builtin_irreps(g)
    for _ in range(20):
        p = random_invariant_projection(table, rng)
        field = fiber_projections(table, p)
        assert abs(rank_measure(field) - trace_of_projection(p)) <= 1e-9


def test_isotypic_projection_trace():
    g = builtin_group("dihedral:4")
    table = builtin_irreps(g)
    two = [s for s in table.irreps if s.dim == 2][0]
    p = isotypic_projection(table, two.label)
    # full isotypic component has dimension d^2 = 4, trace 4/8
    assert p.rank() == 4
    assert abs(natural_trace(convolution_operator(p.h), g).real - 0.5) < 1e-12
    with pytest.raises(KeyError):
        isotypic_projection(table, "nope")


def test_spectral_random_projection_agrees_with_fiber_picture():
    rng = np.random.default_rng(48)
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    p = random_invariant_projection_spectral(g, rng)
    field = fiber_projections(table, p)
    assert abs(rank_measure(field) - trace_of_projection(p)) <= 1e-9
