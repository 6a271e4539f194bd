"""Group construction, convolution and regular representation tests."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from frametrace.errors import NotAGroup, NotInvariant
from frametrace.groups import (
    GroupVector,
    _parse_spec,
    _spec_table,
    builtin_group,
    convolution_operator,
    convolve,
    delta,
    group_from_cayley,
    involution,
    Rep,
    left_regular_rep,
    restrict_rep,
)

from oracles import (
    center,
    conjugacy_classes,
    element_orders,
    group_from_cayley_by_word_length,
    is_abelian,
    spec_table_by_blocks,
)


def rand_vec(group, rng):
    return GroupVector(
        group, rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    )


def test_z2_table():
    g = group_from_cayley([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0


def test_non_latin_rejected():
    with pytest.raises(NotAGroup, match="Latin"):
        group_from_cayley([[0, 1], [1, 1]])


def test_no_identity_rejected():
    # Latin square with no row equal to [0, 1, 2]
    t = [[1, 0, 2], [0, 2, 1], [2, 1, 0]]
    with pytest.raises(NotAGroup, match="identity"):
        group_from_cayley(t)


# Latin square with identity 0 that is not a group (order 5 loop)
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_nonassociative_rejected():
    with pytest.raises(NotAGroup, match="associativity"):
        group_from_cayley(NONASSOCIATIVE_LOOP)


def associative_by_full_loop(table) -> bool:
    """The check group_from_cayley made before Light's test: every z."""
    t = np.asarray(table)
    return all(np.array_equal(t[:, z][t], t[:, t[:, z]]) for z in range(t.shape[0]))


def right_closure(group) -> np.ndarray:
    """Elements reached from the identity by right multiplication with the generators."""
    reached = np.zeros(group.order, dtype=bool)
    frontier = [group.identity]
    reached[group.identity] = True
    while frontier:
        fresh = np.unique(group.cayley[np.ix_(frontier, list(group.generators))])
        frontier = [int(y) for y in fresh if not reached[y]]
        reached[frontier] = True
    return reached


def test_light_associativity_agrees_with_full_loop():
    loop = np.array(NONASSOCIATIVE_LOOP)
    groups = [builtin_group(s).cayley for s in
              ("cyclic:4", "dihedral:3", "heisenberg:2", "cyclic:2 x cyclic:3", "dihedral:5")]

    def product(t1, t2):
        n2 = t2.shape[0]
        return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(len(t1) * n2, -1)

    tables = [loop] + groups + [product(loop, t) for t in groups] + [product(t, loop) for t in groups]
    rng = np.random.default_rng(13)
    checked = 0
    for table in tables:
        for _ in range(5):
            perm = rng.permutation(len(table))
            inv = np.argsort(perm)
            relabeled = perm[table[np.ix_(inv, inv)]]
            try:
                group = group_from_cayley(relabeled)
                accepted = True
                assert right_closure(group).all()
                assert group.identity not in group.generators
                assert len(group.generators) <= np.log2(group.order)
            except NotAGroup as exc:
                assert "associativity" in str(exc)
                accepted = False
            assert accepted == associative_by_full_loop(relabeled)
            assert_same_as_word_length_closure(relabeled)
            checked += 1
    assert checked == 80


def assert_same_as_word_length_closure(table):
    """group_from_cayley accepts exactly what the word-length oracle accepts, with equal data."""
    try:
        oracle = group_from_cayley_by_word_length(table)
    except NotAGroup as exc:
        with pytest.raises(NotAGroup) as new:
            group_from_cayley(table)
        assert str(new.value) == str(exc)
        return
    group = group_from_cayley(table)
    assert group.generators == oracle.generators
    assert group.identity == oracle.identity
    assert np.array_equal(group.inverses, oracle.inverses)


def weyl_heisenberg_table(n):
    """Z_n^3 with (m, k, z)(m', k', z') = (m + m', k + k', z + z' - k m'), not a builtin family."""
    m, rest = np.divmod(np.arange(n ** 3), n * n)
    k, z = np.divmod(rest, n)
    ms, ks = (m[:, None] + m) % n, (k[:, None] + k) % n
    return (ms * n + ks) * n + (z[:, None] + z - k[:, None] * m) % n


@pytest.mark.parametrize(
    "table",
    [pytest.param(builtin_group(spec).cayley, id=spec) for spec in
     ("cyclic:12", "dihedral:4", "heisenberg:3", "cyclic:512", "dihedral:256", "heisenberg:7",
      "cyclic:2 x dihedral:128")]
    + [pytest.param(weyl_heisenberg_table(6), id="weyl-heisenberg:6")],  # a file table of order 216
)
def test_closure_by_doubling_matches_word_length_oracle(table):
    assert_same_as_word_length_closure(table)


# group_from_cayley sorts for the Latin-square test only once a later check has failed.  The
# word-length oracle sorts first, as the package did before; verdicts, messages, identity,
# inverses and generators must still agree on every kind of table below.


def relabel(table, rng):
    perm = rng.permutation(len(table))
    inv = np.argsort(perm)
    return perm[np.asarray(table)[np.ix_(inv, inv)]]


def magma(n, rng, identity=True, inverses=True):
    """A random table, mostly not Latin.  With ``identity``, 0 is a two-sided identity; with
    ``inverses`` too, the other entries lie in 1..n-1 except x s(x) = s(x) x = 0 for a random
    involution s, so every element has a two-sided inverse."""
    t = rng.integers(1 if inverses else 0, n, size=(n, n))
    if identity:
        t[0], t[:, 0] = np.arange(n), np.arange(n)
    if identity and inverses:
        s = np.arange(n)
        pairs = rng.permutation(np.arange(1, n))[: 2 * ((n - 1) // 2)].reshape(-1, 2)
        s[pairs[:, 0]], s[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        t[np.arange(1, n), s[1:]] = 0
    return t


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 33])
def test_non_latin_tables_match_the_word_length_oracle(n):
    rng = np.random.default_rng(100 + n)
    kinds = [dict(identity=False, inverses=False), dict(inverses=False), dict()]
    messages = set()
    for k in range(30):
        table = magma(n, rng, **kinds[k % 3])
        assert_same_as_word_length_closure(table)
        try:
            group_from_cayley(table)
        except NotAGroup as exc:
            messages.add(str(exc))
    assert "Latin square property fails" in messages


@pytest.mark.parametrize("spec", ["cyclic:7", "dihedral:6", "heisenberg:3", "cyclic:2 x dihedral:8"])
def test_perturbed_groups_with_identity_and_inverses_match_the_oracle(spec):
    """A product moved to another non-identity value keeps the identity and the inverses but
    not the Latin property: in the new order Light's test fails, then the Latin sort names it."""
    rng = np.random.default_rng(7)
    group = builtin_group(spec)
    for _ in range(20):
        table = np.array(relabel(group.cayley, rng))
        e = int(np.argmax((table == np.arange(len(table))).all(axis=1)))  # the identity's row
        for _ in range(int(rng.integers(1, 4))):
            x, y = rng.integers(len(table), size=2)
            if e in (x, y) or table[x, y] == e:
                continue
            table[x, y] = rng.choice([v for v in range(len(table)) if v not in (e, table[x, y])])
        assert_same_as_word_length_closure(table)


@pytest.mark.parametrize("spec", ["cyclic:9", "dihedral:5", "heisenberg:3", "cyclic:2 x dihedral:4"])
def test_tables_with_a_repeated_row_or_column_match_the_oracle(spec):
    rng = np.random.default_rng(8)
    table = builtin_group(spec).cayley
    for _ in range(10):
        t = relabel(table, rng)
        i, j = rng.choice(len(t), size=2, replace=False)
        if rng.random() < 0.5:
            t[j] = t[i]
        else:
            t[:, j] = t[:, i]
        assert_same_as_word_length_closure(t)


@pytest.mark.parametrize(
    "table",
    [pytest.param(builtin_group(spec).cayley, id=spec) for spec in
     ("dihedral:256", "heisenberg:5", "cyclic:2 x dihedral:64", "cyclic:3 x cyclic:3 x cyclic:3")]
    + [pytest.param(weyl_heisenberg_table(6), id="weyl-heisenberg:6")],
)
def test_relabeled_groups_match_the_word_length_oracle(table):
    rng = np.random.default_rng(9)
    for _ in range(3):
        assert_same_as_word_length_closure(relabel(table, rng))


def test_a_magma_with_a_large_associative_part_is_refused_after_at_most_log2_light_tests(monkeypatch):
    """Z_2^7 x Q, Q a non-Latin magma of order 3 with identity and inverses whose only
    associative element is its identity: Light's test passes on the 7 generators of Z_2^7 x {e}
    and fails on the 8th.  Each passing generator at least doubles the closure, a group, so no
    table with an identity and inverses runs more than log2 |G| + 1 tests before refusal."""
    q = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    h = np.arange(128)
    table = (q[:, None, :, None] * 128 + (h[:, None] ^ h)[None, :, None, :]).reshape(384, 384)
    calls = []
    array_equal = np.array_equal

    def counting(a, b, *args, **kwargs):
        calls.append(np.ndim(a))
        return array_equal(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    with pytest.raises(NotAGroup, match="^Latin square property fails$"):
        group_from_cayley(table)
    monkeypatch.undo()
    assert calls.count(2) == 8 <= np.log2(384) + 1
    assert_same_as_word_length_closure(table)


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "cyclic:7", "cyclic:512", "dihedral:1", "dihedral:2",
                                  "dihedral:3", "dihedral:8", "dihedral:256", "heisenberg:2", "heisenberg:4",
                                  "heisenberg:7", "cyclic:2 x dihedral:3", "cyclic:3 x cyclic:2 x dihedral:4",
                                  "dihedral:3 x heisenberg:3"])
def test_family_tables_match_the_former_builders(spec):
    table = _spec_table(_parse_spec(spec))
    assert table.dtype == np.int64 and table.flags.c_contiguous
    assert np.array_equal(table, spec_table_by_blocks(spec))


@pytest.mark.parametrize("spec", ["dihedral:4", "cyclic:2 x dihedral:64", "heisenberg:5"])
def test_read_only_table_is_gathered_through_a_writeable_copy(spec, monkeypatch):
    # np.take copies a read-only index array on each call: about 6x slower per gather at order 256.
    table = builtin_group(spec).cayley
    assert not table.flags.writeable
    take, index_writeable = np.take, []

    def spy(a, indices, *args, **kwargs):
        index_writeable.append(np.asarray(indices).flags.writeable)
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    again = group_from_cayley(table, label=spec)
    monkeypatch.undo()
    assert index_writeable and all(index_writeable)
    assert again == builtin_group(spec) and again.generators == builtin_group(spec).generators
    assert again.identity == 0 and np.array_equal(again.inverses, builtin_group(spec).inverses)
    assert not again.cayley.flags.writeable and not table.flags.writeable


def test_relabeled_z6_preserves_orders():
    rng = np.random.default_rng(11)
    z6 = builtin_group("cyclic:6")
    perm = rng.permutation(6)
    inv = np.argsort(perm)
    relabeled = perm[z6.cayley[np.ix_(inv, inv)]]
    g = group_from_cayley(relabeled)
    assert sorted(element_orders(g)) == sorted(element_orders(z6))


def test_cyclic4_structure():
    g = builtin_group("cyclic:4")
    assert is_abelian(g)
    assert sorted(element_orders(g)) == [1, 2, 4, 4]


def test_dihedral4_structure():
    g = builtin_group("dihedral:4")
    assert g.order == 8
    assert not is_abelian(g)

    # oracle: direct conjugacy enumeration
    def classes_naive(gr):
        out = []
        left = set(gr.elements())
        while left:
            x = min(left)
            orbit = {gr.mul(gr.mul(s, x), gr.inv(s)) for s in gr.elements()}
            left -= orbit
            out.append(frozenset(orbit))
        return set(out)

    cls = conjugacy_classes(g)
    assert len(cls) == 5
    assert {frozenset(c) for c in cls} == classes_naive(g)


def test_heisenberg3_center():
    g = builtin_group("heisenberg:3")
    assert g.order == 27
    z = center(g)
    assert len(z) == 3
    # oracle: elementwise commutation scan
    naive = [
        x
        for x in g.elements()
        if all(g.cayley[x, y] == g.cayley[y, x] for y in g.elements())
    ]
    assert z == naive


def test_equal_groups_hash_alike():
    g = builtin_group("cyclic:4")
    same = group_from_cayley(g.cayley.tolist())
    assert same == g and same.label != g.label
    assert hash(same) == hash(g)
    assert len({g, same}) == 1
    # The generators are derived data: a group naming other ones is the same group.
    other = dataclasses.replace(g, generators=tuple(range(g.order)))
    assert other == g and hash(other) == hash(g)


def test_a_group_equals_itself_without_comparing_its_table(monkeypatch):
    g = builtin_group("dihedral:64")
    copy, cyclic = group_from_cayley(g.cayley.copy()), builtin_group("cyclic:128")
    calls = []
    real = np.array_equal

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    assert g == g and not calls
    assert copy == g and len(calls) == 1  # an equal table that is another array is still compared
    assert copy != cyclic and len(calls) == 2


def test_generators_of_builtin_groups():
    for spec, count in (("cyclic:512", 1), ("dihedral:256", 2), ("heisenberg:7", 3),
                        ("cyclic:2 x dihedral:128", 3), ("cyclic:1", 0)):
        g = builtin_group(spec)
        assert len(g.generators) == count, spec
        assert right_closure(g).all(), spec


def test_direct_product_spec():
    g = builtin_group("cyclic:2 x cyclic:3")
    assert g.order == 6
    assert is_abelian(g)
    assert max(element_orders(g)) == 6  # Z2 x Z3 = Z6


def test_bad_spec_rejected():
    with pytest.raises(NotAGroup):
        builtin_group("quaternion:2")


def test_builtin_spec_order_refused_before_any_table():
    # heisenberg:100 has order 10^6; its table would take 7.28 TiB.
    tracemalloc.start()
    try:
        with pytest.raises(NotAGroup, match="order 1000000 exceeds"):
            builtin_group("heisenberg:100")
        with pytest.raises(NotAGroup, match="order 1024 exceeds"):
            builtin_group("cyclic:2 x dihedral:256")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_convolve_deltas_cyclic3():
    g = builtin_group("cyclic:3")
    out = convolve(delta(g, 1), delta(g, 2))
    assert np.allclose(out.data, delta(g, 0).data)


def test_convolve_identity_unit():
    rng = np.random.default_rng(12)
    g = builtin_group("dihedral:3")
    f = rand_vec(g, rng)
    assert np.allclose(convolve(f, delta(g, g.identity)).data, f.data)
    assert np.allclose(convolve(delta(g, g.identity), f).data, f.data)


def test_convolve_vs_double_loop():
    rng = np.random.default_rng(13)
    g = builtin_group("dihedral:3")
    f, h = rand_vec(g, rng), rand_vec(g, rng)
    oracle = np.zeros(g.order, dtype=complex)
    for x in g.elements():
        for y in g.elements():
            oracle[x] += f.data[y] * h.data[g.mul(g.inv(y), x)]
    assert np.allclose(convolve(f, h).data, oracle, atol=1e-12)


def test_convolve_associative():
    rng = np.random.default_rng(14)
    g = builtin_group("dihedral:4")
    f, h, k = (rand_vec(g, rng) for _ in range(3))
    lhs = convolve(convolve(f, h), k)
    rhs = convolve(f, convolve(h, k))
    assert np.linalg.norm(lhs.data - rhs.data) <= 1e-12 * max(1.0, np.linalg.norm(lhs.data))


def test_involution_cases():
    g = builtin_group("cyclic:3")
    assert np.allclose(involution(delta(g, 1)).data, delta(g, 2).data)
    rng = np.random.default_rng(15)
    f = rand_vec(g, rng)
    assert np.allclose(involution(involution(f)).data, f.data)
    assert abs(involution(f).norm() - f.norm()) < 1e-12


def test_involution_antihomomorphism():
    rng = np.random.default_rng(16)
    g = builtin_group("dihedral:3")
    f, h = rand_vec(g, rng), rand_vec(g, rng)
    lhs = involution(convolve(f, h))
    rhs = convolve(involution(h), involution(f))
    assert np.allclose(lhs.data, rhs.data, atol=1e-12)


def test_regular_rep_cyclic2():
    g = builtin_group("cyclic:2")
    lam = left_regular_rep(g)
    assert np.array_equal(lam.matrices[1].real, [[0, 1], [1, 0]])


def test_regular_rep_moves_delta():
    g = builtin_group("dihedral:4")
    lam = left_regular_rep(g)
    for x in g.elements():
        assert np.allclose(lam.matrices[x] @ delta(g, g.identity).data, delta(g, x).data)


def test_regular_rep_exact_homomorphism():
    g = builtin_group("heisenberg:2")
    lam = left_regular_rep(g)
    assert lam.homomorphism_residual() == 0.0
    assert lam.unitarity_residual() == 0.0


def test_rep_freezes_a_view_not_the_callers_matrices():
    g = builtin_group("cyclic:3")
    m = np.ones((3, 1, 1), dtype=complex)  # already complex: np.asarray returns m itself
    rep = Rep(g, 1, m)
    assert m.flags.writeable
    assert not rep.matrices.flags.writeable
    m[1] = -1.0  # still the caller's to write; the Rep shares its memory
    assert rep.matrices[1, 0, 0] == -1.0


def test_right_convolution_operator():
    rng = np.random.default_rng(17)
    g = builtin_group("dihedral:3")
    f = rand_vec(g, rng)
    u = convolution_operator(f)
    assert np.allclose(convolution_operator(delta(g, g.identity)), np.eye(g.order))
    # U_f is in the commutant of left translation
    lam = left_regular_rep(g)
    worst = max(
        np.linalg.norm(lam.matrices[x] @ u - u @ lam.matrices[x]) for x in g.elements()
    )
    assert worst <= 1e-12
    # matrix applies right convolution
    h = rand_vec(g, rng)
    assert np.allclose(u @ h.data, convolve(h, f).data, atol=1e-12)
    # trace picks out |G| f(e)
    assert abs(np.trace(u) - g.order * f.data[g.identity]) < 1e-12


def test_restrict_rep_full_basis():
    g = builtin_group("cyclic:3")
    lam = left_regular_rep(g)
    eye = np.eye(3, dtype=complex)
    sub = restrict_rep(lam, [eye[:, j] for j in range(3)])
    assert np.allclose(sub.matrices, lam.matrices)


def test_restrict_rep_trivial_line():
    g = builtin_group("cyclic:2")
    lam = left_regular_rep(g)
    sub = restrict_rep(lam, [np.ones(2) / np.sqrt(2)])
    assert sub.dim == 1
    assert np.allclose(sub.matrices, 1.0)


def test_restrict_rep_rejects_noninvariant():
    g = builtin_group("cyclic:2")
    lam = left_regular_rep(g)
    with pytest.raises(NotInvariant):
        restrict_rep(lam, [np.array([1.0, 0.0])])
