"""Builtin irreps and builtin product tables against the loop builders they replaced.

``builtin_irreps`` forms every matrix by broadcasting root-of-unity formulas
over element coordinates and tensoring factor irreps with one einsum per
pair.  The element-by-element builders below are the previous implementation,
kept as oracles: labels, label order and dims must be identical and matrices
equal within 1e-12.  ``validate_irreps`` is the independent mathematical
oracle (homomorphism, unitarity, character orthogonality, completeness).

``Rep.homomorphism_residual`` checks rep(x) rep(s) = rep(xs) on the group's
generators s only and returns that residual delta.  The loop over all pairs
(x, y) that it replaced stays below as the oracle: the bound (2|G| - 1) delta
must cover it, and ``Rep.validate`` must pass and fail where the loop does.
"""
import numpy as np
import pytest

from frametrace.errors import NotInvariant
from frametrace.gabor import wh_group_build, wh_rep
from frametrace.groups import Rep, builtin_group, left_regular_rep
from frametrace.numerics import DEFAULT_TOL
from frametrace.plancherel import builtin_irreps, validate_irreps

SPECS = [
    "cyclic:4",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:32",
    "dihedral:128",
    "dihedral:256",
    "heisenberg:3",
    "heisenberg:5",
    "heisenberg:7",
    "cyclic:128",
    "cyclic:2 x dihedral:3",
    "cyclic:2 x dihedral:64",
    "cyclic:3 x dihedral:8",
    "cyclic:2 x heisenberg:3",
    "cyclic:3 x cyclic:2 x dihedral:4",
]
PRODUCT_SPECS = [s for s in SPECS if " x " in s]


def _loop_cyclic(n):
    js = np.arange(n)
    return [(f"chi{k}", np.exp(2j * np.pi * k * js / n).reshape(n, 1, 1)) for k in range(n)]


def _loop_dihedral(n):
    def one_dim(r_val, s_val, label):
        vals = np.empty(2 * n, dtype=complex)
        vals[:n] = r_val ** np.arange(n)
        vals[n:] = s_val * r_val ** np.arange(n)
        return label, vals.reshape(-1, 1, 1)

    out = [one_dim(1.0, 1.0, "triv"), one_dim(1.0, -1.0, "sgn")]
    if n % 2 == 0:
        out += [one_dim(-1.0, 1.0, "alt+"), one_dim(-1.0, -1.0, "alt-")]
    omega = np.exp(2j * np.pi / n)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for h in range(1, (n + 1) // 2 if n % 2 else n // 2):
        mats = np.zeros((2 * n, 2, 2), dtype=complex)
        for j in range(n):
            rot = np.diag([omega ** (h * j), omega ** (-h * j)])
            mats[j] = rot
            mats[n + j] = flip @ rot
        out.append((f"rho{h}", mats))
    return out


def _loop_heisenberg(n):
    omega = np.exp(2j * np.pi / n)

    def coords(idx):
        x, r = divmod(idx, n * n)
        y, z = divmod(r, n)
        return x, y, z

    out = []
    for a in range(n):
        for b in range(n):
            vals = np.array(
                [omega ** ((a * x + b * y) % n) for x, y, _ in map(coords, range(n ** 3))],
                dtype=complex,
            )
            out.append((f"chi{a},{b}", vals.reshape(-1, 1, 1)))
    for c in range(1, n):
        mats = np.zeros((n ** 3, n, n), dtype=complex)
        for idx in range(n ** 3):
            x, y, z = coords(idx)
            for t in range(n):
                mats[idx, t, (t + x) % n] = omega ** ((c * (z + y * t)) % n)
        out.append((f"pi{c}", mats))
    return out


def _loop_tensor(parts):
    if len(parts) == 1:
        return parts[0]
    tail = _loop_tensor(parts[1:])
    n1, n2 = len(parts[0][0][1]), len(tail[0][1])
    out = []
    for l1, m1 in parts[0]:
        for l2, m2 in tail:
            d = m1.shape[1] * m2.shape[1]
            mats = np.zeros((n1 * n2, d, d), dtype=complex)
            for i1 in range(n1):
                for i2 in range(n2):
                    mats[i1 * n2 + i2] = np.kron(m1[i1], m2[i2])
            out.append((f"{l1}*{l2}", mats))
    return out


_LOOP = {"cyclic": _loop_cyclic, "dihedral": _loop_dihedral, "heisenberg": _loop_heisenberg}


def loop_irreps(spec):
    parts = []
    for part in spec.split(" x "):
        family, n = part.split(":")
        parts.append(_LOOP[family](int(n)))
    return _loop_tensor(parts)


@pytest.mark.parametrize("spec", SPECS)
def test_builtin_irreps_match_loop_builders(spec):
    group = builtin_group(spec)
    table = builtin_irreps(group)
    oracle = loop_irreps(spec)
    assert [s.label for s in table.irreps] == [label for label, _ in oracle]
    assert list(table.degrees) == [m.shape[1] for _, m in oracle]
    for s, (_, mats) in zip(table.irreps, oracle):
        assert s.rep.group == group
        assert np.abs(s.rep.matrices - mats).max() <= 1e-12, s.label


@pytest.mark.parametrize("spec", [s for s in SPECS if builtin_group(s).order <= 64])
def test_builtin_irreps_validate(spec):
    group = builtin_group(spec)
    validate_irreps(group, builtin_irreps(group).irreps, tol=1e-10)


def factor_product_table(groups):
    """Cayley table of G1 x ... x Gk in mixed radix, first factor outermost."""
    orders = [g.order for g in groups]
    coords = np.unravel_index(np.arange(int(np.prod(orders))), orders)
    return np.ravel_multi_index(
        [g.cayley[c[:, None], c[None, :]] for g, c in zip(groups, coords)], orders
    )


@pytest.mark.parametrize("spec", PRODUCT_SPECS)
def test_builtin_product_group_is_factor_product(spec):
    factors = [builtin_group(part) for part in spec.split(" x ")]
    group = builtin_group(spec)
    assert group.label == spec
    assert np.array_equal(group.cayley, factor_product_table(factors))


def all_pairs_residuals(rep):
    """[x, y] -> ||rep(x) rep(y) - rep(xy)||_F, one row per element: the all-pairs loop."""
    rows = []
    for x in rep.group.elements():
        prods = rep.matrices[x] @ rep.matrices
        rows.append(np.linalg.norm(prods - rep.matrices[rep.group.cayley[x]], axis=(1, 2)))
    return np.array(rows)


def oracle_validate(rep, tol=DEFAULT_TOL):
    """``Rep.validate`` with the all-pairs loop: the first failing message, or None."""
    if rep.identity_residual() > tol:
        return "rep does not map the identity to Id"
    if rep.unitarity_residual() > tol:
        return "rep matrices are not unitary within tolerance"
    if all_pairs_residuals(rep).max() > tol:
        return "rep is not a homomorphism within tolerance"
    return None


def validate_message(rep, tol=DEFAULT_TOL):
    try:
        rep.validate(tol)
    except NotInvariant as exc:
        return str(exc)
    return None


def assert_bound_covers_all_pairs(rep):
    pairs = all_pairs_residuals(rep)
    generator_residual = pairs[:, list(rep.group.generators)].max()
    delta = rep.homomorphism_residual()
    # The gathered generator residual is the loop's on the pairs (x, s), up to rounding.
    assert delta == pytest.approx(generator_residual, rel=1e-12, abs=1e-300)
    assert pairs.max() <= (2 * rep.group.order - 1) * delta


ACCEPTANCE_SPECS = ("cyclic:12", "dihedral:4", "heisenberg:3")


@pytest.mark.parametrize("spec", SPECS)
def test_generator_residual_bounds_all_pairs_on_builtin_irreps(spec):
    group = builtin_group(spec)
    irreps = builtin_irreps(group).irreps
    if group.order > 64:  # the all-pairs loop over every irrep would take seconds
        irreps = [irreps[0], irreps[len(irreps) // 2], irreps[-1]]
    for s in irreps:
        assert_bound_covers_all_pairs(s.rep)


def test_generator_residual_bounds_all_pairs_on_acceptance_groups():
    for spec in ACCEPTANCE_SPECS:
        rep = left_regular_rep(builtin_group(spec))
        assert rep.homomorphism_residual() == 0.0
        assert_bound_covers_all_pairs(rep)
    # The Weyl-Heisenberg group of order 48 on C^12: its left regular rep would
    # make the all-pairs loop take a second, so it is checked on wh_rep.
    assert_bound_covers_all_pairs(wh_rep(wh_group_build(12, 3, 2)))


def test_trivial_group_is_checked_on_its_identity():
    # No generators: the identity stands in, so rep(e) = -1 (unitary) still fails.
    rep = Rep(group=builtin_group("cyclic:1"), dim=1, matrices=[[[-1.0]]])
    assert rep.group.generators == ()
    assert all_pairs_residuals(rep).max() == 2.0
    assert rep.homomorphism_residual() == 2.0


def perturbation_cases():
    for spec in ("dihedral:4", "heisenberg:3", "cyclic:3 x dihedral:8", "cyclic:2 x heisenberg:3"):
        irreps = builtin_irreps(builtin_group(spec)).irreps
        yield irreps[1].rep  # one-dimensional and not trivial
        yield max(irreps, key=lambda s: s.dim).rep
    for spec in ACCEPTANCE_SPECS:
        yield left_regular_rep(builtin_group(spec))


@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-3])
def test_validate_verdicts_match_all_pairs_loop(eps):
    for case, rep in enumerate(perturbation_cases()):
        group = rep.group
        others = [x for x in group.elements() if x != group.identity and x not in group.generators]
        for seed in range(3):
            x = np.random.default_rng([case, seed]).choice(others)
            # rep(x) diag(e^(i eps), 1, ..., 1): still unitary, off by about eps.
            mats = rep.matrices.copy()
            mats[x, :, 0] *= np.exp(1j * eps)
            bent = Rep(group=group, dim=rep.dim, matrices=mats)
            expected = oracle_validate(bent)
            assert validate_message(bent) == expected, (case, seed)
            assert expected == (None if eps == 0.0 else "rep is not a homomorphism within tolerance")
            assert all_pairs_residuals(bent).max() <= (2 * group.order - 1) * bent.homomorphism_residual()


def builtin_specs_up_to_order_64():
    yield from (f"cyclic:{n}" for n in range(1, 65))
    yield from (f"dihedral:{n}" for n in range(1, 33))
    yield from ("heisenberg:2", "heisenberg:3")
    yield from ("cyclic:2 x dihedral:16", "cyclic:4 x cyclic:4 x cyclic:4", "cyclic:2 x heisenberg:3",
                "cyclic:3 x dihedral:8", "dihedral:4 x dihedral:4", "heisenberg:2 x heisenberg:2")


def test_every_builtin_irrep_up_to_order_64_passes_at_1e_13():
    # The generator residual delta, not the all-pairs bound (2|G| - 1) delta, is held to tol:
    # 2|G| delta reached 3.1e-13 on the exact irreps of dihedral:32.
    for spec in builtin_specs_up_to_order_64():
        group = builtin_group(spec)
        table = builtin_irreps(group)
        for s in table.irreps:
            s.rep.validate(tol=1e-13)
        validate_irreps(group, table.irreps, tol=1e-13)
