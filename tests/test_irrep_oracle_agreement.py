"""Builtin irreps and builtin product tables against the loop builders they replaced.

``builtin_irreps`` forms every matrix by broadcasting root-of-unity formulas
over element coordinates and tensoring factor irreps with one einsum per
pair.  The element-by-element builders below are the previous implementation,
kept as oracles: labels, label order and dims must be identical and matrices
equal within 1e-12.  ``validate_irreps`` is the independent mathematical
oracle (homomorphism, unitarity, character orthogonality, completeness).
"""
import numpy as np
import pytest

from frametrace.groups import builtin_group
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
    assert table.dims() == [m.shape[1] for _, m in oracle]
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
