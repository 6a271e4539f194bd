"""Independent output oracle for the benchmark, numpy only.

Nothing here imports frametrace.  Cayley tables are rebuilt from the family
formulas with frametrace's index conventions (elements are dense indices,
identity 0), and every check is stated directly on l2(G) or C^L:

* a frame vector psi written for a window eta satisfies V_psi^* V_eta = p,
  with V_eta[x, y] = conj eta(x^-1 y) and p the invariant projection the job
  works on (the identity on all of l2(G));
* a Gabor window gamma written for g satisfies V_gamma^* V_g = I, evaluated
  through the Walnut representation instead of the dense analysis matrices.
"""
from __future__ import annotations

import numpy as np

#: Relative residual above which the oracle rejects a written vector.
ORACLE_TOL = 1e-8


def _cyclic(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.add.outer(idx, idx) % n


def _dihedral(n: int) -> np.ndarray:
    # index i < n is r^i, index n + i is s r^i; s r^i s = r^-i.
    idx = np.arange(2 * n)
    refl, rot = np.divmod(idx, n)
    r1, r2 = rot[:, None], rot[None, :]
    s1, s2 = refl[:, None], refl[None, :]
    power = np.where(s2 == 1, r2 - r1, r1 + r2) % n
    return (s1 ^ s2) * n + power


def _heisenberg(n: int) -> np.ndarray:
    # (x, y, z)(x', y', z') = (x + x', y + y', z + z' + x y'); index x n^2 + y n + z.
    x, rest = np.divmod(np.arange(n ** 3), n * n)
    y, z = np.divmod(rest, n)
    xs = (x[:, None] + x[None, :]) % n
    ys = (y[:, None] + y[None, :]) % n
    zs = (z[:, None] + z[None, :] + x[:, None] * y[None, :]) % n
    return (xs * n + ys) * n + zs


_FAMILIES = {"cyclic": _cyclic, "dihedral": _dihedral, "heisenberg": _heisenberg}


def cayley(spec: str) -> np.ndarray:
    """Cayley table of a builtin spec such as ``cyclic:3 x dihedral:8``."""
    table = None
    for part in spec.split(" x "):
        family, n = part.split(":")
        factor = _FAMILIES[family](int(n))
        if table is None:
            table = factor
            continue
        # (i1, i2)(j1, j2) = (i1 j1, i2 j2) with index i1 * n2 + i2.
        n2 = factor.shape[0]
        i1, i2 = np.divmod(np.arange(table.shape[0] * n2), n2)
        table = table[i1[:, None], i1[None, :]] * n2 + factor[i2[:, None], i2[None, :]]
    return table


def weyl_heisenberg(n: int) -> np.ndarray:
    """Table of Z_n^3 with (m, n, z)(m', n', z') = (m + m', n + n', z + z' - n m')."""
    m, rest = np.divmod(np.arange(n ** 3), n * n)
    k, z = np.divmod(rest, n)
    ms = (m[:, None] + m[None, :]) % n
    ks = (k[:, None] + k[None, :]) % n
    zs = (z[:, None] + z[None, :] - k[:, None] * m[None, :]) % n
    return (ms * n + ks) * n + zs


def inverses(table: np.ndarray) -> np.ndarray:
    return np.argmax(table == 0, axis=1)


def conjugacy_class_count(table: np.ndarray) -> int:
    """Number of conjugacy classes, which equals the number of irreps."""
    inv = inverses(table)
    conj = table[table, inv[:, None]]           # conj[g, x] = g x g^-1
    return int(np.unique(conj.min(axis=0)).size)


def analysis_matrix(table: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """V_eta[x, y] = conj eta(x^-1 y): row x is phi -> <phi, lambda(x) eta>."""
    return eta[table[inverses(table)]].conj()


def orbit_projection(table: np.ndarray, vectors) -> np.ndarray:
    """Orthogonal projection onto span{lambda(x) f : x in G, f in vectors}."""
    shifted = table[inverses(table)]             # shifted[x, y] = x^-1 y
    cols = np.hstack([np.asarray(f)[shifted].T for f in vectors])
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    q = u[:, s > 1e-9 * s[0]]
    return q @ q.conj().T


def frame_bounds_ratio(table: np.ndarray, eta: np.ndarray) -> float:
    """A / B of the frame eta spans with its left translates, on that span."""
    s = np.linalg.svd(analysis_matrix(table, eta), compute_uv=False)
    s = s[s > 1e-9 * s[0]]
    return float((s[-1] / s[0]) ** 2)


def canonical_dual(table: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """S^-1 eta with S = V_eta^* V_eta, the canonical dual on all of l2(G)."""
    v = analysis_matrix(table, eta)
    return np.linalg.solve(v.conj().T @ v, eta)


def frame_residual(table, eta, psi, p) -> float:
    """||V_psi^* V_eta - p||_F relative to max(1, ||p||_F)."""
    lhs = analysis_matrix(table, psi).conj().T @ analysis_matrix(table, eta)
    return float(np.linalg.norm(lhs - p) / max(1.0, np.linalg.norm(p)))


def walnut_cross(length: int, a: int, b: int, gamma, g) -> np.ndarray:
    """V_gamma^* V_g for the lattice steps (a, b) on Z_L.

    Entry [j, k] is (L/b) sum_n gamma(j - n a) conj g(k - n a) when
    j = k mod L/b, and 0 otherwise.
    """
    j = np.arange(length)
    shifts = (j[None, :] - a * np.arange(length // a)[:, None]) % length
    dense = (length / b) * (np.asarray(gamma)[shifts].T @ np.asarray(g)[shifts].conj())
    mask = (j[:, None] - j[None, :]) % (length // b) == 0
    return np.where(mask, dense, 0.0)


def gabor_bounds_ratio(length: int, a: int, b: int, g) -> float:
    """A / B of the Gabor system of g, from the (L/b) Walnut blocks of size b."""
    frame_op = walnut_cross(length, a, b, g, g)
    idx = np.arange(length // b)[:, None] + (length // b) * np.arange(b)[None, :]
    w = np.linalg.eigvalsh(frame_op[idx[:, :, None], idx[:, None, :]])
    return float(w.min() / w.max())


def gabor_residual(length: int, a: int, b: int, gamma, g) -> float:
    """||V_gamma^* V_g - I||_F relative to sqrt(L)."""
    cross = walnut_cross(length, a, b, gamma, g)
    return float(np.linalg.norm(cross - np.eye(length)) / np.sqrt(length))
