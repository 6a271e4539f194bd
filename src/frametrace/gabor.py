"""Finite Weyl-Heisenberg (Gabor) systems on C^L.

Dictionary from the continuous picture: modulation step b and time step a on
Z_L play the roles of the lattice parameters, with density ab/L in place of
the product of the continuous steps.  The adjoint (commuting) lattice has
time step L/b and frequency step L/a; its operators commute with every
lattice operator exactly and span the commutant of the system.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotInvertible
from .groups import FiniteGroup, Rep, group_from_cayley
from .numerics import DEFAULT_TOL, EIG_FLOOR, as_vector, eig_hermitian, inv_psd
from .reporting import CheckResult


def translation(length: int, x: int) -> np.ndarray:
    """Cyclic shift (T_x f)(j) = f(j - x mod L)."""
    if not 0 <= x < length:
        raise ValueError(f"shift {x} out of range for length {length}")
    return np.roll(np.eye(length, dtype=complex), x, axis=0)


def modulation(length: int, w: int) -> np.ndarray:
    """Diagonal phase (M_w f)(j) = exp(2 pi i w j / L) f(j)."""
    if not 0 <= w < length:
        raise ValueError(f"frequency {w} out of range for length {length}")
    return np.diag(np.exp(2j * np.pi * w * np.arange(length) / length))


def _check_lattice(length: int, a: int, b: int) -> None:
    if length < 1 or a < 1 or b < 1:
        raise ValueError("lattice parameters must be positive")
    if length % a or length % b:
        raise ValueError(f"steps must divide the length: L={length}, a={a}, b={b}")


@dataclass(frozen=True)
class GaborSystem:
    """Time-frequency shifts {M_(mb) T_(na) g} of a window g on Z_L."""

    L: int
    a: int
    b: int
    window: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_lattice(self.L, self.a, self.b)
        w = as_vector(self.window)
        if w.shape[0] != self.L:
            raise DimensionMismatch(f"window length {w.shape[0]} != L = {self.L}")
        w.setflags(write=False)
        object.__setattr__(self, "window", w)


def _coefficient_map(length: int, tstep: int, fstep: int, window: np.ndarray) -> np.ndarray:
    """Analysis matrix; row (m, n) is the conjugate of M_(m fstep) T_(n tstep) w."""
    n_time = length // tstep
    n_freq = length // fstep
    j = np.arange(length)
    rows = np.empty((n_freq * n_time, length), dtype=complex)
    for m in range(n_freq):
        phase = np.exp(2j * np.pi * (m * fstep) * j / length)
        for n in range(n_time):
            rows[m * n_time + n] = (phase * np.roll(window, n * tstep)).conj()
    return rows


def gabor_coefficient_map(sys: GaborSystem) -> np.ndarray:
    """(L/a)(L/b) x L analysis matrix of the system."""
    return _coefficient_map(sys.L, sys.a, sys.b, sys.window)


def gabor_frame_operator(sys: GaborSystem) -> np.ndarray:
    v = gabor_coefficient_map(sys)
    s = v.conj().T @ v
    return 0.5 * (s + s.conj().T)


def gabor_canonical_dual(sys: GaborSystem, floor: float = EIG_FLOOR) -> np.ndarray:
    """Canonical dual window S^-1 g; raises :class:`NotAFrame` when S is singular."""
    try:
        s_inv = inv_psd(gabor_frame_operator(sys), floor=floor)
    except NotInvertible as exc:
        raise NotAFrame(str(exc)) from exc
    return s_inv @ sys.window


def frame_bounds_ratio(sys: GaborSystem) -> float:
    """lambda_min / lambda_max of the frame operator (0 for the zero window)."""
    w = eig_hermitian(gabor_frame_operator(sys)).eigenvalues
    top = float(w[-1]) if w.size else 0.0
    return float(w[0]) / top if top > 0.0 else 0.0


def reference_window(length: int, a: int, b: int) -> np.ndarray:
    """Tight window sqrt(b/L) * indicator of [0, a); needs ab <= L."""
    _check_lattice(length, a, b)
    if a * b > length:
        raise ValueError(f"no tight reference window for ab > L (a={a}, b={b}, L={length})")
    g = np.zeros(length, dtype=complex)
    g[:a] = np.sqrt(b / length)
    return g


def adjoint_lattice_ops(length: int, a: int, b: int) -> list[np.ndarray]:
    """Operators M_(s L/a) T_(t L/b), s in Z_a, t in Z_b, of the adjoint lattice.

    Each commutes exactly with every lattice operator M_(mb) T_(na); the
    identity (s = t = 0) comes first.
    """
    _check_lattice(length, a, b)
    ops = []
    for s in range(a):
        m = modulation(length, (s * (length // a)) % length)
        for t in range(b):
            ops.append(m @ translation(length, (t * (length // b)) % length))
    return ops


def lattice_ops(length: int, a: int, b: int) -> list[np.ndarray]:
    """All lattice operators M_(mb) T_(na) of the system itself."""
    _check_lattice(length, a, b)
    ops = []
    for m in range(length // b):
        mod = modulation(length, (m * b) % length)
        for n in range(length // a):
            ops.append(mod @ translation(length, (n * a) % length))
    return ops


def wexler_raz_check(sys: GaborSystem, gamma, tol: float = DEFAULT_TOL) -> CheckResult:
    """Biorthogonality over the adjoint lattice: <A gamma, g> = (ab/L) [A = Id].

    Passing is equivalent to gamma being a dual window of the system's g.
    """
    gamma = as_vector(gamma)
    constant = sys.a * sys.b / sys.L
    residual = 0.0
    for k, op in enumerate(adjoint_lattice_ops(sys.L, sys.a, sys.b)):
        value = np.vdot(sys.window, op @ gamma)  # <A gamma, g>
        target = constant if k == 0 else 0.0
        residual = max(residual, abs(value - target))
    return CheckResult(name="wexler_raz", residual=float(residual), tol=tol)


def wr_fundamental_relation_check(
    length: int, a: int, b: int, f, g, h, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Lattice-swap identity relating analysis/synthesis across the two lattices:

    T*_f T_g h = (L/ab) T*_h' T_g' f, where the primed maps use the adjoint
    lattice steps (time L/b, frequency L/a).
    """
    _check_lattice(length, a, b)
    f = as_vector(f)
    g = as_vector(g)
    h = as_vector(h)
    cf = _coefficient_map(length, a, b, f)
    cg = _coefficient_map(length, a, b, g)
    lhs = cf.conj().T @ (cg @ h)
    dh = _coefficient_map(length, length // b, length // a, h)
    dg = _coefficient_map(length, length // b, length // a, g)
    rhs = (length / (a * b)) * (dh.conj().T @ (dg @ f))
    residual = float(np.linalg.norm(lhs - rhs))
    return CheckResult(name="wr_fundamental_relation", residual=residual, tol=tol)


@dataclass(frozen=True)
class WHGroup:
    """Finite Weyl-Heisenberg group (m, n, z) covering the lattice operators.

    The central part is the group of q-th roots of unity with
    q = L / gcd(L, ab), the exact value group of the commutation cocycle.
    """

    L: int
    a: int
    b: int
    q: int
    group: FiniteGroup

    def coords(self, idx: int) -> tuple[int, int, int]:
        mn, z = divmod(idx, self.q)
        m, n = divmod(mn, self.L // self.a)
        return m, n, z


def wh_group_build(length: int, a: int, b: int) -> WHGroup:
    """Build the finite Weyl-Heisenberg group with law
    (m, n, z)(m', n', z') = (m + m', n + n', z + z' - k n m') in Z_q,
    where omega = exp(2 pi i ab / L) = exp(2 pi i k / q)."""
    _check_lattice(length, a, b)
    q = length // gcd(length, a * b)
    k = (a * b) // gcd(length, a * b)
    n_m, n_n = length // b, length // a
    order = n_m * n_n * q
    table = np.zeros((order, order), dtype=np.int64)

    def index(m, n, z):
        return ((m % n_m) * n_n + n % n_n) * q + z % q

    for i in range(order):
        mn, z = divmod(i, q)
        m, n = divmod(mn, n_n)
        for j in range(order):
            mn2, z2 = divmod(j, q)
            m2, n2 = divmod(mn2, n_n)
            table[i, j] = index(m + m2, n + n2, z + z2 - k * n * m2)

    group = group_from_cayley(table, label=f"wh:{length}:{a}:{b}")
    return WHGroup(L=length, a=a, b=b, q=q, group=group)


def wh_rep(wh: WHGroup) -> Rep:
    """Representation pi(m, n, z) = exp(2 pi i z / q) M_(mb) T_(na) on C^L."""
    mats = np.zeros((wh.group.order, wh.L, wh.L), dtype=complex)
    for idx in range(wh.group.order):
        m, n, z = wh.coords(idx)
        phase = np.exp(2j * np.pi * z / wh.q)
        mats[idx] = phase * modulation(wh.L, (m * wh.b) % wh.L) @ translation(
            wh.L, (n * wh.a) % wh.L
        )
    return Rep(group=wh.group, dim=wh.L, matrices=mats)


def wh_bridge_check(wh: WHGroup, f, g, tol: float = DEFAULT_TOL) -> CheckResult:
    """Averaging V_g^* V_f over the Weyl-Heisenberg group reproduces T_g^* T_f.

    The average over the finite central part replaces the circle integral.
    """
    f = as_vector(f)
    g = as_vector(g)
    rep = wh_rep(wh)
    acc = np.zeros((wh.L, wh.L), dtype=complex)
    for idx in range(wh.group.order):
        pf = rep.matrices[idx] @ f
        pg = rep.matrices[idx] @ g
        acc += np.outer(pg, pf.conj())
    acc /= wh.q
    cf = _coefficient_map(wh.L, wh.a, wh.b, f)
    cg = _coefficient_map(wh.L, wh.a, wh.b, g)
    residual = float(np.linalg.norm(acc - cg.conj().T @ cf))
    return CheckResult(name="wh_bridge", residual=residual, tol=tol)
