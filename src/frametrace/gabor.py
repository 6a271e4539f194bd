"""Finite Weyl-Heisenberg (Gabor) systems on C^L.

Dictionary from the continuous picture: modulation step b and time step a on
Z_L play the roles of the lattice parameters, with density ab/L in place of
the product of the continuous steps.  The adjoint (commuting) lattice has
time step L/b and frequency step L/a; its operators commute with every
lattice operator exactly and span the commutant of the system.

Every lattice operator is a cyclic shift times a phase, so the kernels work
on index arithmetic: V_gamma^* V_g vanishes off the residue classes mod L/b
(Walnut), leaving L/b blocks of size b read from the b x a correlation array
whose DFT holds the Wexler-Raz sums (Janssen).  The dense operator functions
(``translation`` ... ``wh_rep``) are API and test oracles.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotAGroup, NotInvertible
from .groups import MAX_ORDER, FiniteGroup, Rep, group_from_cayley
from .numerics import DEFAULT_TOL, _unit_roots, as_vector, eig_hermitian, inv_psd
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


def gabor_coefficient_map(sys: GaborSystem) -> np.ndarray:
    """(L/a)(L/b) x L analysis matrix; row (m, n) is the conjugate of M_(mb) T_(na) g."""
    length, j = sys.L, np.arange(sys.L)
    shifted = sys.window[(j - sys.a * np.arange(length // sys.a)[:, None]) % length]
    phase = _unit_roots(np.outer(sys.b * np.arange(length // sys.b), j), length)
    return (phase[:, None, :] * shifted[None, :, :]).conj().reshape(-1, length)


def _correlation(length: int, a: int, b: int, gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P[t, c] = sum_(j = c mod a) conj g(j) gamma(j - t L/b): b shifted products of length L,
    summed over the classes mod a.  Every pairing of gamma with g on the lattice reads this b x a array."""
    j = np.arange(length)
    products = g.conj() * gamma[(j - (length // b) * np.arange(b)[:, None]) % length]
    return products.reshape(b, length // a, a).sum(axis=1)


def _walnut_blocks(length: int, a: int, b: int, gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The L/b diagonal blocks of V_gamma^* V_g, one b x b block per residue class mod L/b.

    Entry [i, j] of block r is (L/b) sum_n gamma(k_i - n a) conj g(k_j - n a), k_i = r + i L/b,
    i.e. (L/b) P[(j - i) mod b, k_j mod a] (:func:`_correlation`): block r is a bitwise copy of
    block r mod a, so ``blocks[:a]`` are the min(a, L/b) distinct ones.  V_gamma^* V_g is 0 off
    the classes, because the sum over the modulations vanishes unless j = k mod L/b.
    """
    p, s = length // b, np.arange(b)
    corr = p * _correlation(length, a, b, gamma, g)
    return corr[(s - s[:, None]) % b, (np.arange(p)[:, None, None] + p * s) % a]


def _apply_blocks(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The operator of L/b Walnut blocks applied to v; entry r + s L/b of v is v.reshape(b, L/b)[s, r]."""
    return np.einsum("rij,jr->ir", blocks, v.reshape(blocks.shape[1], -1)).ravel()


def _walnut_dense(length: int, b: int, blocks: np.ndarray) -> np.ndarray:
    """Scatter Walnut blocks into the dense L x L operator."""
    idx = np.arange(length // b)[:, None] + (length // b) * np.arange(b)  # row r: the class of r mod L/b
    out = np.zeros((length, length), dtype=complex)
    out[idx[:, :, None], idx[:, None, :]] = blocks
    return out


def _frame_blocks(sys: GaborSystem) -> np.ndarray:
    """The min(a, L/b) distinct Walnut blocks of S = V_g^* V_g (block r is block r mod a), symmetrised."""
    s = _walnut_blocks(sys.L, sys.a, sys.b, sys.window, sys.window)[: sys.a]
    return 0.5 * (s + s.conj().swapaxes(1, 2))


def gabor_frame_operator(sys: GaborSystem) -> np.ndarray:
    return _walnut_dense(sys.L, sys.b, _frame_blocks(sys)[np.arange(sys.L // sys.b) % sys.a])


def gabor_canonical_dual(sys: GaborSystem) -> np.ndarray:
    """Canonical dual window S^-1 g, block by block; raises :class:`NotAFrame`
    when the spectrum of S (all blocks together) falls to the floor, carrying
    that spectrum's :func:`frame_bounds_ratio` as ``ratio``."""
    try:
        s_inv = inv_psd(_frame_blocks(sys))
    except NotInvertible as exc:
        raise NotAFrame(str(exc), ratio=exc.ratio) from exc
    return _apply_blocks(s_inv[np.arange(sys.L // sys.b) % sys.a], sys.window)


def frame_bounds_ratio(sys: GaborSystem) -> float:
    """lambda_min / lambda_max of the frame operator (0 for the zero window)."""
    w = eig_hermitian(_frame_blocks(sys)).eigenvalues
    top = float(w.max())
    return float(w.min()) / top if top > 0.0 else 0.0


def gabor_reconstruction_check(sys: GaborSystem, gamma, tol: float) -> CheckResult:
    """||V_gamma^* V_g - I||_F from the Walnut blocks (0 for a dual window gamma)."""
    gamma = GaborSystem(sys.L, sys.a, sys.b, gamma).window  # checks the length
    blocks = _walnut_blocks(sys.L, sys.a, sys.b, gamma, sys.window)
    residual = float(np.linalg.norm(blocks - np.eye(sys.b)))
    return CheckResult(name="gabor_reconstruction", residual=residual, tol=tol)


def reference_window(length: int, a: int, b: int) -> np.ndarray:
    """Tight window sqrt(b/L) * indicator of [0, a); needs ab <= L."""
    _check_lattice(length, a, b)
    if a * b > length:
        raise ValueError(f"no tight reference window for ab > L (a={a}, b={b}, L={length})")
    g = np.zeros(length, dtype=complex)
    g[:a] = np.sqrt(b / length)
    return g


def _dense_ops(length: int, tstep: int, fstep: int) -> list[np.ndarray]:
    """Dense M_(m fstep) T_(n tstep), m outer and n inner."""
    return [
        modulation(length, m * fstep) @ translation(length, n * tstep)
        for m in range(length // fstep)
        for n in range(length // tstep)
    ]


def adjoint_lattice_ops(length: int, a: int, b: int) -> list[np.ndarray]:
    """Operators M_(s L/a) T_(t L/b), s in Z_a, t in Z_b, of the adjoint lattice.

    Each commutes exactly with every lattice operator M_(mb) T_(na); the
    identity (s = t = 0) comes first.
    """
    _check_lattice(length, a, b)
    return _dense_ops(length, length // b, length // a)


def lattice_ops(length: int, a: int, b: int) -> list[np.ndarray]:
    """All lattice operators M_(mb) T_(na) of the system itself."""
    _check_lattice(length, a, b)
    return _dense_ops(length, a, b)


def wexler_raz_check(sys: GaborSystem, gamma, tol: float = DEFAULT_TOL) -> CheckResult:
    """Biorthogonality over the adjoint lattice: <A gamma, g> = (ab/L) [A = Id].

    Passing is equivalent to gamma being a dual window of the system's g.
    With A = M_(s L/a) T_(t L/b), <A gamma, g> = sum_j conj g(j) gamma(j - t L/b)
    exp(2 pi i s j / a): the length-a DFT over s of :func:`_correlation`, the
    array the Walnut blocks of V_gamma^* V_g read.
    """
    length, a, b = sys.L, sys.a, sys.b
    gamma = GaborSystem(length, a, b, gamma).window  # checks the length
    values = a * np.fft.ifft(_correlation(length, a, b, gamma, sys.window), axis=1)
    values[0, 0] -= a * b / length  # the identity (s = t = 0)
    return CheckResult(name="wexler_raz", residual=float(np.abs(values).max()), tol=tol)


def wr_fundamental_relation_check(
    length: int, a: int, b: int, f, g, h, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Lattice-swap identity relating analysis/synthesis across the two lattices:

    T*_f T_g h = (L/ab) T*_h' T_g' f, where the primed maps use the adjoint
    lattice steps (time L/b, frequency L/a).  Each side is a Walnut form applied to
    a vector: the (f, g) blocks on (a, b) to h, the (h, g) blocks on (L/b, L/a) to f.
    """
    f, g, h = (GaborSystem(length, a, b, v).window for v in (f, g, h))  # check the lengths
    lhs = _apply_blocks(_walnut_blocks(length, a, b, f, g), h)
    rhs = _apply_blocks(_walnut_blocks(length, length // b, length // a, h, g), f)
    residual = float(np.linalg.norm(lhs - (length / (a * b)) * rhs))
    return CheckResult(name="wr_fundamental_relation", residual=residual, tol=tol)


@dataclass(frozen=True)
class WHGroup:
    """Finite Weyl-Heisenberg group: (m, n, z) in Z_(L/b) x Z_(L/a) x Z_q, q = L / gcd(L, ab), with law
    (m, n, z)(m', n', z') = (m + m', n + n', z + z' - k n m'), where exp(2 pi i ab / L) = exp(2 pi i k / q);
    the central part is the q-th roots of unity, the exact value group of that cocycle."""

    L: int
    a: int
    b: int
    q: int
    k: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.L // self.b, self.L // self.a, self.q

    @property
    def order(self) -> int:
        return math.prod(self.shape)

    def coords(self, idx):
        """(m, n, z) of an element index, or of an array of them."""
        return idx // (self.L // self.a * self.q), idx // self.q % (self.L // self.a), idx % self.q

    def product(self, x, y):
        """Index of x y by the law, for broadcastable index arrays x and y."""
        (m, n, z), (m2, n2, z2) = self.coords(x), self.coords(y)
        return np.ravel_multi_index((m + m2, n + n2, z + z2 - self.k * n * m2), self.shape, mode="wrap")

    @functools.cached_property
    def group(self) -> FiniteGroup:
        table = self.product(*np.ogrid[: self.order, : self.order])
        return group_from_cayley(table, label=f"wh:{self.L}:{self.a}:{self.b}")

    @functools.cached_property
    def operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(phase, shift) of every element, built once per group: see :func:`_wh_operators`."""
        return _wh_operators(self)

    def law_residual(self) -> float:
        """max_{x,j,s} |phase_x(j) phase_s(j - n_x a) - phase_(xs)(j)|, s = (1,0,0), (0,1,0), (0,0,1):
        0 iff pi(x) pi(s) = pi(xs); words in these s reach every x, so {pi(x)} is then a group."""
        phase, shift = self.operators
        x, gens = np.arange(self.order), np.ravel_multi_index(np.eye(3, dtype=int), self.shape, mode="wrap")
        return max(float(np.abs(phase * phase[s][shift] - phase[self.product(x, s)]).max()) for s in gens)


def wh_group_build(length: int, a: int, b: int) -> WHGroup:
    """The Weyl-Heisenberg group of the lattice, refused above MAX_ORDER; builds no table."""
    _check_lattice(length, a, b)
    wh = WHGroup(length, a, b, length // math.gcd(length, a * b), a * b // math.gcd(length, a * b))
    if wh.order > MAX_ORDER:
        raise NotAGroup(f"order {wh.order} exceeds the supported maximum {MAX_ORDER}")
    return wh


def _wh_operators(wh: WHGroup) -> tuple[np.ndarray, np.ndarray]:
    """(phase, shift) with pi(x) f = phase[x] * f[shift[x]] for every element x, as (order, L) arrays."""
    m, n, z = wh.coords(np.arange(wh.order))
    j = np.arange(wh.L)
    phase = _unit_roots(z, wh.q)[:, None] * _unit_roots(np.outer(wh.b * m, j), wh.L)
    return phase, (j - wh.a * n[:, None]) % wh.L


def wh_rep(wh: WHGroup) -> Rep:
    """Representation pi(m, n, z) = exp(2 pi i z / q) M_(mb) T_(na) on C^L."""
    mats = np.array([
        np.exp(2j * np.pi * z / wh.q) * modulation(wh.L, m * wh.b) @ translation(wh.L, n * wh.a)
        for m, n, z in map(wh.coords, range(wh.order))
    ])
    return Rep(group=wh.group, dim=wh.L, matrices=mats)


def wh_bridge_check(wh: WHGroup, f, g, tol: float = DEFAULT_TOL) -> CheckResult:
    """Averaging V_g^* V_f over the Weyl-Heisenberg group reproduces T_g^* T_f.

    The average over the finite central part replaces the circle integral.
    pi(m, n, z) f (j) = exp(2 pi i z / q) exp(2 pi i m b j / L) f(j - n a) for
    every group element at once; the right-hand side is the dense Walnut form.
    """
    length = wh.L
    f, g = (GaborSystem(length, wh.a, wh.b, v).window for v in (f, g))  # check the lengths
    phase, shift = wh.operators
    acc = (phase * g[shift]).T @ (phase * f[shift]).conj() / wh.q
    cross = _walnut_dense(length, wh.b, _walnut_blocks(length, wh.a, wh.b, g, f))
    return CheckResult(name="wh_bridge", residual=float(np.linalg.norm(acc - cross)), tol=tol)
