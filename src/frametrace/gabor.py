"""Finite Weyl-Heisenberg (Gabor) systems on C^L.

Dictionary from the continuous picture: modulation step b and time step a on Z_L play the roles of the
lattice parameters, with density ab/L in place of the product of the continuous steps.  The adjoint
(commuting) lattice has time step L/b and frequency step L/a; its operators commute with every lattice
operator exactly and span the commutant of the system.

Every lattice operator is a cyclic shift times a phase, built once by :func:`_tf_shifts`, so the kernels
work on index arithmetic: V_gamma^* V_g vanishes off the residue classes mod L/b (Walnut), leaving L/b blocks
of size b read from the b x a correlation array whose DFT holds the Wexler-Raz sums (Janssen).  Both pair checks
read that DFT alone: by Parseval over the classes mod a, ||V_gamma^* V_g - I||_F is a multiple of its norm.
Block r of the frame operator S is G_r G_r^* for a b x L/a Walnut factor; one FFT of the window (Zak transform)
gives every G_r in Fourier coordinates as small blocks holding each window sample once (Zibulski-Zeevi), and the
canonical dual and the frame-bounds ratio come from their SVD (``numerics.frame_duals``), with no S formed.
``lattice_ops``, ``adjoint_lattice_ops`` and ``wh_rep`` are dense views of the same (phase, shift) arrays.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotAGroup
from .groups import MAX_ORDER, Rep, check_order, group_from_cayley
from .numerics import DEFAULT_TOL, _unit_roots, as_vector, frame_duals
from .reporting import CheckResult


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


def _tf_shifts(length: int, tstep: int, fstep: int) -> tuple[np.ndarray, np.ndarray]:
    """(phase, shift) with M_(m fstep) T_(n tstep) f = phase[r] * f[shift[r]], r = m (L/tstep) + n."""
    j = np.arange(length)
    m, n = np.divmod(np.arange((length // fstep) * (length // tstep)), length // tstep)
    return _unit_roots(np.outer(fstep * m, j), length), (j - tstep * n[:, None]) % length


def _dense(phase: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """f -> phase[r] * f[shift[r]] as (rows, L, L) matrices: entry [r, j, shift[r, j]] = phase[r, j]."""
    out = np.zeros(shift.shape + shift.shape[-1:], dtype=complex)
    np.put_along_axis(out, shift[..., None], phase[..., None], axis=-1)
    return out


def gabor_coefficient_map(sys: GaborSystem) -> np.ndarray:
    """(L/a)(L/b) x L analysis matrix; row (m, n) is the conjugate of M_(mb) T_(na) g."""
    phase, shift = _tf_shifts(sys.L, sys.a, sys.b)
    phase *= sys.window[shift]
    return np.conjugate(phase, out=phase)


def _correlation(length: int, a: int, b: int, gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P[t, c] = sum_(j = c mod a) conj g(j) gamma(j - t L/b), b x a: every pairing of gamma with g on the lattice
    reads it.  At j = s L/b + r, gamma(j - t L/b) is row s - t of gamma.reshape(b, L/b): a b x b index, no b x L."""
    s = np.arange(b)
    rows = gamma.reshape(b, -1)[(s - s[:, None]) % b]  # rows[t, s] = row s - t
    return np.multiply(g.conj().reshape(b, -1), rows, out=rows).reshape(b, length // a, a).sum(axis=1)


def _wr_defect(sys: GaborSystem, gamma) -> np.ndarray:
    """D[t, s] = <M_(s L/a) T_(t L/b) gamma, g> - (ab/L) [s = t = 0], b x a.  That inner product is
    sum_j conj g(j) gamma(j - t L/b) exp(2 pi i s j / a), the length-a DFT over s of :func:`_correlation`."""
    gamma = GaborSystem(sys.L, sys.a, sys.b, gamma).window  # checks the length
    values = sys.a * np.fft.ifft(_correlation(sys.L, sys.a, sys.b, gamma, sys.window), axis=1)
    values[0, 0] -= sys.a * sys.b / sys.L  # the identity (s = t = 0)
    return values


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


def _zak_blocks(sys: GaborSystem) -> tuple[np.ndarray, np.ndarray]:
    """The Walnut factors G_r[i, n] = sqrt(L/b) g(r + i L/b - n a) of the c = gcd(L/b, a) distinct classes r in
    Fourier coordinates (Zibulski-Zeevi): the DFTs in i and n leave (c / sqrt(a)) hat h_r(k), h_r(u) = g(r + u c),
    at (k mod b, k mod L/a) for k < L/c = lcm(b, L/a), each sample once, in block k mod e of e = gcd(L/a, b).
    Returns the (c e, b/e, L/(a e)) stack, with the singular values of the G_r, and the position of each k."""
    length, a, b = sys.L, sys.a, sys.b
    c, e = math.gcd(length // b, a), math.gcd(length // a, b)
    k = np.arange(length // c)
    pos = ((k % e) * (b // e) + k % b // e) * (length // (a * e)) + k % (length // a) // e
    blocks = np.empty((c, k.size), dtype=complex)
    blocks[:, pos] = np.fft.fft(sys.window.reshape(-1, c), axis=0).T * (c / np.sqrt(a))
    return blocks.reshape(c * e, b // e, -1), pos


def gabor_frame_operator(sys: GaborSystem) -> np.ndarray:
    """The dense L x L frame operator S, its Walnut blocks V_g^* V_g scattered on the classes mod L/b."""
    idx = np.arange(sys.L // sys.b)[:, None] + sys.L // sys.b * np.arange(sys.b)  # row r: the class of r mod L/b
    out = np.zeros((sys.L, sys.L), dtype=complex)
    out[idx[:, :, None], idx[:, None, :]] = _walnut_blocks(sys.L, sys.a, sys.b, sys.window, sys.window)
    return out


def gabor_canonical_dual(sys: GaborSystem) -> np.ndarray:
    """Canonical dual S^-1 g, in (G_r^+)^* as g is in G_r (S_r = G_r G_r^*): Zak blocks U diag(1/s) V^* where g's
    are U diag(s) V^*.  At the floor, raises :class:`NotAFrame` with ``ratio`` = :func:`frame_bounds_ratio`."""
    blocks, pos = _zak_blocks(sys)
    ((left, vh),), _ = frame_duals([blocks])
    dual = (left @ vh).reshape(-1, pos.size)[:, pos].T  # (L/c, c): hat h_r(k) at [k, r]
    return np.fft.ifft(dual * (np.sqrt(sys.a) * pos.size / sys.L), axis=0).ravel()  # sqrt(a) / c, c = L / (L/c)


def frame_bounds_ratio(sys: GaborSystem) -> float:
    """lambda_min / lambda_max of the frame operator: the ratio that :func:`gabor_canonical_dual`'s solver
    tests on the s^2 of :func:`_zak_blocks` (0 for the zero window and for ab > L)."""
    try:
        return frame_duals([_zak_blocks(sys)[0]])[1]
    except NotAFrame as exc:
        return exc.ratio


def gabor_reconstruction_check(sys: GaborSystem, gamma, tol: float) -> CheckResult:
    """||V_gamma^* V_g - I||_F (0 for a dual window gamma) = (L/b) sqrt(L) / a ||D||_F for the Wexler-Raz
    defect D (:func:`_wr_defect`): each P[t, c] fills L/a Walnut entries, and Parseval over the classes c."""
    residual = sys.L / sys.b * math.sqrt(sys.L) / sys.a * float(np.linalg.norm(_wr_defect(sys, gamma)))
    return CheckResult(name="gabor_reconstruction", residual=residual, tol=tol)


def reference_window(length: int, a: int, b: int) -> np.ndarray:
    """Tight window sqrt(b/L) * indicator of [0, a); needs ab <= L."""
    _check_lattice(length, a, b)
    if a * b > length:
        raise ValueError(f"no tight reference window for ab > L (a={a}, b={b}, L={length})")
    g = np.zeros(length, dtype=complex)
    g[:a] = np.sqrt(b / length)
    return g


def lattice_ops(length: int, a: int, b: int) -> list[np.ndarray]:
    """All lattice operators M_(mb) T_(na) of the system itself, m outer and n inner, as dense matrices."""
    _check_lattice(length, a, b)
    return list(_dense(*_tf_shifts(length, a, b)))


def adjoint_lattice_ops(length: int, a: int, b: int) -> list[np.ndarray]:
    """Operators M_(s L/a) T_(t L/b), s in Z_a, t in Z_b, of the adjoint lattice: the lattice (L/b, L/a).

    Each commutes exactly with every lattice operator M_(mb) T_(na); the
    identity (s = t = 0) comes first.
    """
    _check_lattice(length, a, b)
    return lattice_ops(length, length // b, length // a)


def wexler_raz_check(sys: GaborSystem, gamma, tol: float = DEFAULT_TOL) -> CheckResult:
    """Biorthogonality over the adjoint lattice, <A gamma, g> = (ab/L) [A = Id]: max |D| of
    :func:`_wr_defect`.  Passing is equivalent to gamma being a dual window of the system's g."""
    return CheckResult(name="wexler_raz", residual=float(np.abs(_wr_defect(sys, gamma)).max()), tol=tol)


def wr_fundamental_relation_check(length: int, a: int, b: int, f, g, h, tol: float = DEFAULT_TOL) -> CheckResult:
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
    """The Weyl-Heisenberg group of the lattice; builds no table.  Its operators are (order, L) arrays,
    refused here above MAX_ORDER^2 entries, the size of the largest Cayley table, before any exists."""
    _check_lattice(length, a, b)
    wh = WHGroup(length, a, b, length // math.gcd(length, a * b), a * b // math.gcd(length, a * b))
    if wh.order * length > MAX_ORDER ** 2:
        raise NotAGroup(f"order {wh.order} x L = {wh.order * length} exceeds the supported maximum "
                        f"{MAX_ORDER ** 2} = {MAX_ORDER}^2")
    return wh


def _wh_operators(wh: WHGroup) -> tuple[np.ndarray, np.ndarray]:
    """(phase, shift) with pi(x) f = phase[x] * f[shift[x]] for every element x, as (order, L) arrays:
    the central root of z times :func:`_tf_shifts` row (m, n), as x = (m L/a + n) q + z."""
    phase, shift = _tf_shifts(wh.L, wh.a, wh.b)
    r, z = np.divmod(np.arange(wh.order), wh.q)
    return _unit_roots(z, wh.q)[:, None] * phase[r], shift[r]


def wh_rep(wh: WHGroup) -> Rep:
    """pi(m, n, z) = exp(2 pi i z / q) M_(mb) T_(na) on C^L, on the validated Cayley table of the law;
    an order above MAX_ORDER is refused before the table exists."""
    check_order(wh.order)
    table = wh.product(*np.ogrid[: wh.order, : wh.order])
    group = group_from_cayley(table, label=f"wh:{wh.L}:{wh.a}:{wh.b}", copy=False)
    return Rep(group=group, dim=wh.L, matrices=_dense(*wh.operators))


def wh_bridge_check(wh: WHGroup, f, g, tol: float = DEFAULT_TOL) -> CheckResult:
    """Averaging V_g^* V_f over the Weyl-Heisenberg group reproduces T_g^* T_f.

    The average over the finite central part replaces the circle integral.
    pi(m, n, z) f (j) = exp(2 pi i z / q) exp(2 pi i m b j / L) f(j - n a) for
    every group element at once; the Walnut blocks of T_g^* T_f (0 off them) come off it in place.
    """
    length, p = wh.L, wh.L // wh.b
    f, g = (GaborSystem(length, wh.a, wh.b, v).window for v in (f, g))  # check the lengths
    phase, shift = wh.operators
    acc = (phase * g[shift]).T @ (phase * f[shift]).conj() / wh.q
    idx = np.arange(p)[:, None] + p * np.arange(wh.b)  # row r: the class of r mod L/b
    acc[idx[:, :, None], idx[:, None, :]] -= _walnut_blocks(length, wh.a, wh.b, g, f)
    return CheckResult(name="wh_bridge", residual=float(np.linalg.norm(acc)), tol=tol)
