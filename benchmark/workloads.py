"""Workload plans: seeded inputs (numpy only) and the CLI job ladders.

``build(workload, seed)`` returns the input files to write and the jobs to run
in order.  Workers write the files; the parent keeps the jobs, whose oracle
references are computed on first use.  A job carries its expected exit code, which comes from the
mathematics (a canonical dual passes, a random pair fails, a window vanishing
on a residue class mod a is no frame), and an optional oracle check of the
file it writes.  The program receives only the files written here and
``--seed``.
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``verify(rundir, report)`` returns an error or None."""

    name: str
    argv: tuple
    expect: int
    writes: tuple = ()
    verify: Callable | None = field(default=None, compare=False)

    @property
    def report(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


@dataclass(frozen=True)
class Plan:
    files: dict
    jobs: list


def _pairs(values) -> list:
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=1).tolist()


def _from_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cnormal(rng, n) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


#: Smallest frame bounds ratio A/B of a window whose dual must pass.  The
#: CLI's residual tolerance is absolute (1e-9) while a dual's rounding error
#: grows with B/A; at B/A = 6e4 a correct subspace dual read 1.08e-9, so
#: windows are drawn again until they are at most this ill-conditioned.
MIN_BOUNDS_RATIO = 1e-3


def _conditioned(draw, ratio):
    """First ``draw()`` whose ``ratio(window)`` is at least MIN_BOUNDS_RATIO."""
    while True:
        window = draw()
        if ratio(window) >= MIN_BOUNDS_RATIO:
            return window


def write_files(files: dict, rundir: str) -> None:
    for name, payload in files.items():
        with open(os.path.join(rundir, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# frame-ladder


def _vector_check(table, label, eta, p, out):
    """Oracle for a written frame vector: V_out^* V_eta = p() (eta None: tight)."""

    def verify(rundir, report):
        obj = _read_json(os.path.join(rundir, out))
        if obj.get("group") != label:
            return f"{out}: group {obj.get('group')!r} != {label!r}"
        psi = _from_pairs(obj["data"])
        if psi.shape != (table.shape[0],):
            return f"{out}: length {psi.shape} != {table.shape[0]}"
        res = oracle.frame_residual(table, psi if eta is None else eta, psi, p())
        if not res <= oracle.ORACLE_TOL:
            return f"{out}: oracle residual {res:.3e}"
        return None

    return verify


def _frame_ladder(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    files, jobs = {}, []
    tail = ("--seed", str(seed))

    def frame(name, action, window, *extra, expect=0, writes=(), verify=None):
        argv = ("frame", action, "--window", window, *extra, *tail, "--out", f"{name}.report.json")
        jobs.append(Job(name, argv, expect, writes, verify))

    # Full space, orders 16-32: dual writes psi, check reads it, tighten.
    # Orders 48 and up run as the check64 and subspace rungs below; a full
    # order-48 rung would halve the passes that fit in a 40 s run.
    for k, spec in enumerate(("dihedral:8", "heisenberg:3", "dihedral:16")):
        table = oracle.cayley(spec)
        n = table.shape[0]
        eta = _conditioned(lambda: _cnormal(rng, n), functools.partial(oracle.frame_bounds_ratio, table))
        eye = functools.partial(np.eye, n)
        files[f"eta{k}.json"] = {"group": spec, "data": _pairs(eta)}
        frame(f"dual{k}", "dual", f"eta{k}.json", "--out-vector", f"psi{k}.json",
              writes=(f"psi{k}.json",), verify=_vector_check(table, spec, eta, eye, f"psi{k}.json"))
        frame(f"check{k}", "check", f"eta{k}.json", "--pair", f"eta{k}.json", f"psi{k}.json")
        frame(f"tighten{k}", "tighten", f"eta{k}.json", "--out-vector", f"tight{k}.json",
              writes=(f"tight{k}.json",), verify=_vector_check(table, spec, None, eye, f"tight{k}.json"))

    # Order 64, full space: the pair's dual comes from the numpy oracle.
    spec = "dihedral:32"
    table = oracle.cayley(spec)
    eta = _conditioned(lambda: _cnormal(rng, table.shape[0]), functools.partial(oracle.frame_bounds_ratio, table))
    files["eta64.json"] = {"group": spec, "data": _pairs(eta)}
    files["psi64.json"] = {"group": spec, "data": _pairs(oracle.canonical_dual(table, eta))}
    frame("check64", "check", "eta64.json", "--pair", "eta64.json", "psi64.json")

    # Proper invariant subspaces, orders 32 and 48: the window averages a
    # random vector over right cosets of {e, s} (s the first involution), so
    # its orbit spans a left-invariant subspace of at most half the space.
    for k, spec in enumerate(("dihedral:16", "cyclic:3 x dihedral:8")):
        table = oracle.cayley(spec)
        s = int(np.nonzero(table.diagonal() == 0)[0][1])

        def coset_average():
            u = _cnormal(rng, table.shape[0])
            return 0.5 * (u + u[table[:, s]])

        f = _conditioned(coset_average, functools.partial(oracle.frame_bounds_ratio, table))
        p = functools.cache(functools.partial(oracle.orbit_projection, table, [f]))
        files[f"sub{k}.json"] = {"group": spec, "data": _pairs(f)}
        files[f"span{k}.json"] = {"group": spec, "vectors": [_pairs(f)]}
        sub = ("--subspace", f"span{k}.json")
        frame(f"sdual{k}", "dual", f"sub{k}.json", *sub, "--out-vector", f"spsi{k}.json",
              writes=(f"spsi{k}.json",), verify=_vector_check(table, spec, f, p, f"spsi{k}.json"))
        frame(f"scheck{k}", "check", f"sub{k}.json", *sub, "--pair", f"sub{k}.json", f"spsi{k}.json")
        frame(f"sdecompose{k}", "decompose", f"sub{k}.json", *sub)

    # A random pair is not admissible: the check must exit 1.
    spec = "dihedral:8"
    n = oracle.cayley(spec).shape[0]
    files["neg_eta.json"] = {"group": spec, "data": _pairs(_cnormal(rng, n))}
    files["neg_psi.json"] = {"group": spec, "data": _pairs(_cnormal(rng, n))}
    frame("check_neg", "check", "neg_eta.json", "--pair", "neg_eta.json", "neg_psi.json", expect=1)
    return Plan(files, jobs)


# ---------------------------------------------------------------------------
# group-ladder


def _group_check(table_fn, irreps_available):
    """Oracle for a group report: order, commutant dimension and irrep count."""

    @functools.cache
    def expected():
        table = table_fn()
        return table.shape[0], oracle.conjugacy_class_count(table) if irreps_available else None

    def verify(rundir, report):
        n, classes = expected()
        meta = report.get("metadata", {})
        if meta.get("order") != n or meta.get("commutant_dim") != n:
            return f"order/commutant_dim {meta.get('order')}/{meta.get('commutant_dim')} != {n}"
        if classes is None:
            return None if meta.get("irreps") == "unavailable" else "irreps should be unavailable"
        if meta.get("irreps") != classes:
            return f"{meta.get('irreps')} irreps != {classes} conjugacy classes"
        return None

    return verify


def _group_ladder(seed: int) -> Plan:
    files, jobs = {}, []
    tail = ("--seed", str(seed))
    for spec in ("dihedral:32", "heisenberg:5", "cyclic:128", "cyclic:2 x dihedral:64", "dihedral:128"):
        name = "analyze_" + spec.replace(" x ", "_x_").replace(":", "")
        argv = ("group", "analyze", "--builtin", spec, *tail, "--out", f"{name}.report.json")
        jobs.append(Job(name, argv, 0, verify=_group_check(functools.partial(oracle.cayley, spec), True)))
    # A file group of order 216 under a label no builtin family parses: io
    # read path, full table validation, and no irreps.
    table = oracle.weyl_heisenberg(6)
    files["wh216.json"] = {"label": "weyl-heisenberg:6", "order": 216, "cayley": table.tolist()}
    argv = ("group", "analyze", "--file", "wh216.json", *tail, "--out", "analyze_wh216.report.json")
    jobs.append(Job("analyze_wh216", argv, 0, verify=_group_check(lambda: table, False)))
    return Plan(files, jobs)


# ---------------------------------------------------------------------------
# gabor-ladder


def _window_check(length, a, b, g, out):
    """Oracle for a written Gabor window: V_out^* V_g = I (g None: tight)."""

    def verify(rundir, report):
        obj = _read_json(os.path.join(rundir, out))
        if (obj.get("L"), obj.get("a"), obj.get("b")) != (length, a, b):
            return f"{out}: lattice {(obj.get('L'), obj.get('a'), obj.get('b'))}"
        gamma = _from_pairs(obj["window"])
        res = oracle.gabor_residual(length, a, b, gamma, gamma if g is None else g)
        if not res <= oracle.ORACLE_TOL:
            return f"{out}: oracle residual {res:.3e}"
        return None

    return verify


def _gabor_ladder(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    files, jobs = {}, []
    tail = ("--seed", str(seed))
    a = b = 8
    for length in (256, 512):
        lat = ("--L", str(length), "--a", str(a), "--b", str(b))

        def gabor(name, action, *extra, expect=0, writes=(), verify=None):
            argv = ("gabor", action, *lat, *extra, *tail, "--out", f"{name}.report.json")
            jobs.append(Job(name, argv, expect, writes, verify))

        g = _conditioned(lambda: _cnormal(rng, length) / np.sqrt(length),
                         functools.partial(oracle.gabor_bounds_ratio, length, a, b))
        # Zero on one residue class mod a: every translate by n a vanishes
        # there too, so the frame operator is singular.
        bad = _cnormal(rng, length) / np.sqrt(length)
        bad[int(rng.integers(a))::a] = 0.0
        for key, w in (("g", g), ("bad", bad)):
            files[f"{key}{length}.json"] = {"L": length, "a": a, "b": b, "window": _pairs(w)}
        gabor(f"reference{length}", "reference", "--out-window", f"ref{length}.json",
              writes=(f"ref{length}.json",), verify=_window_check(length, a, b, None, f"ref{length}.json"))
        gabor(f"dual{length}", "dual", "--window", f"g{length}.json", "--out-window", f"gamma{length}.json",
              writes=(f"gamma{length}.json",), verify=_window_check(length, a, b, g, f"gamma{length}.json"))
        gabor(f"wr{length}", "wexler-raz", "--window", f"g{length}.json", "--candidate", f"gamma{length}.json")
        gabor(f"dual_bad{length}", "dual", "--window", f"bad{length}.json", expect=1)
    # Weyl-Heisenberg group of order (48/4)(48/4)(48/gcd(48, 16)) = 432.
    argv = ("gabor", "bridge", "--L", "48", "--a", "4", "--b", "4", *tail, "--out", "bridge48.report.json")
    jobs.append(Job("bridge48", argv, 0))
    return Plan(files, jobs)


_BUILDERS = {"frame-ladder": _frame_ladder, "group-ladder": _group_ladder, "gabor-ladder": _gabor_ladder}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> Plan:
    return _BUILDERS[workload](seed)
