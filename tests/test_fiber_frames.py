"""``frame dual|tighten`` on the Plancherel fibers, against the former dense path as oracle.

Every ``frame`` job inverts its frame operator fiber by fiber (``plancherel.FiberSubspace``).  A
group with builtin irreps uses those; the same table under a label that no builtin spec names
(``oracles.relabelled``) reads its irreps off the table (``plancherel.table_irreps``).  Each job runs
on both twins through ``cli.main``, and against ``oracles.dense_frame_job``: one ``eigh`` of the
|G| x |G| frame operator S = R_c and, with ``--subspace``, one SVD of the orbit matrix.
"""
import json

import numpy as np
import pytest

from frametrace import io as ftio
from frametrace.cli import main
from frametrace.frames import projection_from_spanning
from frametrace.groups import GroupVector, builtin_group
from frametrace.numerics import EIG_FLOOR
from frametrace.plancherel import (
    PlancherelCoefficients,
    builtin_irreps,
    fiber_subspace,
    inverse_plancherel,
    plancherel_transform,
)

from oracles import dense_frame_job, regular_coefficient_matrix, relabelled, subgroup_average

EPS = np.finfo(float).eps
ACCEPTANCE_SPECS = ["cyclic:12", "dihedral:4", "heisenberg:3"]

#: The written vectors of a fiber path and the dense oracle agree to VECTOR_C * kappa(S) * eps,
#: relative, with kappa(S) the condition number of S on range(p).  The largest ratio over the 360 jobs
#: of each run was 3.6 (builtin irreps).
VECTOR_C = 20

#: A fiber path's residual is at most RESIDUAL_F times the dense oracle's, or than |G| eps where both
#: are rounding in the residual itself.  The largest ratio seen was 2.5 (tighten on dihedral:8).
RESIDUAL_F = 8


def cnormal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def run_twins(tmp_path, group, action, window, span=None, seed=0):
    """``frame ACTION`` on ``group`` (builtin irreps), on a relabelled twin (irreps from its table) and
    by the dense oracle on ``group``.  Per path: (exit code, check name, residual, written vector on
    ``group``'s indices or None); the oracle's exit code is None."""
    perm = np.random.default_rng(seed).permutation(group.order)
    twin = relabelled(group, perm)
    ftio.save_group(twin, tmp_path / "twin.json")
    results = {"dense": (None, *dense_frame_job(group, action, window, span))}
    for path, g, idx, extra in (("fiber", group, np.arange(group.order), []),
                                ("table", twin, np.argsort(perm), ["--group-file", str(tmp_path / "twin.json")])):
        eta, sub, psi, report = (tmp_path / f"{path}-{k}.json" for k in ("eta", "sub", "psi", "report"))
        psi.unlink(missing_ok=True)
        ftio.save_vector(GroupVector(g, window[idx]), eta)
        argv = ["frame", action, "--window", str(eta), *extra, "--out-vector", str(psi), "--out", str(report)]
        if span is not None:
            sub.write_text(json.dumps({"group": g.label, "vectors": [ftio.complex_to_json(span[idx])]}))
            argv += ["--subspace", str(sub)]
        code = main(argv)
        (check,) = json.loads(report.read_text())["checks"]
        vector = ftio.load_vector(psi, g).data[np.argsort(idx)] if psi.exists() else None
        results[path] = (code, check["name"], check["residual"], vector)
    return results


def restricted_spectrum(group, window, span=None):
    """Eigenvalues of the frame operator S = V_eta^* V_eta on range(p), from numpy alone."""
    q = np.eye(group.order)
    if span is not None:
        u, s, _ = np.linalg.svd(regular_coefficient_matrix(group, span).conj().T)
        q = u[:, s > 1e-9 * s[0]]
    v = regular_coefficient_matrix(group, window) @ q
    return np.linalg.eigvalsh(v.conj().T @ v)


@pytest.mark.parametrize("spec", [*ACCEPTANCE_SPECS, "cyclic:2 x dihedral:3"])
def test_fiber_projection_matches_the_orbit_svd(spec):
    # The range projectors of the stacked fiber blocks against orthonormal_columns of the orbit
    # matrix: the same h to rounding, and the same rank, sum_sigma d_sigma rank(P_sigma).
    group = builtin_group(spec)
    table = builtin_irreps(group)
    rng = np.random.default_rng(7)
    v, w = (subgroup_average(group, cnormal(rng, group.order)) for _ in range(2))
    for vectors in ([v], [v, 2j * v], [v, w], [v, cnormal(rng, group.order)]):
        dense = projection_from_spanning(group, vectors)
        fibers = fiber_subspace(table, vectors)
        assert np.linalg.norm(fibers.projection().h.data - dense.h.data) <= 1e-13 * group.order
        rank = sum(np.prod(u.shape) for _, u in fibers.ranges)  # (m, d, r): m irreps of rank r, each d times
        assert rank == dense.rank()
    for empty in ([], [np.zeros(group.order)]):
        fibers = fiber_subspace(table, empty)
        assert fibers.ranges == () and not np.any(fibers.projection().h.data)


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS)
def test_fiber_vectors_and_residuals_match_the_dense_oracle(tmp_path, spec):
    group = builtin_group(spec)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        span = subgroup_average(group, cnormal(rng, group.order))
        windows = {"full": (cnormal(rng, group.order), None),
                   "inside": (subgroup_average(group, cnormal(rng, group.order)), span),
                   "outside": (cnormal(rng, group.order), span)}  # --subspace projects it first
        for mode, (window, sub) in windows.items():
            lam = restricted_spectrum(group, window, sub)
            if sub is not None:
                assert 0 < lam.size < group.order
            kappa = lam.max() / lam.min()
            for action in ("dual", "tighten"):
                got = run_twins(tmp_path, group, action, window, sub, seed)
                _, dname, dres, dvec = got.pop("dense")
                assert dname == f"{action}_reconstruction"
                for path, (code, name, res, vec) in got.items():
                    case = (path, seed, mode, action, kappa)
                    assert code == 0 and name == dname, case
                    rel = np.linalg.norm(vec - dvec) / np.linalg.norm(dvec)
                    assert rel <= VECTOR_C * kappa * EPS, (case, rel)
                    assert res <= RESIDUAL_F * max(dres, group.order * EPS), (case, res, dres)


def window_with_ratio(table, rng, ratio, full):
    """A window and a spanning vector for its subspace (None with ``full``): the frame operator of the
    window on that subspace has its eigenvalues in [1, 2] but one, ratio times the largest.  Per
    fiber, etahat(sigma) = u diag(sqrt(lam)) v* and spanhat(sigma) = u diag(s) w*, both on the first
    r columns of a unitary u: r = d_sigma on the full space, else a random rank 0 <= r <= d_sigma."""
    fibers = []
    for d in table.degrees:
        r = d if full else int(rng.integers(0, d + 1))
        u, v, w = (np.linalg.qr(cnormal(rng, d * d).reshape(d, d))[0][:, :r] for _ in range(3))
        fibers.append((u, v, w, 1.0 + rng.random(r), 1.0 + rng.random(r)))
    lam = [f[3] for f in fibers]
    k = max(range(len(lam)), key=lambda i: lam[i].size)  # a fiber of positive rank
    lam[k][0] = 0.0
    lam[k][0] = ratio * max(float(x.max()) for x in lam if x.size)
    window = [(u * np.sqrt(x)) @ v.conj().T for u, v, _, x, _ in fibers]
    span = [(u * s) @ w.conj().T for u, _, w, _, s in fibers]

    def synthesize(blocks):
        return inverse_plancherel(PlancherelCoefficients.from_blocks(table, tuple(blocks))).data

    return synthesize(window), None if full else synthesize(span)


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS)
@pytest.mark.parametrize("ratio", [1e-11, 1e-13])
@pytest.mark.parametrize("full", [True, False], ids=["full", "subspace"])
def test_not_a_frame_verdicts_match_the_dense_oracle(tmp_path, spec, ratio, full):
    # EIG_FLOOR = 1e-12 lies between the two ratios: both paths raise NotInvertible below it only.
    group = builtin_group(spec)
    table = builtin_irreps(group)
    for seed in range(4):
        window, span = window_with_ratio(table, np.random.default_rng(seed), ratio, full)
        lam = restricted_spectrum(group, window, span)
        assert lam.min() / lam.max() == pytest.approx(ratio, rel=1e-2)
        for action in ("dual", "tighten"):
            got = run_twins(tmp_path, group, action, window, span, seed)
            expect = f"{action}_not_a_frame" if ratio < EIG_FLOOR else f"{action}_reconstruction"
            assert got["fiber"][1] == got["table"][1] == got["dense"][1] == expect, (seed, action)


# ---------------------------------------------------------------------------
# A correct dual near the floor.  Shrinking the trivial-irrep component of a random window on
# dihedral:256 by eps takes its frame-bounds ratio from about 4e-4 (eps = 0.1) to 4e-8 (eps = 1e-3),
# four decades above EIG_FLOOR.  The dense eigh of S loses about kappa(S) eps_mach ||p||_F in the
# dual's residual, enough to fail the default --tol at eps = 1e-3 (3.7e-9 against 1e-9); the
# fibers, builtin or read off the table, invert the trivial irrep's 1 x 1 block on its own.


def shrunk_window(eps):
    group = builtin_group("dihedral:256")
    w = cnormal(np.random.default_rng(11), group.order)  # ratio 3.9e-4 at eps = 0.1
    return group, w - (1.0 - eps) * w.mean()  # the mean is the trivial-irrep component


def frame_report(tmp_path, action, group, window, extra=()):
    eta, report = tmp_path / "eta.json", tmp_path / "r.json"
    ftio.save_vector(GroupVector(group, window), eta)
    code = main(["frame", action, "--window", str(eta), *extra, "--out", str(report)])
    (check,) = json.loads(report.read_text())["checks"]
    return code, check


@pytest.mark.parametrize("action", ["dual", "tighten"])
@pytest.mark.parametrize("eps, ratio", [(1e-1, 3.9e-4), (1e-2, 3.9e-6), (1e-3, 3.9e-8)])
def test_dual_and_tighten_near_the_floor_pass_on_the_fibers(tmp_path, eps, ratio, action):
    # Before the fibers, dihedral:256 took the dense path: at eps = 1e-3 dual read 4.1e-9 and
    # tighten 2.3e-9, and both exited 1.
    group, window = shrunk_window(eps)
    blocks = plancherel_transform(builtin_irreps(group), GroupVector(group, window)).blocks
    lam = np.concatenate([np.linalg.eigvalsh(b @ b.conj().T) for b in blocks])
    assert lam.min() / lam.max() == pytest.approx(ratio, rel=0.1)
    code, check = frame_report(tmp_path, action, group, window)
    assert (code, check["name"]) == (0, f"{action}_reconstruction")
    assert check["residual"] <= 1e-11


@pytest.mark.parametrize("action", ["dual", "tighten"])
def test_dual_and_tighten_near_the_floor_pass_on_the_table_fibers(tmp_path, action):
    # The same table relabelled as a file group has no builtin irreps.  It took the dense path, which
    # read 3.7e-9 (dual) and 1.1e-9 (tighten) here and failed its own correct dual; on the irreps read
    # off its table it passes as the builtin fibers do.
    group, window = shrunk_window(1e-3)
    perm = np.random.default_rng(1).permutation(group.order)
    twin = relabelled(group, perm)
    ftio.save_group(twin, tmp_path / "twin.json")
    code, check = frame_report(tmp_path, action, twin, window[np.argsort(perm)],
                               ["--group-file", str(tmp_path / "twin.json")])
    assert (code, check["name"]) == (0, f"{action}_reconstruction")
    assert check["residual"] <= 1e-11


# ---------------------------------------------------------------------------
# Ill-conditioning inside a block with d >= 2.  window_with_ratio shrinks one singular value of a
# largest fiber block: a 2 x 2 block of dihedral:256, the 7 x 7 block of heisenberg:7.  Solving the
# normal equations (b b*)^-1 b lost kappa(S) eps_mach and failed every ratio from 1e-8 down (1.0e-8
# and 1.2e-7 at 1e-8, up to 8.9e-4 at 2e-12); the SVD of b loses about sqrt(kappa(S)) eps_mach.

BLOCK_SPECS = ["dihedral:256", "heisenberg:7"]
BLOCK_RATIOS = [1e-6, 1e-8, 1e-10, 1e-11, 2e-12]
BLOCK_SEED = 3

#: Twin duals above 1e-9 below ratio 1e-10 (1.5e-9; 1.6e-9 and 3.4e-9): the irreps read off the
#: table carry the closure-product error of CHANGES.md's FOUND line on ``table_irreps`` ("less
#: accurate than the builtin formulas"); the builtin fibers read at most 7.7e-10 there.
TABLE_MISSES = {("dihedral:256", 2e-12), ("heisenberg:7", 1e-11), ("heisenberg:7", 2e-12)}


def block_case(tmp_path, spec, ratio, on_twin):
    """(group, window, extra argv) of the shrunk-block window on ``spec``, or on its relabelled twin."""
    group = builtin_group(spec)
    window, _ = window_with_ratio(builtin_irreps(group), np.random.default_rng(BLOCK_SEED), ratio, True)
    if not on_twin:
        return group, window, []
    perm = np.random.default_rng(BLOCK_SEED).permutation(group.order)
    twin = relabelled(group, perm)
    ftio.save_group(twin, tmp_path / "twin.json")
    return twin, window[np.argsort(perm)], ["--group-file", str(tmp_path / "twin.json")]


@pytest.mark.parametrize("ratio", BLOCK_RATIOS)
@pytest.mark.parametrize("spec", BLOCK_SPECS)
def test_ill_conditioned_block_passes_on_builtin_fibers(tmp_path, spec, ratio):
    group, window, extra = block_case(tmp_path, spec, ratio, on_twin=False)
    lam = restricted_spectrum(group, window)
    assert lam.min() / lam.max() == pytest.approx(ratio, rel=1e-2)
    for action, bound in (("dual", 1e-9), ("tighten", 1e-12)):
        code, check = frame_report(tmp_path, action, group, window, extra)
        assert (code, check["name"]) == (0, f"{action}_reconstruction")
        assert check["residual"] <= bound, (action, check["residual"])


@pytest.mark.parametrize("action", ["dual", "tighten"])
@pytest.mark.parametrize("full", [True, False], ids=["full", "subspace"])
def test_not_a_frame_reports_its_frame_bounds_ratio(tmp_path, action, full):
    # As gabor dual does: metadata frame_bounds_ratio is the min/max eigenvalue of the frame operator
    # on the subspace that the floor refused.  A frame's report has no such key.
    group = builtin_group("dihedral:4")
    eta, sub, out = (tmp_path / f"{k}.json" for k in ("eta", "sub", "report"))
    for ratio, code, name in ((1e-13, 1, "not_a_frame"), (1e-6, 0, "reconstruction")):
        window, span = window_with_ratio(builtin_irreps(group), np.random.default_rng(2), ratio, full)
        ftio.save_vector(GroupVector(group, window), eta)
        argv = ["frame", action, "--window", str(eta), "--out", str(out)]
        if span is not None:
            sub.write_text(json.dumps({"group": group.label, "vectors": [ftio.complex_to_json(span)]}))
            argv += ["--subspace", str(sub)]
        assert main(argv) == code
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"]] == [f"{action}_{name}"]
        if code:
            assert report["metadata"]["frame_bounds_ratio"] == pytest.approx(ratio, rel=1e-6)
        else:
            assert "frame_bounds_ratio" not in report["metadata"]


@pytest.mark.parametrize("action, spec, ratio", [
    pytest.param(action, spec, ratio, marks=[pytest.mark.xfail(
        strict=True, reason="table_irreps closure-product error (CHANGES.md FOUND line)")]
        if action == "dual" and (spec, ratio) in TABLE_MISSES else [])
    for action in ("dual", "tighten") for spec in BLOCK_SPECS for ratio in BLOCK_RATIOS
])
def test_ill_conditioned_block_on_table_fibers(tmp_path, action, spec, ratio):
    code, check = frame_report(tmp_path, action, *block_case(tmp_path, spec, ratio, on_twin=True))
    assert (code, check["name"]) == (0, f"{action}_reconstruction")
    assert check["residual"] <= (1e-9 if action == "dual" else 1e-12), check["residual"]


@pytest.mark.parametrize("spec", BLOCK_SPECS)
def test_ill_conditioned_block_below_the_floor_is_not_a_frame(tmp_path, spec):
    group = builtin_group(spec)
    window, _ = window_with_ratio(builtin_irreps(group), np.random.default_rng(BLOCK_SEED), 5e-13, True)
    for action in ("dual", "tighten"):
        got = run_twins(tmp_path, group, action, window, seed=BLOCK_SEED)
        assert {name for _, name, *_ in got.values()} == {f"{action}_not_a_frame"}, action
        assert got["fiber"][0] == got["table"][0] == 1
