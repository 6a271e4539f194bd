"""Tests of the benchmark's own parts: oracle, workload plans and tracer.

Run from the repository root with ``python3 -m pytest benchmark``.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import tracer as tracer_mod
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.mark.parametrize(
    "spec", ["cyclic:5", "dihedral:6", "heisenberg:3", "cyclic:3 x dihedral:4", "cyclic:2 x dihedral:3"]
)
def test_cayley_matches_builtin_group(spec):
    from frametrace.groups import builtin_group

    assert np.array_equal(oracle.cayley(spec), builtin_group(spec).cayley)


def test_weyl_heisenberg_table_is_a_group_without_builtin_irreps():
    from frametrace.errors import UnsupportedGroup
    from frametrace.groups import group_from_cayley
    from frametrace.plancherel import builtin_irreps

    group = group_from_cayley(oracle.weyl_heisenberg(3), label="weyl-heisenberg:3")
    with pytest.raises(UnsupportedGroup):
        builtin_irreps(group)


def test_conjugacy_class_count():
    assert oracle.conjugacy_class_count(oracle.cayley("cyclic:7")) == 7
    assert oracle.conjugacy_class_count(oracle.cayley("dihedral:6")) == 6   # D_12: n/2 + 3
    assert oracle.conjugacy_class_count(oracle.cayley("heisenberg:3")) == 11  # p^2 + p - 1


def _frame_plan(tmp_path):
    plan = workloads.build("frame-ladder", 3)
    workloads.write_files(plan.files, str(tmp_path))
    return plan, {job.name: job for job in plan.jobs}


def _write_vector(path, label, data):
    pairs = np.stack([data.real, data.imag], axis=1).tolist()
    path.write_text(json.dumps({"group": label, "data": pairs}))


def test_oracle_accepts_canonical_dual_and_rejects_perturbed_dual(tmp_path):
    plan, jobs = _frame_plan(tmp_path)
    eta = workloads._from_pairs(plan.files["eta1.json"]["data"])
    table = oracle.cayley("heisenberg:3")
    psi = oracle.canonical_dual(table, eta)
    _write_vector(tmp_path / "psi1.json", "heisenberg:3", psi)
    assert jobs["dual1"].verify(str(tmp_path), {}) is None
    bumped = psi.copy()
    bumped[4] += 1e-6
    _write_vector(tmp_path / "psi1.json", "heisenberg:3", bumped)
    assert "oracle residual" in jobs["dual1"].verify(str(tmp_path), {})


def test_oracle_checks_subspace_duals_against_the_projection(tmp_path):
    plan, jobs = _frame_plan(tmp_path)
    f = workloads._from_pairs(plan.files["sub0.json"]["data"])
    table = oracle.cayley("dihedral:16")
    assert 0 < round(np.trace(oracle.orbit_projection(table, [f])).real) < table.shape[0]
    v = oracle.analysis_matrix(table, f)
    psi = np.linalg.pinv(v.conj().T @ v, rcond=1e-10, hermitian=True) @ f
    _write_vector(tmp_path / "spsi0.json", "dihedral:16", psi)
    assert jobs["sdual0"].verify(str(tmp_path), {}) is None
    _write_vector(tmp_path / "spsi0.json", "dihedral:16", psi + 1e-6 * np.ones_like(psi))
    assert jobs["sdual0"].verify(str(tmp_path), {}) is not None


def test_gabor_oracle(tmp_path):
    plan = workloads.build("gabor-ladder", 5)
    jobs = {job.name: job for job in plan.jobs}
    length, a, b = 256, 8, 8
    ref = np.zeros(length, dtype=complex)
    ref[:a] = np.sqrt(b / length)
    assert oracle.gabor_residual(length, a, b, ref, ref) < 1e-12
    g = workloads._from_pairs(plan.files["g256.json"]["window"])
    bad = workloads._from_pairs(plan.files["bad256.json"]["window"])
    frame_op = oracle.walnut_cross(length, a, b, bad, bad)
    assert np.min(np.abs(np.diag(frame_op))) == 0.0
    # Canonical dual by dense inversion of the Walnut frame operator.
    gamma = np.linalg.solve(oracle.walnut_cross(length, a, b, g, g), g)
    payload = {"L": length, "a": a, "b": b, "window": np.stack([gamma.real, gamma.imag], 1).tolist()}
    (tmp_path / "gamma256.json").write_text(json.dumps(payload))
    assert jobs["dual256"].verify(str(tmp_path), {}) is None
    payload["window"][7][1] += 1e-6
    (tmp_path / "gamma256.json").write_text(json.dumps(payload))
    assert jobs["dual256"].verify(str(tmp_path), {}) is not None


def test_plans_are_seeded():
    for name in workloads.WORKLOADS:
        one, two = workloads.build(name, 9), workloads.build(name, 9)
        assert json.dumps(one.files) == json.dumps(two.files)
        assert [j.argv for j in one.jobs] == [j.argv for j in two.jobs]
    assert workloads.build("frame-ladder", 1).files != workloads.build("frame-ladder", 2).files


def _frametrace_bindings():
    return {(name, key): value for name, mod in sys.modules.items()
            if name.split(".")[0] == "frametrace" for key, value in vars(mod).items()}


def test_tracer_rebinds_every_copy_and_restores(tmp_path, monkeypatch):
    import frametrace.cli as cli
    import frametrace.frames as frames

    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + (("groups", "gone_in_a_later_version", "x", None),))
    originals = [o for o in (tracer_mod._attr(m, f) for m, f, _, _ in tracer_mod.TARGETS) if o is not None]
    before = _frametrace_bindings()
    validate = frames.InvariantProjection.validate
    tr = tracer_mod.Tracer()
    tr.install()
    assert tr.absent == ["groups.gone_in_a_later_version"]
    bound = list(_frametrace_bindings().values())
    assert not any(v is o for v in bound for o in originals)
    assert frames.InvariantProjection.validate is not validate
    tr.uninstall()
    after = _frametrace_bindings()
    assert all(after[k] is v for k, v in before.items())
    assert frames.InvariantProjection.validate is validate
    assert cli.main is before[("frametrace.cli", "main")]


def test_tracer_spans_account_for_the_job(tmp_path, monkeypatch):
    import frametrace.cli as cli

    plan, jobs = _frame_plan(tmp_path)
    monkeypatch.chdir(tmp_path)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert tr.run_job(7, cli.main, list(jobs["sdual0"].argv)) == 0
    finally:
        tr.uninstall()
    names = [rec[0] for rec in tr.spans]
    assert names[0] == "cli.main" and len(names) > 1
    assert set(names) <= set(tr.metric_of)
    assert all(rec[4] == 7 for rec in tr.spans)
    own = tracer_mod.self_times(tr.spans)
    root = tr.spans[0]
    assert sum(own) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert min(own) >= 0.0
    counts = tr.counts[7]
    assert counts["frames.coef_op_calls"] == names.count("frames.coefficient_operator")
    assert counts["groups.rep_tensor_mb"] == counts["groups.regular_rep_calls"] * 32 ** 3 * 16 / 2 ** 20
    saved = "io.save_vector" in names
    assert counts["io.bytes_written"] == (os.path.getsize(tmp_path / "spsi0.json") if saved else 0)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "benchmark"), tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "gabor-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
