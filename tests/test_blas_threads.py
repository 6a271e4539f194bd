"""``cli.main`` runs each ``frame`` and ``gabor`` job with OpenBLAS on one thread and restores the
count it found; a ``group`` job keeps the process's count and never changes it.

The frame and gabor products are small (b x b Walnut blocks, d x d Plancherel fibers, |G| x |G|
gathers), and an idle OpenBLAS helper thread costs milliseconds to wake.  The sampled Parseval
transform of ``group analyze`` is the one product that two threads speed up.  Reports and written
files are byte-identical whatever thread count the process starts with, also for a group without
builtin irreps, whose ``frame`` jobs read them off its Cayley table (``plancherel.table_irreps``,
one |G| x |G| ``eigh``, on one thread like the rest of the job).
"""
import json

import numpy as np
import pytest

from frametrace import cli
from frametrace import io as ftio
from frametrace.gabor import GaborSystem
from frametrace.groups import GroupVector, builtin_group

from oracles import coset_average, relabelled


@pytest.fixture
def blas_get():
    """OpenBLAS on two threads for the test; the thread-count getter.  The count is restored
    afterwards."""
    found = cli._openblas()
    if found is None:
        pytest.skip("no OpenBLAS in numpy's wheel: main runs its jobs without a pin")
    get, set_ = found
    before = get()
    set_(2)  # two threads, so that a pinned job reads differently from an unpinned one
    try:
        if get() != 2:
            pytest.skip(f"OpenBLAS kept {get()} threads when asked for 2")
        yield get
    finally:
        set_(before)


def _save_eta(g, path, rng):
    ftio.save_vector(GroupVector(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)), path)


def test_a_job_runs_on_one_thread(blas_get, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_gabor", lambda args: seen.append(blas_get()) or 0)
    assert cli.main(["gabor", "reference", "--L", "16", "--a", "4", "--b", "4"]) == 0
    assert seen == [1]
    assert blas_get() == 2


def _raise(args):
    raise RuntimeError("escapes main")


@pytest.mark.parametrize("outcome", ["exit 0", "exit 1", "exit 2", "exception"])
def test_main_restores_the_thread_count(blas_get, monkeypatch, tmp_path, outcome):
    monkeypatch.chdir(tmp_path)
    reference = ["gabor", "reference", "--L", "16", "--a", "4", "--b", "4", "--out", "r.json"]
    if outcome == "exit 0":
        assert cli.main(reference) == 0
    elif outcome == "exit 1":  # a random pair is not admissible
        rng, g = np.random.default_rng(3), builtin_group("dihedral:4")
        _save_eta(g, "eta.json", rng)
        _save_eta(g, "psi.json", rng)
        assert cli.main(["frame", "check", "--window", "eta.json", "--pair", "eta.json", "psi.json",
                         "--out", "r.json"]) == 1
    elif outcome == "exit 2":
        assert cli.main([*reference, "--tol", "0"]) == 2
    else:
        monkeypatch.setattr(cli, "cmd_gabor", _raise)
        with pytest.raises(RuntimeError, match="escapes main"):
            cli.main(reference)
    assert blas_get() == 2


def _record_threads(monkeypatch, get, *names):
    """Replace each named function of ``cli`` by one that records (name, thread count) on each call."""
    seen = []

    def recording(name, fn):
        def wrapped(*args):
            seen.append((name, get()))
            return fn(*args)
        return wrapped

    for name in names:
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    return seen


def _record_sets(monkeypatch):
    """Make ``cli._openblas`` hand out a setter that records each count it is asked for."""
    get, set_ = cli._openblas()
    sets = []

    def recording_set(n):
        sets.append(n)
        set_(n)

    monkeypatch.setattr(cli, "_openblas", lambda: (get, recording_set))
    return sets


def test_group_analyze_never_changes_the_thread_count(blas_get, monkeypatch, tmp_path):
    # Its 20 x |G| x |G| Parseval transform is the one product of a group job that two threads
    # speed up; builtin_irreps builds its kernel elementwise.
    sets = _record_sets(monkeypatch)
    seen = _record_threads(monkeypatch, blas_get, "parseval_residual", "builtin_irreps")
    assert cli.main(["group", "analyze", "--builtin", "dihedral:8", "--out", str(tmp_path / "r.json")]) == 0
    assert seen == [("builtin_irreps", 2), ("parseval_residual", 2)]
    assert sets == []
    assert blas_get() == 2


@pytest.mark.parametrize("subspace", [False, True], ids=["full", "subspace"])
def test_table_irreps_run_on_one_thread(blas_get, monkeypatch, tmp_path, subspace):
    # dihedral:8 relabelled as a file group has no builtin irreps: the job reads them off its table,
    # and their eigh of R_a runs on one thread like the fiber solve and --subspace.
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(41)
    g = builtin_group("dihedral:8")
    window = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    if subspace:
        window = coset_average(g, window)
    perm = rng.permutation(g.order)
    g, window = relabelled(g, perm), window[np.argsort(perm)]
    ftio.save_group(g, "g.json")
    ftio.save_vector(GroupVector(g, window), "eta.json")
    sub = []
    if subspace:
        (tmp_path / "sub.json").write_text(
            json.dumps({"group": g.label, "vectors": [ftio.complex_to_json(window)]}))
        sub = ["--subspace", "sub.json"]
    sets = _record_sets(monkeypatch)
    seen = _record_threads(monkeypatch, blas_get, "builtin_irreps", "table_irreps", "fiber_subspace")
    argv = ["frame", "dual", "--window", "eta.json", "--group-file", "g.json", *sub, "--out", "r.json"]
    assert cli.main(argv) == 0
    assert seen == [("builtin_irreps", 1), ("table_irreps", 1), ("fiber_subspace", 1)]
    assert sets == [1, 2]
    assert blas_get() == 2


def _determinism_inputs():
    """Inputs of DETERMINISM_JOBS as {file name: bytes}, written once so both runs read the same bytes."""
    rng = np.random.default_rng(7)
    files = {}

    def vector(name, g, data):
        ftio.save_vector(GroupVector(g, data), name)
        with open(name, "rb") as fh:
            files[name] = fh.read()

    g64 = builtin_group("dihedral:32")
    vector("eta64.json", g64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    g48 = builtin_group("cyclic:3 x dihedral:8")
    eta48 = coset_average(g48, rng.standard_normal(48) + 1j * rng.standard_normal(48))
    vector("eta48.json", g48, eta48)
    files["sub48.json"] = json.dumps(
        {"group": g48.label, "vectors": [ftio.complex_to_json(eta48)]}).encode()
    ftio.save_window(GaborSystem(256, 8, 8, rng.standard_normal(256) + 1j * rng.standard_normal(256)),
                     "g256.json")
    with open("g256.json", "rb") as fh:
        files["g256.json"] = fh.read()
    # Order 256, where the table_irreps kernels on one and on two threads first differ in their bits.
    g256 = relabelled(builtin_group("dihedral:128"), rng.permutation(256))
    ftio.save_group(g256, "file256.json")
    with open("file256.json", "rb") as fh:
        files["file256.json"] = fh.read()
    vector("eta256.json", g256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    eta256s = coset_average(g256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    vector("eta256s.json", g256, eta256s)
    files["sub256.json"] = json.dumps(
        {"group": g256.label, "vectors": [ftio.complex_to_json(eta256s)]}).encode()
    return files


#: The jobs compared, each with the files it writes; frame check reads the dual that frame dual wrote.
DETERMINISM_JOBS = [
    (["frame", "dual", "--window", "eta64.json", "--out-vector", "psi64.json", "--out", "dual64.json"],
     ["psi64.json", "dual64.json"]),
    (["frame", "check", "--window", "eta64.json", "--pair", "eta64.json", "psi64.json",
      "--out", "check64.json"], ["check64.json"]),
    (["frame", "dual", "--window", "eta48.json", "--subspace", "sub48.json", "--out-vector", "psi48.json",
      "--out", "dual48.json"], ["psi48.json", "dual48.json"]),
    (["group", "analyze", "--builtin", "dihedral:128", "--seed", "7", "--out", "group.json"],
     ["group.json"]),
    (["gabor", "dual", "--L", "256", "--a", "8", "--b", "8", "--window", "g256.json",
      "--out-window", "gamma256.json", "--out", "gdual.json"], ["gamma256.json", "gdual.json"]),
    (["gabor", "bridge", "--L", "48", "--a", "4", "--b", "4", "--seed", "7", "--out", "bridge.json"],
     ["bridge.json"]),
    (["frame", "dual", "--window", "eta256.json", "--group-file", "file256.json",
      "--out-vector", "psi256.json", "--out", "dual256.json"], ["psi256.json", "dual256.json"]),
    (["frame", "tighten", "--window", "eta256.json", "--group-file", "file256.json",
      "--out-vector", "tight256.json", "--out", "tighten256.json"], ["tight256.json", "tighten256.json"]),
    (["frame", "dual", "--window", "eta256s.json", "--group-file", "file256.json", "--subspace",
      "sub256.json", "--out-vector", "psi256s.json", "--out", "dual256s.json"],
     ["psi256s.json", "dual256s.json"]),
    (["frame", "decompose", "--window", "eta256s.json", "--group-file", "file256.json", "--subspace",
      "sub256.json", "--out", "decompose256s.json"], ["decompose256s.json"]),
]


def test_reports_do_not_depend_on_the_starting_thread_count(blas_get, monkeypatch, tmp_path):
    (tmp_path / "inputs").mkdir()
    monkeypatch.chdir(tmp_path / "inputs")
    inputs = _determinism_inputs()
    set_ = cli._openblas()[1]
    outputs = {}
    for start in (1, 2):
        set_(start)
        cli._openblas.cache_clear()  # so that no lookup holds a count from before
        assert blas_get() == start
        run_dir = tmp_path / f"start{start}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        for name, data in inputs.items():
            (run_dir / name).write_bytes(data)
        for argv, written in DETERMINISM_JOBS:
            assert cli.main(argv) == 0, argv
            assert blas_get() == start, argv
            for name in written:
                outputs.setdefault(name, []).append((run_dir / name).read_bytes())
    for name, (one, two) in outputs.items():
        assert one == two, name
