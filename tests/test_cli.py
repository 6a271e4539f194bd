"""CLI integration tests: exit codes, report schema, determinism."""
import builtins
import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from frametrace import groups
from frametrace import io as ftio
from frametrace.cli import main
from frametrace.frames import (
    CoefficientOperator,
    InvariantProjection,
    admissible_vector_for_projection,
    canonical_dual,
    frame_operator,
    projection_from_spanning,
    tighten,
)
from frametrace.gabor import (
    GaborSystem,
    gabor_canonical_dual,
    reference_window,
    wr_fundamental_relation_check,
)
from frametrace.groups import GroupVector, builtin_group, delta, left_regular_rep
from frametrace.plancherel import IrrepTable, builtin_irreps, table_irreps, validate_irreps
from frametrace.reporting import CheckResult, RunReport, digest_text, report_dumps

from oracles import coset_average, regular_coefficient_matrix, relabelled


def run(args, capsys=None):
    code = main(args)
    return code


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_group_analyze_builtin(tmp_path):
    out = tmp_path / "r.json"
    assert run(["group", "analyze", "--builtin", "dihedral:4", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["overall_pass"] is True
    assert rep["metadata"]["commutant_dim"] == 8
    assert [c["name"] for c in rep["checks"]] == ["parseval_sampled"]
    assert all(c["pass"] for c in rep["checks"])


#: Builtin groups whose ``group analyze`` reads no Cayley table: products, and heisenberg:8, which has no
#: builtin irreps (8 is not prime), up to order 512.
UNTABLED_SPECS = ["cyclic:2 x dihedral:128", "cyclic:3 x cyclic:4 x dihedral:5", "heisenberg:3 x cyclic:2",
                  "heisenberg:8", "dihedral:256", "cyclic:512"]


@pytest.mark.parametrize("spec", UNTABLED_SPECS)
def test_group_analyze_builtin_writes_no_table(tmp_path, monkeypatch, spec):
    # Its checks read the order, the irreps and the Plancherel kernel, all from the factor formulas.
    # Its report is the same bytes as a run whose group had its table and inverses written first.
    forced, lazy = tmp_path / "forced.json", tmp_path / "lazy.json"
    real = groups.builtin_group

    def built_with_table(s):
        g = real(s)
        assert g.cayley is not None and g.inverses is not None
        return g

    monkeypatch.setattr("frametrace.cli.builtin_group", built_with_table)
    assert run(["group", "analyze", "--builtin", spec, "--seed", "5", "--out", str(forced)]) == 0
    monkeypatch.undo()

    def refused(factors):
        raise AssertionError(f"table of {factors} written")

    monkeypatch.setattr(groups, "_spec_table", refused)
    assert run(["group", "analyze", "--builtin", spec, "--seed", "5", "--out", str(lazy)]) == 0
    assert lazy.read_bytes() == forced.read_bytes()


@pytest.mark.parametrize("spec", ["cyclic:2x", "xcyclic:2", "cyclic:\u0663"])
def test_group_analyze_malformed_spec_exits_2(tmp_path, capsys, spec):
    # Each used to run as cyclic:2 or cyclic:3 and exit 0.
    out = tmp_path / "r.json"
    assert run(["group", "analyze", "--builtin", spec, "--out", str(out)]) == 2
    assert "group spec" in capsys.readouterr().err
    assert not out.exists()


def test_group_analyze_heisenberg_1_has_builtin_irreps(tmp_path):
    # heisenberg:1 is the trivial group; it used to report "irreps": "unavailable" and no checks.
    out = tmp_path / "r.json"
    assert run(["group", "analyze", "--builtin", "heisenberg:1", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["metadata"]["irreps"] == 1 and rep["metadata"]["irrep_dims"] == [1]
    assert [c["name"] for c in rep["checks"]] == ["parseval_sampled"]


def test_group_analyze_cyclic6_characters(tmp_path):
    out = tmp_path / "r.json"
    assert run(["group", "analyze", "--builtin", "cyclic:6", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["metadata"]["irreps"] == 6
    assert rep["metadata"]["irrep_dims"] == [1] * 6


def test_group_analyze_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "order": 2, "cayley": [[0, 1], [1, 1]]}))
    assert run(["group", "analyze", "--file", str(bad)]) == 2
    assert "Latin" in capsys.readouterr().err


def _drop_last_irrep(obj):
    obj["irreps"].pop()


def _sgn_as_triv(obj):
    by_label = {item["label"]: item for item in obj["irreps"]}
    by_label["sgn"]["matrices"] = by_label["triv"]["matrices"]


def _ragged_matrix(obj):
    rho = next(item for item in obj["irreps"] if item["dim"] == 2)
    rho["matrices"][3][1].pop()  # one row of one 2x2 matrix has a single entry


def _swap_rho1_off_generators(obj):
    # Two elements that are neither generators nor the identity: the generator
    # check sees the swap only through the pairs (x, s) whose product xs is one of them.
    group = builtin_group("dihedral:4")
    x, y = [e for e in group.elements() if e != group.identity and e not in group.generators][:2]
    rho = next(item for item in obj["irreps"] if item["label"] == "rho1")
    rho["matrices"][x], rho["matrices"][y] = rho["matrices"][y], rho["matrices"][x]


@pytest.mark.parametrize(
    "corrupt, code, message",
    [
        (None, 0, None),
        (_swap_rho1_off_generators, 2, "not a homomorphism"),  # NotHomomorphism
        (_drop_last_irrep, 2, "sum of squared dims"),  # NotComplete
        (_sgn_as_triv, 2, "are equivalent"),  # NotInequivalent
        (_ragged_matrix, 2, "bad complex array"),  # MalformedInput
    ],
)
def test_group_analyze_irreps_file(tmp_path, capsys, corrupt, code, message):
    irreps, out = tmp_path / "irr.json", tmp_path / "r.json"
    ftio.save_irreps(builtin_irreps(builtin_group("dihedral:4")), irreps)
    if corrupt is not None:
        obj = read_report(irreps)
        corrupt(obj)
        irreps.write_text(json.dumps(obj))
    argv = ["group", "analyze", "--builtin", "dihedral:4", "--irreps", str(irreps), "--out", str(out)]
    assert run(argv) == code
    if message is not None:
        assert message in capsys.readouterr().err
        return
    rep = read_report(out)
    assert rep["metadata"]["irreps"] == 5
    assert rep["metadata"]["irrep_dims"] == [1, 1, 1, 1, 2]
    assert "irreps" in rep["inputs"]
    assert all(c["pass"] for c in rep["checks"])


_IRREPS_ARGV = ["group", "analyze", "--builtin", "cyclic:2", "--irreps"]
# Files that match their schema except in the one field each case below changes.
_WINDOW = {"L": 16, "a": 4, "b": 2, "window": [[np.sqrt(2 / 16), 0.0]] * 4 + [[0.0, 0.0]] * 12}
_WR_ARGV = ["gabor", "wexler-raz", "--L", "16", "--a", "4", "--b", "2", "--candidate", "v.json", "--window"]
_Z1 = {"label": "x", "order": 1, "cayley": [[0]]}
_IRREP = {"label": "a", "dim": 1, "matrices": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        (5, ["group", "analyze", "--file"], "expected a JSON object, got int"),
        (None, ["group", "analyze", "--file"], "expected a JSON object, got NoneType"),
        ([1, 2], ["frame", "dual", "--window"], "expected a JSON object, got list"),
        ({"data": [[1.0, 0.0]]}, ["frame", "dual", "--window"], "missing field 'group'"),
        (
            {"label": "x", "order": [1], "cayley": [[0]]},
            ["group", "analyze", "--file"],
            "field 'order' is not an integer",
        ),
        (
            {"L": [4], "a": 1, "b": 1, "window": []},
            ["gabor", "dual", "--L", "4", "--a", "1", "--b", "1", "--window"],
            "field 'L' is not an integer",
        ),
        (
            {"group": "cyclic:2", "irreps": [{"label": "a", "dim": None, "matrices": []}]},
            _IRREPS_ARGV,
            "field 'dim' is not an integer",
        ),
        ({"group": "cyclic:2", "irreps": 5}, _IRREPS_ARGV, "field 'irreps' is not a list"),
        # Integer fields take JSON integers only: no float, string or bool is coerced.
        ({**_WINDOW, "L": 16.7}, _WR_ARGV, "field 'L' is not an integer: 16.7"),
        ({**_WINDOW, "L": "16"}, _WR_ARGV, "field 'L' is not an integer: '16'"),
        ({**_WINDOW, "a": 4.0}, _WR_ARGV, "field 'a' is not an integer: 4.0"),
        ({**_WINDOW, "b": True}, _WR_ARGV, "field 'b' is not an integer: True"),
        ({**_Z1, "order": 1.9}, ["group", "analyze", "--file"], "field 'order' is not an integer: 1.9"),
        ({**_Z1, "order": "1"}, ["group", "analyze", "--file"], "field 'order' is not an integer: '1'"),
        # A table that is not a group names its file, as every other malformed input does.
        (
            {"label": "x", "order": 2, "cayley": [[0, 0], [1, 1]]},
            ["group", "analyze", "--file"],
            "input.json: Latin square property fails",
        ),
        (
            {"group": "cyclic:2", "irreps": [{**_IRREP, "dim": 1.0}]},
            _IRREPS_ARGV,
            "field 'dim' is not an integer: 1.0",
        ),
        (
            {"group": "cyclic:2", "vectors": 5},
            ["frame", "dual", "--builtin", "cyclic:2", "--window", "v.json", "--subspace"],
            "field 'vectors' is not a list",
        ),
    ],
)
def test_wrong_json_type_exits_2(tmp_path, capsys, monkeypatch, payload, argv, message):
    monkeypatch.chdir(tmp_path)
    ftio.save_vector(GroupVector(builtin_group("cyclic:2"), [1.0, 0.0]), "v.json")
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert run([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_parser_is_built_once_and_dispatch_is_looked_up_per_call(monkeypatch):
    import frametrace.cli as cli

    assert run(["group", "analyze", "--builtin", "cyclic:2"]) == 0
    parser = cli._parser()
    monkeypatch.setattr(cli, "cmd_group", lambda args: 7)
    assert run(["group", "analyze", "--builtin", "cyclic:2"]) == 7
    assert cli._parser() is parser


def test_group_analyze_missing_source():
    assert run(["group", "analyze"]) == 2


def test_frame_dual_and_check_roundtrip(tmp_path):
    g = builtin_group("dihedral:3")
    rng = np.random.default_rng(7)
    eta = GroupVector(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    eta_path = tmp_path / "eta.json"
    ftio.save_vector(eta, eta_path)
    psi_path = tmp_path / "psi.json"
    out = tmp_path / "dual.json"
    code = run(
        [
            "frame",
            "dual",
            "--window",
            str(eta_path),
            "--out-vector",
            str(psi_path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = read_report(out)
    assert rep["overall_pass"] is True

    out2 = tmp_path / "check.json"
    code = run(
        [
            "frame",
            "check",
            "--window",
            str(eta_path),
            "--pair",
            str(eta_path),
            str(psi_path),
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    rep2 = read_report(out2)
    names = [c["name"] for c in rep2["checks"]]
    assert "admissible_pair" in names
    assert "tracial_pair" in names
    assert "fiber_admissibility" in names
    assert rep2["overall_pass"] is True


def test_frame_files_may_spell_the_builtin_spec_their_own_way(tmp_path):
    """A window naming its group "cyclic:2xdihedral:3" builds that group, whose label is "cyclic:2 x dihedral:3";
    the window, the written dual, a subspace and an irreps file in either spelling all belong to it."""
    group = builtin_group("cyclic:2 x dihedral:3")
    rng = np.random.default_rng(11)
    data = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    eta, psi, sub = tmp_path / "eta.json", tmp_path / "psi.json", tmp_path / "sub.json"
    eta.write_text(json.dumps({"group": "cyclic:2xdihedral:3", "data": ftio.complex_to_json(data)}))
    sub.write_text(json.dumps({"group": " cyclic:2 x  dihedral:3", "vectors": [ftio.complex_to_json(data)]}))
    assert run(["frame", "dual", "--window", str(eta), "--out-vector", str(psi),
                "--out", str(tmp_path / "d.json")]) == 0
    assert ftio.load_label(psi) == group.label
    assert run(["frame", "check", "--window", str(eta), "--pair", str(eta), str(psi),
                "--out", str(tmp_path / "c.json")]) == 0
    assert [v.data.tolist() for v in ftio.load_vectors(sub, group)] == [data.tolist()]
    irreps = tmp_path / "irreps.json"
    ftio.save_irreps(builtin_irreps(group), irreps)
    irreps.write_text(irreps.read_text().replace(group.label, "cyclic:2xdihedral:3"))
    assert run(["group", "analyze", "--builtin", group.label, "--irreps", str(irreps),
                "--out", str(tmp_path / "a.json")]) == 0
    # Another group, a label that is no spec, and a file group under a respelled label are still refused.
    for label, target in (("dihedral:3 x cyclic:2", group), ("cyclic:2 x", group), (7, group),
                          ("cyclic:2xdihedral:3", relabelled(group, np.arange(12), label=group.label))):
        eta.write_text(json.dumps({"group": label, "data": ftio.complex_to_json(data)}))
        with pytest.raises(ftio.MalformedInput, match="belongs to group"):
            ftio.load_vector(eta, target)


#: Relative bound on |frame dual|tighten output - oracle| for windows of frame-bounds ratio >= 1e-3,
#: i.e. cond(S) <= 1e3: both sides solve with S = V^* V to about cond(S) * eps = 2.2e-13.  Measured
#: worst case of the test below: 3.8e-14 (dual, cyclic:512, seed 3, ratio 2.8e-3).
FRAME_VECTOR_RTOL = 1e-12


@pytest.mark.parametrize(
    "spec", ["dihedral:8", "heisenberg:3", "dihedral:16", "dihedral:32", "cyclic:3 x dihedral:8",
             "dihedral:128", "cyclic:512"],
)
def test_full_space_frame_vectors_agree_with_the_coefficient_operator_oracle(tmp_path, spec):
    """``frame dual|tighten`` invert S = R_(eta* * eta); the former path inverted V^* V, with V the
    n x n analysis matrix (``oracles.regular_coefficient_matrix``), through ``canonical_dual`` and
    ``tighten``.  The written vectors agree to FRAME_VECTOR_RTOL, not byte for byte."""
    g = builtin_group(spec)
    eta_path, out = tmp_path / "eta.json", tmp_path / "out.json"
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        eta = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        eta[g.identity] += 3 * np.sqrt(g.order)  # eta^(sigma) = 3 sqrt|G| Id + noise of about that size
        v = CoefficientOperator(matrix=regular_coefficient_matrix(g, eta), identity=g.identity)
        w = np.linalg.eigvalsh(frame_operator(v))
        assert w[0] >= 1e-3 * w[-1], (seed, w[0] / w[-1])
        ftio.save_vector(GroupVector(g, eta), eta_path)
        for action, solve in (("dual", canonical_dual), ("tighten", tighten)):
            argv = ["frame", action, "--window", str(eta_path), "--out-vector", str(out),
                    "--out", str(tmp_path / "r.json")]
            assert run(argv) == 0
            expect = solve(v)
            got = ftio.load_vector(out, g).data
            assert np.linalg.norm(got - expect) <= FRAME_VECTOR_RTOL * np.linalg.norm(expect), (seed, action)


def test_frame_check_failing_pair(tmp_path):
    g = builtin_group("cyclic:4")
    e = delta(g, g.identity)
    bad = GroupVector(g, 2 * e.data)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    ftio.save_vector(e, p1)
    ftio.save_vector(bad, p2)
    assert (
        run(["frame", "check", "--window", str(p1), "--pair", str(p1), str(p2)]) == 1
    )


def test_frame_check_requires_pair(tmp_path):
    g = builtin_group("cyclic:2")
    p1 = tmp_path / "a.json"
    ftio.save_vector(delta(g, 0), p1)
    assert run(["frame", "check", "--window", str(p1)]) == 2


def test_frame_decompose_identity(tmp_path):
    g = builtin_group("cyclic:2")
    e = delta(g, g.identity)
    p1 = tmp_path / "w.json"
    ftio.save_vector(e, p1)
    out = tmp_path / "r.json"
    assert run(["frame", "decompose", "--window", str(p1), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["metadata"]["rank_measure"] == pytest.approx(1.0)
    assert sorted(rep["metadata"]["fiber_ranks"].values()) == [1, 1]


def test_frame_decompose_subspace(tmp_path):
    g = builtin_group("cyclic:2")
    p1 = tmp_path / "w.json"
    ftio.save_vector(delta(g, 0), p1)
    sub = tmp_path / "sub.json"
    sub.write_text(
        json.dumps({"group": "cyclic:2", "vectors": [[[1.0, 0.0], [1.0, 0.0]]]})
    )
    out = tmp_path / "r.json"
    code = run(
        ["frame", "decompose", "--window", str(p1), "--subspace", str(sub), "--out", str(out)]
    )
    assert code == 0
    assert read_report(out)["metadata"]["rank_measure"] == pytest.approx(0.5)


def test_frame_dual_non_frame_vector(tmp_path):
    g = builtin_group("cyclic:2")
    # constant vector spans only the trivial component: not a frame for l2(G)
    v = GroupVector(g, np.ones(2, dtype=complex))
    p1 = tmp_path / "w.json"
    ftio.save_vector(v, p1)
    out = tmp_path / "r.json"
    assert run(["frame", "dual", "--window", str(p1), "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["checks"][0]["name"] == "dual_not_a_frame"
    assert rep["overall_pass"] is False


def test_gabor_reference_and_wexler_raz(tmp_path):
    ref = tmp_path / "ref.json"
    out = tmp_path / "r.json"
    code = run(
        [
            "gabor",
            "reference",
            "--L", "12", "--a", "3", "--b", "2",
            "--out-window", str(ref),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert read_report(out)["checks"][0]["name"] == "reference_window_tight"

    out2 = tmp_path / "wr.json"
    code = run(
        [
            "gabor",
            "wexler-raz",
            "--L", "12", "--a", "3", "--b", "2",
            "--window", str(ref),
            "--candidate", str(ref),
            "--out", str(out2),
        ]
    )
    assert code == 0
    rep = read_report(out2)
    assert rep["metadata"]["wexler_raz_constant"] == pytest.approx(0.5)
    assert rep["overall_pass"] is True


def test_gabor_dual_not_a_frame(tmp_path):
    rng = np.random.default_rng(9)
    sys_ = GaborSystem(L=4, a=2, b=4, window=rng.standard_normal(4))
    w = tmp_path / "w.json"
    ftio.save_window(sys_, w)
    out = tmp_path / "r.json"
    code = run(
        ["gabor", "dual", "--L", "4", "--a", "2", "--b", "4", "--window", str(w), "--out", str(out)]
    )
    assert code == 1
    rep = read_report(out)
    assert rep["checks"][0]["name"] == "dual_not_a_frame"


def test_gabor_bridge(tmp_path, monkeypatch):
    import frametrace.cli as cli
    import frametrace.gabor as gabor
    import frametrace.groups as groups

    build, builds = gabor.wh_group_build, []
    validate, tables = groups.group_from_cayley, []

    def counted(*args):
        builds.append(args)
        return build(*args)

    def counted_tables(*args, **kwargs):
        tables.append(args)
        return validate(*args, **kwargs)

    for module in (cli, gabor):
        monkeypatch.setattr(module, "wh_group_build", counted)
    for module in (gabor, groups):
        monkeypatch.setattr(module, "group_from_cayley", counted_tables)
    out = tmp_path / "r.json"
    code = run(["gabor", "bridge", "--L", "12", "--a", "3", "--b", "2", "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    assert builds == [(12, 3, 2)]
    assert tables == []  # the bridge builds no Cayley table
    rep = read_report(out)
    assert rep["metadata"]["wh_order"] == 48
    assert rep["metadata"]["wh_central_order"] == 2
    axioms = rep["checks"][0]
    assert axioms["name"] == "wh_group_axioms" and axioms["tol"] == 1e-10
    assert axioms["residual"] <= 1e-13


def _count_calls(monkeypatch, modules, name):
    """Replace ``name`` in each module by one counting wrapper; the list of its calls."""
    func, calls = getattr(modules[0], name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("lattice, bad", [((4, 2, 4), None), ((32, 4, 4), 0)])
def test_failed_gabor_dual_builds_one_spectrum(tmp_path, monkeypatch, lattice, bad):
    """The ratio comes from the singular values the dual already computed: one block build, one SVD."""
    import frametrace.gabor as gabor
    import frametrace.numerics as numerics

    window = np.random.default_rng(9).standard_normal(lattice[0])
    if bad is not None:
        window[bad :: lattice[1]] = 0.0  # zero on a residue class mod a: no frame
    sys_ = GaborSystem(*lattice, window=window)
    w, out = tmp_path / "w.json", tmp_path / "r.json"
    ftio.save_window(sys_, w)
    blocks = _count_calls(monkeypatch, [gabor], "_zak_blocks")
    solves = _count_calls(monkeypatch, [numerics, gabor], "frame_duals")
    flags = [str(x) for pair in zip(("--L", "--a", "--b"), lattice) for x in pair]
    assert run(["gabor", "dual", *flags, "--window", str(w), "--out", str(out)]) == 1
    assert len(blocks) == 1 and len(solves) == 1
    monkeypatch.undo()
    rep = read_report(out)
    assert rep["checks"][0]["name"] == "dual_not_a_frame"
    assert rep["metadata"]["frame_bounds_ratio"] == gabor.frame_bounds_ratio(sys_)


@pytest.mark.parametrize(
    "lattice, bad, code, shape",
    [((512, 8, 8), None, 0, (64, 1, 8)), ((512, 8, 8), 3, 1, (64, 1, 8)),
     ((48, 16, 4), None, 1, (4, 4, 3))],  # ab > L: no frame
)
def test_gabor_dual_factors_only_the_distinct_classes(tmp_path, monkeypatch, lattice, bad, code, shape):
    """Only the c = gcd(L/b, a) Walnut factors G_r, r < c, are distinct: one FFT of the window gives them as
    e = gcd(L/a, b) Zak blocks each, a stack of shape (c e, b/e, L/(a e)), not L/b factors of size b x L/a.
    For ab > L each block has more rows than columns; ``frame_duals`` refuses it."""
    import frametrace.gabor as gabor
    import frametrace.numerics as numerics

    length, a, b = lattice
    window = np.random.default_rng(10).standard_normal(length)
    if bad is not None:
        window[bad::a] = 0.0
    w = tmp_path / "w.json"
    ftio.save_window(GaborSystem(*lattice, window=window), w)
    solves = _count_calls(monkeypatch, [numerics, gabor], "frame_duals")
    flags = [str(x) for pair in zip(("--L", "--a", "--b"), lattice) for x in pair]
    assert run(["gabor", "dual", *flags, "--window", str(w), "--out", str(tmp_path / "r.json")]) == code
    c, e = math.gcd(length // b, a), math.gcd(length // a, b)
    assert (c * e, b // e, length // (a * e)) == shape
    assert [[f.shape for f in args[0]] for args in solves] == [[shape]]


def test_gabor_bridge_builds_its_operator_arrays_once(tmp_path, monkeypatch):
    import frametrace.gabor as gabor

    calls = _count_calls(monkeypatch, [gabor], "_wh_operators")
    out = tmp_path / "r.json"
    assert run(["gabor", "bridge", "--L", "12", "--a", "3", "--b", "2", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert [c["name"] for c in read_report(out)["checks"]] == ["wh_group_axioms", "wh_bridge"]


def test_gabor_bridge_above_order_512_passes(tmp_path):
    # (48/3)(48/4)(48/gcd(48, 12)) = 768 elements, above MAX_ORDER: the bridge holds (768, 48)
    # operator arrays, 768 x 48 = 36 864 entries, and no Cayley table.
    out = tmp_path / "r.json"
    assert run(["gabor", "bridge", "--L", "48", "--a", "4", "--b", "3", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["metadata"]["wh_order"] == 768
    assert [c["name"] for c in rep["checks"]] == ["wh_group_axioms", "wh_bridge"]


def test_gabor_bridge_above_the_order_cap_exits_2_before_any_array(capsys):
    # (96/4)(96/4)(96/gcd(96, 16)) = 3456 elements on C^96: 331 776 entries per operator array, above
    # MAX_ORDER^2 = 262 144, refused from (L, a, b) alone.
    code, peak = _traced_peak_mib(["gabor", "bridge", "--L", "96", "--a", "4", "--b", "4"])
    assert code == 2 and peak < 1, peak
    assert "order 3456 x L = 331776 exceeds the supported maximum 262144" in capsys.readouterr().err


def test_gabor_malformed_window(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text("{not json")
    assert (
        run(["gabor", "dual", "--L", "4", "--a", "2", "--b", "2", "--window", str(w)]) == 2
    )


def test_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["group", "analyze", "--builtin", "heisenberg:2", "--seed", "5"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tol_flag_sets_the_run_tolerance(tmp_path):
    out = tmp_path / "r.json"
    # an absurd tolerance makes the sampled residuals fail
    assert run(["group", "analyze", "--builtin", "cyclic:3", "--tol", "1e-30", "--out", str(out)]) == 1
    assert run(["group", "analyze", "--builtin", "cyclic:3", "--tol", "1e-9", "--out", str(out)]) == 0


@pytest.mark.parametrize("flag", ["-1", "0", "nan", "inf"])
def test_tol_flag_must_be_finite_and_positive(tmp_path, flag, capsys):
    out = tmp_path / "r.json"
    args = ["group", "analyze", "--builtin", "cyclic:3", "--out", str(out)]
    assert run(args + ["--tol", flag]) == 2
    assert "tolerance must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


def test_report_refuses_non_finite_numbers():
    rep = RunReport()
    rep.add(CheckResult(name="nan", residual=float("nan"), tol=1e-9))
    with pytest.raises(ValueError):
        report_dumps(rep)


def test_group_analyze_file_table_contradicting_label(tmp_path):
    klein = tmp_path / "klein.json"
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    out = tmp_path / "r.json"
    # A label naming another group, a spec that is no group, and specs above the
    # order limit (heisenberg:100 would be a 10^6 x 10^6 table).
    for label in ("cyclic:4", "cyclic:0", "cyclic:1000", "heisenberg:100"):
        klein.write_text(json.dumps({"label": label, "order": 4, "cayley": table}))
        assert run(["group", "analyze", "--file", str(klein), "--out", str(out)]) == 0, label
        rep = read_report(out)
        assert rep["metadata"]["irreps"] == "unavailable"
        # The table was validated on load, and without irreps nothing is left to check.
        assert rep["checks"] == [] and rep["overall_pass"] is True


def _traced_peak_mib(argv) -> tuple[int, float]:
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak / 2 ** 20


def test_order_512_frame_and_group_analyze_stay_quadratic(tmp_path):
    # Orders the README promises.  The dense n x n x n tensor of the regular
    # representation alone takes 2 GiB at order 512 and 256 MiB at order 256.
    n = 256
    label = f"dihedral:{n}"
    # x -> x s for the reflection s = index n: r^i s = s r^-i, (s r^i) s = r^-i.
    i = np.arange(n)
    times_s = np.concatenate([n + (-i % n), -i % n])
    rng = np.random.default_rng(12)
    f = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    window = f + f[times_s]  # in the invariant subspace {f : f(x s) = f(x)}
    spanning = np.zeros(2 * n, dtype=complex)
    spanning[[0, n]] = 1.0  # delta_e + delta_s, whose orbit spans that subspace

    def pairs(v):
        return np.stack([v.real, v.imag], axis=1).tolist()

    eta, sub, psi = tmp_path / "eta.json", tmp_path / "sub.json", tmp_path / "psi.json"
    eta.write_text(json.dumps({"group": label, "data": pairs(window)}))
    sub.write_text(json.dumps({"group": label, "vectors": [pairs(spanning)]}))
    code, peak = _traced_peak_mib(
        ["frame", "dual", "--window", str(eta), "--subspace", str(sub),
         "--out-vector", str(psi), "--out", str(tmp_path / "dual.json")]
    )
    assert code == 0 and peak < 200, peak
    code, peak = _traced_peak_mib(
        ["frame", "check", "--window", str(eta), "--subspace", str(sub),
         "--pair", str(eta), str(psi), "--out", str(tmp_path / "check.json")]
    )
    assert code == 0 and peak < 200, peak
    checks = [c["name"] for c in read_report(tmp_path / "check.json")["checks"]]
    assert checks == ["admissible_pair", "tracial_pair", "fiber_admissibility"]
    for spec, order in (("dihedral:128", 256), ("dihedral:256", 512), ("cyclic:512", 512)):
        out = tmp_path / "g.json"
        code, peak = _traced_peak_mib(["group", "analyze", "--builtin", spec, "--out", str(out)])
        assert code == 0 and peak < 200, (spec, peak)
        assert read_report(out)["metadata"]["order"] == order
    # What group analyze --irreps verifies, without the JSON round trip.
    for spec in ("dihedral:256", "cyclic:512"):
        group = builtin_group(spec)
        table = builtin_irreps(group)
        assert validate_irreps(group, table.irreps).degrees == table.degrees


def test_gabor_walnut_jobs_stay_small_at_L2048(tmp_path):
    # a b = 1024 adjoint lattice operators of size 2048 x 2048 would take
    # 64 GiB as dense matrices; the Walnut blocks read one b x a correlation array, O(b L).
    length, a, b = 2048, 32, 32
    lat = ["--L", str(length), "--a", str(a), "--b", str(b)]
    rng = np.random.default_rng(2048)
    g = (rng.standard_normal(length) + 1j * rng.standard_normal(length)) / np.sqrt(length)
    window, gamma = tmp_path / "g.json", tmp_path / "gamma.json"
    ftio.save_window(GaborSystem(L=length, a=a, b=b, window=g), window)
    code, peak = _traced_peak_mib(
        ["gabor", "dual", *lat, "--window", str(window), "--out-window", str(gamma),
         "--out", str(tmp_path / "dual.json")]
    )
    assert code == 0 and peak < 64, peak
    code, peak = _traced_peak_mib(
        ["gabor", "wexler-raz", *lat, "--window", str(window), "--candidate", str(gamma),
         "--out", str(tmp_path / "wr.json")]
    )
    assert code == 0 and peak < 64, peak
    checks = [c["name"] for c in read_report(tmp_path / "wr.json")["checks"]]
    assert checks == ["wexler_raz", "reconstruction_crosscheck"]
    # The lattice-swap relation, as Walnut forms on both lattices; each dense
    # analysis map of the lattice itself would take 128 MiB here.
    f, h = (rng.standard_normal(length) / np.sqrt(length) for _ in range(2))
    tracemalloc.start()
    try:
        relation = wr_fundamental_relation_check(length, a, b, f, g, h)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert relation.passed and peak < 64, (relation.residual, peak)


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    import frametrace.cli as cli

    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB")

    monkeypatch.setattr(cli, "gabor_reconstruction_check", too_big)
    out = tmp_path / "r.json"
    assert run(["gabor", "reference", "--L", "12", "--a", "3", "--b", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert not out.exists()


def test_group_analyze_parseval_fails_on_a_scaled_kernel_column(tmp_path, monkeypatch):
    import frametrace.cli as cli

    def scaled(group):
        table = builtin_irreps(group)
        kernel = table.kernel.copy()
        kernel[:, -1] *= 1.5  # no longer unitary: Parseval's sum misweighs that coefficient
        return IrrepTable(group, table.labels, table.degrees, kernel)

    monkeypatch.setattr(cli, "builtin_irreps", scaled)
    out = tmp_path / "r.json"
    assert run(["group", "analyze", "--builtin", "dihedral:4", "--out", str(out)]) == 1
    (check,) = read_report(out)["checks"]
    assert check["name"] == "parseval_sampled" and check["pass"] is False


def test_memory_error_while_validating_irreps_exits_2(tmp_path, monkeypatch, capsys):
    irreps = tmp_path / "irreps.json"
    ftio.save_irreps(builtin_irreps(builtin_group("dihedral:3")), irreps)

    def simulated(self, tol=None):
        raise MemoryError("simulated")

    monkeypatch.setattr(groups.Rep, "validate", simulated)
    assert run(["group", "analyze", "--builtin", "dihedral:3", "--irreps", str(irreps)]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory")


@pytest.mark.parametrize("source", ["relabelled", "heisenberg:8"])
def test_frame_decompose_without_builtin_irreps_reads_them_off_the_table(tmp_path, capsys, source):
    # Two valid groups without builtin irreps: dihedral:3 with its elements relabelled, a group file
    # that no builtin spec names, and heisenberg:8, whose modulus is not prime.  decompose reads the
    # irreps off the Cayley table: the window delta_e spans all of l2(G), so every fiber has full rank.
    window, out = tmp_path / "w.json", tmp_path / "r.json"
    if source == "relabelled":
        perm = np.array([0, 2, 1, 4, 3, 5])
        inv = np.argsort(perm)
        table = perm[builtin_group("dihedral:3").cayley[inv][:, inv]]
        group_file = tmp_path / "g.json"
        group_file.write_text(json.dumps({"label": "relabelled", "order": 6, "cayley": table.tolist()}))
        window.write_text(json.dumps({"group": "relabelled", "data": [[1.0, 0.0]] * 6}))
        flag = ["--group-file", str(group_file)]
    else:
        g = builtin_group(source)
        ftio.save_vector(delta(g, g.identity), window)
        flag = ["--builtin", source]
    assert run(["frame", "decompose", "--window", str(window), *flag, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = read_report(out)
    table = table_irreps(ftio.load_group(group_file) if source == "relabelled" else g)
    assert rep["metadata"]["fiber_ranks"] == dict(zip(table.labels, table.degrees))
    assert rep["metadata"]["rank_measure"] == pytest.approx(1.0, abs=1e-12)
    assert [c["name"] for c in rep["checks"]] == ["rank_measure_vs_trace"] and rep["overall_pass"] is True


def test_report_overall_pass_logic():
    rep = RunReport()
    assert rep.overall_pass is True
    rep.add(CheckResult(name="ok", residual=0.0, tol=1e-9))
    assert rep.overall_pass is True
    rep.add(CheckResult(name="bad", residual=1.0, tol=1e-9))
    assert rep.overall_pass is False


def test_io_schema_errors(tmp_path):
    g = builtin_group("cyclic:2")
    p = tmp_path / "v.json"
    p.write_text(json.dumps({"group": "cyclic:2", "data": [[0.0, 0.0]]}))
    with pytest.raises(ftio.MalformedInput):
        ftio.load_vector(p, g)
    p.write_text(json.dumps({"group": "cyclic:3", "data": [[0.0, 0.0], [0.0, 0.0]]}))
    with pytest.raises(ftio.MalformedInput):
        ftio.load_vector(p, g)
    p.write_text(json.dumps({"data": [[0.0, 0.0], [0.0, 0.0]]}))
    with pytest.raises(ftio.MalformedInput):
        ftio.load_vector(p, g)


def test_io_vector_roundtrip(tmp_path):
    g = builtin_group("dihedral:3")
    rng = np.random.default_rng(3)
    v = GroupVector(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    p = tmp_path / "v.json"
    ftio.save_vector(v, p)
    back = ftio.load_vector(p, g)
    assert np.allclose(back.data, v.data)


def test_io_group_roundtrip(tmp_path):
    g = builtin_group("dihedral:4")
    p = tmp_path / "g.json"
    ftio.save_group(g, p)
    back = ftio.load_group(p)
    assert back == g


def test_io_irreps_roundtrip(tmp_path):
    g = builtin_group("dihedral:3")
    table = builtin_irreps(g)
    p = tmp_path / "irr.json"
    ftio.save_irreps(table, p)
    back = ftio.load_irreps(p, g)
    assert back.degrees == table.degrees


def test_group_analyze_validates_supplied_irreps_at_the_run_tolerance(tmp_path, capsys):
    g = builtin_group("dihedral:8")
    table = builtin_irreps(g)
    path = tmp_path / "irr.json"
    ftio.save_irreps(table, path)
    doc = json.loads(path.read_text())
    k = table.degrees.index(2)
    x = next(x for x in g.elements() if x != g.identity and x not in g.generators)
    mats = ftio.complex_from_json(doc["irreps"][k]["matrices"])
    mats[x, :, 0] *= np.exp(1e-7j)  # sigma(x) diag(e^(i 1e-7), 1): unitary, a homomorphism to about 1e-7
    doc["irreps"][k]["matrices"] = ftio.complex_to_json(mats)
    path.write_text(json.dumps(doc))
    argv = ["group", "analyze", "--builtin", "dihedral:8", "--irreps", str(path), "--out", str(tmp_path / "r.json")]
    assert run(argv) == 2
    assert "not a homomorphism" in capsys.readouterr().err
    assert run(argv + ["--tol", "1e-6"]) == 0


def test_io_window_roundtrip(tmp_path):
    sys_ = GaborSystem(L=12, a=3, b=2, window=reference_window(12, 3, 2))
    p = tmp_path / "w.json"
    ftio.save_window(sys_, p)
    back = ftio.load_window(p)
    assert (back.L, back.a, back.b) == (12, 3, 2)
    assert np.allclose(back.window, sys_.window)


@pytest.mark.parametrize("spec", ["dihedral:8", "heisenberg:3"])
@pytest.mark.parametrize("action, solve", [("dual", canonical_dual), ("tighten", tighten)])
def test_subspace_outputs_agree_with_an_eigh_basis_oracle(tmp_path, spec, action, solve):
    # The CLI inverts the frame operator fiber by fiber on the orbit span of the subspace
    # vectors; the eigenvectors of p, as an orthonormal basis of that span, give the same vector.
    g = builtin_group(spec)
    rng = np.random.default_rng(31)
    s, powers = g.generators[-1], [g.identity]
    while g.mul(powers[-1], s) != g.identity:
        powers.append(g.mul(powers[-1], s))
    f = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    span = sum(f[g.cayley[:, t]] for t in powers)  # right-invariant under <s>: a proper subspace
    window = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    eta, sub, out = tmp_path / "eta.json", tmp_path / "sub.json", tmp_path / "out.json"
    ftio.save_vector(GroupVector(g, window), eta)
    sub.write_text(json.dumps({"group": spec, "vectors": [ftio.complex_to_json(span)]}))
    argv = ["frame", action, "--window", str(eta), "--subspace", str(sub), "--out-vector", str(out),
            "--out", str(tmp_path / "r.json")]
    assert run(argv) == 0
    got = ftio.load_vector(out, g).data
    q = projection_from_spanning(g, [span]).range_basis()  # the eigenvectors of R_h
    assert 0 < q.shape[1] < g.order
    v = CoefficientOperator(matrix=regular_coefficient_matrix(g, window) @ q, identity=g.identity)
    expect = q @ solve(v)
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("subspace", [False, True], ids=["full", "subspace"])
@pytest.mark.parametrize("source, action, dense", [
    ("builtin", "dual", 0), ("builtin", "tighten", 0), ("builtin", "check", 0), ("builtin", "decompose", 0),
    ("file", "dual", 1), ("file", "tighten", 1), ("file", "check", 1), ("file", "decompose", 1),
])
def test_frame_builds_a_dense_right_convolution_only_to_decompose_it(tmp_path, monkeypatch, source, action,
                                                                       dense, subspace):
    # p acts as v * h.  Every action and the --subspace projection work on the fibers.  With builtin
    # irreps a job builds no dense R_f.  The same group relabelled as a file group has no builtin irreps;
    # there the one dense R_f of a job is the R_a whose eigh splits l2(G) (plancherel.table_irreps).
    monkeypatch.chdir(tmp_path)
    g = builtin_group("dihedral:8")
    rng = np.random.default_rng(41)
    window = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    if subspace:
        window = coset_average(g, window)  # its orbit spans a proper invariant subspace
    flag = []
    if source == "file":
        perm = rng.permutation(g.order)
        g, window = relabelled(g, perm), window[np.argsort(perm)]
        ftio.save_group(g, "g.json")
        flag = ["--group-file", "g.json"]
    sub = []
    if subspace:
        spanning = {"group": g.label, "vectors": [ftio.complex_to_json(window)]}
        (tmp_path / "sub.json").write_text(json.dumps(spanning))
        sub = ["--subspace", "sub.json"]
    ftio.save_vector(GroupVector(g, window), "eta.json")
    argv = ["frame", "dual", "--window", "eta.json", *flag, *sub, "--out-vector", "psi.json", "--out", "d.json"]
    assert run(argv) == 0
    orig, calls = groups.convolution_operator, []

    def counting(f):
        calls.append(f.group.order)
        return orig(f)

    for name, mod in list(sys.modules.items()):
        if name == "frametrace" or name.startswith("frametrace."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counting)
    extra = {"dual": ["--out-vector", "out.json"], "tighten": ["--out-vector", "out.json"],
             "check": ["--pair", "eta.json", "psi.json"], "decompose": []}[action]
    assert run(["frame", action, "--window", "eta.json", *flag, *sub, *extra, "--out", "r.json"]) == 0
    assert len(calls) == dense


@pytest.mark.parametrize("subspace", [False, True], ids=["full", "subspace"])
def test_frame_dual_on_the_fibers_makes_one_solver_call(tmp_path, monkeypatch, subspace):
    # Every fiber block of the job goes through one frame_duals call: one EIG_FLOOR decision.
    import frametrace.numerics as numerics
    import frametrace.plancherel as plancherel

    monkeypatch.chdir(tmp_path)
    g = builtin_group("dihedral:8")
    window = np.random.default_rng(47).standard_normal(g.order)
    sub = []
    if subspace:
        window = coset_average(g, window)  # its orbit spans a proper invariant subspace
        spanning = {"group": g.label, "vectors": [ftio.complex_to_json(window)]}
        (tmp_path / "sub.json").write_text(json.dumps(spanning))
        sub = ["--subspace", "sub.json"]
    ftio.save_vector(GroupVector(g, window), "eta.json")
    solves = _count_calls(monkeypatch, [numerics, plancherel], "frame_duals")
    assert run(["frame", "dual", "--window", "eta.json", *sub, "--out-vector", "psi.json", "--out", "d.json"]) == 0
    assert len(solves) == 1
    assert read_report(tmp_path / "d.json")["checks"][0]["name"] == "dual_reconstruction"


@pytest.mark.parametrize("subspace", [False, True], ids=["full", "subspace"])
def test_frame_check_applies_the_projection_once(tmp_path, monkeypatch, subspace):
    # p [eta, psi, h] in one stacked gather of h feeds the defect, the range test and the validation of p.
    monkeypatch.chdir(tmp_path)
    g = builtin_group("dihedral:8")
    rng = np.random.default_rng(43)
    window = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    sub = []
    if subspace:
        window = coset_average(g, window)  # its orbit spans a proper invariant subspace
        spanning = {"group": g.label, "vectors": [ftio.complex_to_json(window)]}
        (tmp_path / "sub.json").write_text(json.dumps(spanning))
        sub = ["--subspace", "sub.json"]
    ftio.save_vector(GroupVector(g, window), "eta.json")
    assert run(["frame", "dual", "--window", "eta.json", *sub, "--out-vector", "psi.json", "--out", "d.json"]) == 0
    orig, columns = InvariantProjection.apply, []

    def counting(self, v):
        columns.append(1 if v.ndim == 1 else v.shape[1])
        return orig(self, v)

    monkeypatch.setattr(InvariantProjection, "apply", counting)
    assert run(["frame", "check", "--window", "eta.json", *sub, "--pair", "eta.json", "psi.json",
                "--out", "r.json"]) == 0
    assert columns == [3]
    assert [c["name"] for c in read_report(tmp_path / "r.json")["checks"]] == [
        "admissible_pair", "tracial_pair", "fiber_admissibility"]


@pytest.mark.parametrize("group_flag", [[], ["--builtin", "dihedral:3"], ["--group-file", "g.json"]])
def test_frame_check_opens_each_input_once(tmp_path, monkeypatch, group_flag):
    monkeypatch.chdir(tmp_path)
    g = builtin_group("dihedral:3")
    rng = np.random.default_rng(3)
    ftio.save_group(g, "g.json")
    ftio.save_vector(GroupVector(g, rng.standard_normal(6) + 1j * rng.standard_normal(6)), "eta.json")
    assert run(["frame", "dual", "--window", "eta.json", "--out-vector", "psi.json", "--out", "d.json"]) == 0
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    argv = ["frame", "check", *group_flag, "--window", "eta.json", "--pair", "eta.json", "psi.json",
            "--out", "r.json"]
    assert run(argv) == 0
    monkeypatch.undo()
    inputs = ["eta.json", "psi.json"] + (["g.json"] if "--group-file" in group_flag else [])
    assert {path: opened[path] for path in inputs} == {path: 1 for path in inputs}
    assert set(opened) == {*inputs, "r.json"}

    def sha(path):
        return hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()

    group_digest = sha("g.json") if "--group-file" in group_flag else digest_text("dihedral:3")
    assert read_report(tmp_path / "r.json")["inputs"] == {
        "eta": sha("eta.json"), "group": group_digest, "psi": sha("psi.json"), "window": sha("eta.json"),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "analyze", "--builtin", "cyclic:4", "--file", "g.json"],
        ["frame", "dual", "--window", "eta.json", "--builtin", "dihedral:3", "--group-file", "g.json"],
    ],
)
def test_a_builtin_group_and_a_group_file_together_exit_2(tmp_path, monkeypatch, capsys, argv):
    # Naming both used to run the builtin group and ignore the file.
    monkeypatch.chdir(tmp_path)
    g = builtin_group("dihedral:3")
    ftio.save_group(g, "g.json")
    ftio.save_vector(GroupVector(g, np.arange(6.0)), "eta.json")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "r.json"])
    assert exc.value.code == 2
    assert "not allowed with argument --builtin" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
