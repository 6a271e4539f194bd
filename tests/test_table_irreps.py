"""Irreps read off a Cayley table (``plancherel.table_irreps``), against the builtin irreps and oracles.

A group table under a label that no builtin spec names (``oracles.relabelled``) has no builtin
irreps; every ``frame`` action reads them off its table.  Each table must pass ``validate_irreps``,
have the builtin characters up to the order of the irreps, and give ``frame decompose`` the builtin
fiber ranks and rank measure.
"""
import json
import tracemalloc

import numpy as np
import pytest

from frametrace import io as ftio
from frametrace import plancherel
from frametrace.cli import main
from frametrace.errors import NotComplete
from frametrace.gabor import wh_group_build
from frametrace.groups import GroupVector, builtin_group, group_from_cayley
from frametrace.plancherel import (
    builtin_irreps,
    table_irreps,
    validate_irreps,
)

from oracles import (
    conjugacy_classes,
    random_invariant_projection,
    random_invariant_projection_spectral,
    relabelled,
)

ACCEPTANCE_SPECS = ["cyclic:12", "dihedral:4", "heisenberg:3"]
FRAME_LADDER_SPECS = ["dihedral:8", "dihedral:16", "dihedral:32", "cyclic:3 x dihedral:8"]
#: Builtin groups with builtin irreps, relabelled: the order-512 one is the README's largest.
SPECS = [*ACCEPTANCE_SPECS, *FRAME_LADDER_SPECS, "cyclic:2 x dihedral:3", "dihedral:256"]


def twin_of(spec):
    group = builtin_group(spec)
    perm = np.random.default_rng(3).permutation(group.order)
    return group, perm, relabelled(group, perm)


def characters(table):
    return np.array([s.rep.character() for s in table.irreps])


@pytest.mark.parametrize("spec", [*SPECS, "heisenberg:8", "cyclic:1"])
def test_vectorised_classes_match_the_loop_oracle(spec):
    group = twin_of(spec)[2]
    labels = plancherel._class_labels(group)
    expect = np.empty(group.order, dtype=np.int64)
    for cls in conjugacy_classes(group):
        expect[cls] = min(cls)
    assert np.array_equal(labels, expect)


@pytest.mark.parametrize("spec", SPECS)
def test_table_irreps_have_the_builtin_characters(spec):
    group, perm, twin = twin_of(spec)
    table = validate_irreps(twin, table_irreps(twin).irreps, tol=1e-9)
    builtin = builtin_irreps(group)
    assert len(table.labels) == len(conjugacy_classes(twin)) == len(builtin.labels)
    assert sum(d * d for d in table.degrees) == group.order
    assert list(table.degrees) == sorted(table.degrees)
    ours, theirs = characters(table)[:, perm], characters(builtin)  # column x: element x of group
    match = np.argmax(np.abs(ours @ theirs.conj().T), axis=1)
    assert sorted(match) == list(range(len(builtin.labels)))
    assert np.max(np.abs(ours - theirs[match])) <= 1e-9


@pytest.mark.parametrize("spec", ["heisenberg:8", "heisenberg:4", "cyclic:1"])
def test_table_irreps_of_groups_without_builtin_irreps(spec):
    group = builtin_group(spec)
    table = validate_irreps(group, table_irreps(group).irreps, tol=1e-9)
    assert len(table.labels) == len(conjugacy_classes(group))
    assert table.labels[0] == "sigma0" and np.allclose(table.kernel[:, 0], 1.0)  # the trivial irrep leads


@pytest.mark.parametrize("spec", ["dihedral:8", "heisenberg:3", "heisenberg:8"])
def test_the_draw_changes_no_label_and_no_character(spec):
    group = twin_of(spec)[2]
    first = table_irreps(group)
    for seed in (1, 2, 17):
        other = plancherel._dixon_split(group, np.random.default_rng(seed))
        assert (other.labels, other.degrees) == (first.labels, first.degrees)
        assert np.max(np.abs(characters(other) - characters(first))) <= 1e-9


def test_a_draw_that_does_not_split_is_redrawn(monkeypatch):
    group = twin_of("dihedral:4")[2]
    split, seeds = plancherel._dixon_split, []

    def failing_first(g, rng):
        seeds.append(rng.bit_generator.seed_seq.entropy)
        return None if len(seeds) == 1 else split(g, rng)

    monkeypatch.setattr(plancherel, "_dixon_split", failing_first)
    assert table_irreps(group).degrees == (1, 1, 1, 1, 2)
    assert seeds == [0, 1]
    monkeypatch.setattr(plancherel, "_dixon_split", lambda g, rng: None)
    with pytest.raises(NotComplete):
        table_irreps(group)


def decompose(tmp_path, group, span, flag):
    """``frame decompose`` of the orbit span of ``span`` on ``group``: the report."""
    window, sub, out = (tmp_path / f"{k}.json" for k in ("w", "s", "r"))
    ftio.save_vector(GroupVector(group, span), window)
    sub.write_text(json.dumps({"group": group.label, "vectors": [ftio.complex_to_json(span)]}))
    assert main(["frame", "decompose", "--window", str(window), "--subspace", str(sub), *flag,
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("spec", SPECS)
def test_fiber_ranks_and_rank_measure_match_the_builtin_ones(tmp_path, spec):
    group, perm, twin = twin_of(spec)
    ftio.save_group(twin, tmp_path / "twin.json")
    builtin, table = builtin_irreps(group), table_irreps(twin)
    match = np.argmax(np.abs(characters(table)[:, perm] @ characters(builtin).conj().T), axis=1)
    rng = np.random.default_rng(5)
    for _ in range(3):
        span = random_invariant_projection(builtin, rng).h.data  # its orbit spans range(p)
        flag = ["--group-file", str(tmp_path / "twin.json")]
        ours = decompose(tmp_path, twin, span[np.argsort(perm)], flag)
        theirs = decompose(tmp_path, group, span, ["--builtin", spec])
        ranks = ours["metadata"]["fiber_ranks"]
        assert list(ranks) == list(table.labels)
        assert [ranks[s] for s in table.labels] == [
            theirs["metadata"]["fiber_ranks"][builtin.labels[i]] for i in match]
        assert abs(ours["metadata"]["rank_measure"] - theirs["metadata"]["rank_measure"]) <= 1e-12
        assert ours["overall_pass"] and ours["checks"][0]["name"] == "rank_measure_vs_trace"


@pytest.mark.parametrize("source", ["heisenberg:8", "weyl-heisenberg"])
def test_rank_measure_vs_trace_passes_without_builtin_irreps(tmp_path, source):
    # heisenberg:8 (modulus not prime), and the Weyl-Heisenberg group of the lattice L = 12, a = 3,
    # b = 2 with its elements relabelled, loaded as a file group.
    if source == "heisenberg:8":
        group, flag = builtin_group(source), ["--builtin", source]
    else:
        wh = wh_group_build(12, 3, 2)
        table = group_from_cayley(wh.product(*np.ogrid[: wh.order, : wh.order]))
        perm = np.random.default_rng(4).permutation(wh.order)
        ftio.save_group(relabelled(table, perm), tmp_path / "g.json")
        group, flag = ftio.load_group(tmp_path / "g.json"), ["--group-file", str(tmp_path / "g.json")]
    rng = np.random.default_rng(9)
    for _ in range(3):
        p = random_invariant_projection_spectral(group, rng)
        rep = decompose(tmp_path, group, p.h.data, flag)
        (check,) = rep["checks"]
        assert check["name"] == "rank_measure_vs_trace" and check["pass"], check
        assert rep["metadata"]["rank_measure"] == pytest.approx(p.rank() / group.order, abs=1e-12)


def _traced_peak_mib(argv) -> tuple[int, float]:
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak / 2 ** 20


@pytest.mark.parametrize("spec", ["dihedral:256", "heisenberg:8"])
def test_order_512_frame_actions_on_table_irreps_stay_under_200_mib(tmp_path, spec):
    group = builtin_group(spec)
    if spec == "dihedral:256":
        group = twin_of(spec)[2]
        ftio.save_group(group, tmp_path / "g.json")
        flag = ["--group-file", str(tmp_path / "g.json")]
    else:
        flag = ["--builtin", spec]
    rng = np.random.default_rng(13)
    eta, psi = tmp_path / "eta.json", tmp_path / "psi.json"
    window = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    ftio.save_vector(GroupVector(group, window), eta)
    for action, extra in (("dual", ["--out-vector", str(psi)]), ("tighten", []),
                          ("check", ["--pair", str(eta), str(psi)]), ("decompose", [])):
        out = tmp_path / f"{action}.json"
        argv = ["frame", action, "--window", str(eta), *flag, *extra, "--out", str(out)]
        code, peak = _traced_peak_mib(argv)
        assert code == 0 and peak < 200, (action, peak)
        assert json.loads(out.read_text())["overall_pass"] is True
