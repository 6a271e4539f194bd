"""The bytes of written vector, window and group files.

They must equal what ``json.dump(payload, fh, indent=2)`` and a newline wrote
before the writer went through the C encoder (``save_json_indent2`` in
``oracles``), so files stay byte-identical across versions.
"""
import json

import numpy as np
import pytest

from frametrace import io as ftio
from frametrace.cli import main
from frametrace.gabor import GaborSystem
from frametrace.groups import GroupVector, builtin_group

from oracles import save_json_indent2

MAX = 1.7976931348623157e308
EDGE = [0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, 1.0, -2.0, 3.0e16, 2.0 ** 53, 0.1, -1e-300, 123456.789]


def _edge_values(length: int, seed: int) -> np.ndarray:
    """``length`` complex values whose parts cycle through EDGE, then random doubles."""
    rng = np.random.default_rng(seed)
    parts = np.concatenate([EDGE, rng.standard_normal(2 * length)])[: 2 * length]
    return parts[0::2] + 1j * parts[1::2]


def _same_bytes(save, obj, payload, tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save(obj, new)
    save_json_indent2(payload, old)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "dihedral:3", "heisenberg:3"])
@pytest.mark.parametrize("seed", [0, 1])
def test_vector_file_bytes(spec, seed, tmp_path):
    group = builtin_group(spec)
    vec = GroupVector(group, _edge_values(group.order, seed))
    payload = {"group": vec.group.label, "data": ftio.complex_to_json(vec.data)}
    _same_bytes(ftio.save_vector, vec, payload, tmp_path)


@pytest.mark.parametrize("lattice", [(1, 1, 1), (2, 1, 2), (12, 3, 2), (64, 8, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_window_file_bytes(lattice, seed, tmp_path):
    sys_ = GaborSystem(*lattice, window=_edge_values(lattice[0], seed))
    payload = {"L": sys_.L, "a": sys_.a, "b": sys_.b, "window": ftio.complex_to_json(sys_.window)}
    _same_bytes(ftio.save_window, sys_, payload, tmp_path)


@pytest.mark.parametrize("spec", ["cyclic:1", "dihedral:3", "dihedral:32"])
def test_group_file_bytes(spec, tmp_path):
    group = builtin_group(spec)
    payload = {"label": group.label, "order": group.order, "cayley": group.cayley.tolist()}
    _same_bytes(ftio.save_group, group, payload, tmp_path)


def test_writer_lays_out_empty_and_nested_arrays(tmp_path):
    rng = np.random.default_rng(2)
    for value in (np.zeros((0, 2)), np.zeros((3, 0)), rng.standard_normal((2, 3, 3, 2)), np.arange(5)):
        payload = {"label": "é \"q\"", "n": 3, "value": value}
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        ftio._write_json(payload, new)
        save_json_indent2({**payload, "value": value.tolist()}, old)
        assert new.read_bytes() == old.read_bytes()


def _indent2(path) -> bytes:
    with open(path, encoding="utf-8") as fh:
        return (json.dumps(json.load(fh), indent=2) + "\n").encode("utf-8")


def test_every_written_file_is_the_indent2_json_of_its_content(tmp_path):
    rng = np.random.default_rng(11)
    group = builtin_group("dihedral:4")
    eta = tmp_path / "eta.json"
    ftio.save_vector(GroupVector(group, rng.standard_normal(8) + 1j * rng.standard_normal(8)), eta)
    window = tmp_path / "g.json"
    ftio.save_window(GaborSystem(24, 4, 3, rng.standard_normal(24) + 1j * rng.standard_normal(24)), window)
    lattice = ["--L", "24", "--a", "4", "--b", "3"]
    jobs = {
        "psi.json": ["frame", "dual", "--window", str(eta)],
        "tight.json": ["frame", "tighten", "--window", str(eta)],
        "ref.json": ["gabor", "reference", *lattice],
        "gamma.json": ["gabor", "dual", *lattice, "--window", str(window)],
    }
    for name, argv in jobs.items():
        flag = "--out-vector" if argv[0] == "frame" else "--out-window"
        out = tmp_path / name
        assert main([*argv, flag, str(out), "--out", str(tmp_path / "report.json")]) == 0
        assert out.read_bytes() == _indent2(out), name
