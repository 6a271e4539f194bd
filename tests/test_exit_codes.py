"""The exit-code contract under corrupted inputs: 0 pass, 1 a check fails, 2 bad input.

Each case takes a valid input file of one loader, changes one JSON node (another
type in its place, or an array shortened or extended), and runs the CLI on it.
The CLI must return 0, 1 or 2 without an escaped exception, and 2 whenever the
loader itself refuses the file.
"""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frametrace import io as ftio
from frametrace.cli import main
from frametrace.errors import FrametraceError, NotComplete, NotHomomorphism, NotInequivalent
from frametrace.gabor import GaborSystem, reference_window
from frametrace.groups import GroupVector, Rep, builtin_group
from frametrace.plancherel import Irrep, builtin_irreps, validate_irreps

SPEC = "dihedral:3"
LATTICE = ["--L", "8", "--a", "2", "--b", "2"]


def _cases(tmp_path):
    """kind -> (valid JSON, argv before the file, loader), each JSON written by its ``save_*``."""
    group = builtin_group(SPEC)

    def saved(save, obj):
        path = tmp_path / "saved.json"
        save(obj, path)
        return json.loads(path.read_text())

    vector = saved(ftio.save_vector, GroupVector(group, [1.0, 0.5, 0.25, -1.0, 2.0, 0.0]))
    (tmp_path / "ok.json").write_text(json.dumps(vector))
    return {
        "group": (saved(ftio.save_group, group), ["group", "analyze", "--file"], ftio.load_group),
        "vector": (
            vector,
            ["frame", "dual", "--builtin", SPEC, "--window"],
            lambda path: ftio.load_vector(path, group),
        ),
        "vectors": (
            {"group": SPEC, "vectors": [vector["data"], vector["data"][::-1]]},
            ["frame", "dual", "--builtin", SPEC, "--window", str(tmp_path / "ok.json"), "--subspace"],
            lambda path: ftio.load_vectors(path, group),
        ),
        "irreps": (
            saved(ftio.save_irreps, builtin_irreps(group)),
            ["group", "analyze", "--builtin", SPEC, "--irreps"],
            lambda path: ftio.load_irreps(path, group),
        ),
        "window": (
            saved(ftio.save_window, GaborSystem(8, 2, 2, reference_window(8, 2, 2))),
            ["gabor", "dual", *LATTICE, "--window"],
            ftio.load_window,
        ),
    }


#: Any JSON value: the replacement of one node.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10**6),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(min_value=-2, max_value=2), max_size=2),
)


def _nodes(obj, path=()):
    """Every node of a JSON tree as (path, value), the root first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replace(obj, path, value):
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@st.composite
def corrupted(draw, doc):
    """``doc`` with one node replaced, or one array shortened or extended."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    arrays = [(p, v) for p, v in nodes if isinstance(v, list) and v]
    op = draw(st.sampled_from(("replace", "shorten", "extend")))
    if op == "replace":
        path, _ = draw(st.sampled_from(nodes))
        return _replace(doc, path, draw(JSON_VALUES))
    path, arr = draw(st.sampled_from(arrays))
    if op == "shorten":
        del arr[draw(st.integers(min_value=0, max_value=len(arr) - 1))]
    else:
        arr.append(draw(st.one_of(st.just(copy.deepcopy(arr[-1])), JSON_VALUES)))
    return doc


@pytest.mark.parametrize("kind", ["group", "vector", "vectors", "irreps", "window"])
def test_corrupted_inputs_exit_0_1_or_2(kind, tmp_path):
    doc, argv, loader = _cases(tmp_path)[kind]
    path = tmp_path / "input.json"

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corrupted(doc))
    def check(bad):
        path.write_text(json.dumps(bad))
        try:
            loader(path)
            rejected = False
        except (FrametraceError, ValueError):
            rejected = True
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        assert code in (0, 1, 2), err.getvalue()
        if rejected:
            assert code == 2 and err.getvalue().startswith("error: "), err.getvalue()

    check()


_PAIRS = [[1.0, 0.0], [0.5, -0.5], [0.25, 0.0], [-1.0, 2.0]]


@pytest.mark.parametrize(
    "kind, payload",
    [
        # numpy would truncate these floats into the valid table [[0, 1], [1, 0]]
        ("group", {"label": "x", "order": 2, "cayley": [[0, 1.9], [1.2, 0.0]]}),
        ("group", {"label": "x", "order": 2, "cayley": [[0, "1"], ["1", 0]]}),
        ("group", {"label": "x", "order": 2, "cayley": [[False, True], [True, False]]}),
        ("group", {"label": "x", "order": 2, "cayley": [[0, None], [1, 0]]}),
        ("vector", {"group": "cyclic:4", "data": [["1", "0"], *_PAIRS[1:]]}),
        ("vector", {"group": "cyclic:4", "data": [[True, False]] * 4}),
        ("vector", {"group": "cyclic:4", "data": [[1.0, None], *_PAIRS[1:]]}),
        ("vectors", {"group": "cyclic:4", "vectors": [[["1", "0"], *_PAIRS[1:]]]}),
        ("window", {"L": 4, "a": 2, "b": 2, "window": [["1", "0"], *_PAIRS[1:]]}),
        ("window", {"L": 4, "a": 2, "b": 2, "window": [[True, False]] * 4}),
        ("irreps", {"group": "cyclic:4", "irreps": [
            {"label": "a", "dim": 1, "matrices": [[[["1", "0"]]]] * 4}
        ]}),
    ],
)
def test_number_arrays_are_not_coerced(kind, payload, tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"group": "cyclic:4", "data": _PAIRS}))
    argv = {
        "group": ["group", "analyze", "--file"],
        "vector": ["frame", "dual", "--builtin", "cyclic:4", "--window"],
        "vectors": ["frame", "dual", "--builtin", "cyclic:4", "--window", str(ok), "--subspace"],
        "window": ["gabor", "dual", "--L", "4", "--a", "2", "--b", "2", "--window"],
        "irreps": ["group", "analyze", "--builtin", "cyclic:4", "--irreps"],
    }[kind]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err


def test_a_bool_among_numbers_reads_as_an_integer(tmp_path):
    """numpy infers an integer array from [0, true]: the documented exception to the rule."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"label": "x", "order": 2, "cayley": [[0, True], [1, 0]]}))
    assert ftio.load_group(path).cayley.tolist() == [[0, 1], [1, 0]]
    window = tmp_path / "w.json"
    window.write_text(json.dumps({"L": 2, "a": 1, "b": 2, "window": [[1.0, False], [0, 0.5]]}))
    assert ftio.load_window(window).window.tolist() == [1.0, 0.5j]


def _write_irreps(path, group, irreps) -> None:
    path.write_text(json.dumps({"group": group.label, "irreps": [
        {"label": s.label, "dim": s.dim, "matrices": ftio.complex_to_json(s.rep.matrices)} for s in irreps
    ]}))


def test_an_irrep_with_one_nan_entry_is_refused(tmp_path, capsys):
    """A NaN residual fails the irrep checks, as ``within_tol`` fails a NaN: rho1 of dihedral:4 with one
    NaN entry at a non-identity element is refused by name, not passed on to a report."""
    group = builtin_group("dihedral:4")
    x = (group.identity + 1) % group.order
    irreps = []
    for s in builtin_irreps(group).irreps:
        mats = s.rep.matrices.copy()
        if s.label == "rho1":
            mats[x, 0, 1] = complex("nan")
        irreps.append(Irrep(s.label, Rep(group=group, dim=s.dim, matrices=mats)))
    with pytest.raises(NotHomomorphism, match="'rho1'"):
        validate_irreps(group, irreps)
    path = tmp_path / "irreps.json"
    _write_irreps(path, group, irreps)
    assert main(["group", "analyze", "--builtin", "dihedral:4", "--irreps", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: irrep 'rho1': "), err


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda irreps: irreps[:-1], NotComplete, "sum of squared dims 4 != |G| = 8"),
        (lambda irreps: [*irreps, irreps[0]], NotInequivalent, "irreps 'triv' and 'triv' are equivalent"),
    ],
    ids=["one-irrep-dropped", "one-irrep-twice"],
)
def test_an_incomplete_or_repeated_irreps_file_is_refused_with_its_path(tmp_path, capsys, edit, error, message):
    """validate_irreps refuses the table; the CLI names the file, as for every other malformed input."""
    group = builtin_group("dihedral:4")
    irreps = edit(list(builtin_irreps(group).irreps))
    with pytest.raises(error):
        validate_irreps(group, irreps)
    path = tmp_path / "irreps.json"
    _write_irreps(path, group, irreps)
    assert main(["group", "analyze", "--builtin", "dihedral:4", "--irreps", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}"), err
