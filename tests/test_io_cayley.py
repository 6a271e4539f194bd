"""Group files whose Cayley table numpy reads straight from the text.

``io.read_document`` reads a group file's ``cayley`` value with ``np.fromstring``
and leaves every other file, and every table it is not sure of, to
``json.loads``.  ``oracles.load_group_by_json`` parses the whole file with
``json``, as all files were read before: both must give the same group, or
raise the same error with the same text.
"""
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frametrace import io as ftio
from frametrace.groups import GroupVector, builtin_group

from oracles import load_group_by_json, relabelled

#: Builtin specs of orders 1 to 64.
SPECS = (
    [f"cyclic:{n}" for n in (1, 2, 3, 5, 8, 12, 31, 64)]
    + [f"dihedral:{n}" for n in (1, 2, 3, 7, 16, 32)]
    + ["heisenberg:2", "heisenberg:3", "cyclic:2 x dihedral:3", "cyclic:4 x heisenberg:2"]
)
LABELS = ["relabelled", '"cayley": [[0]]', "label with a ] and a [[0]]", "é"]
LAYOUTS = ("save_group", "dump", "compact", "spaced")
SPACE = " \t\n\r"


def _outcome(load, path):
    """What loading ``path`` gives: every field of the group, or the error's type and text."""
    try:
        g = load(path)
    except Exception as exc:  # any error: its type and text must agree
        return type(exc).__name__, str(exc)
    return (g.cayley.tolist(), g.cayley.dtype, g.cayley.flags.writeable, g.order, g.identity,
            g.inverses.tolist(), g.generators, g.label)


def _same_outcome(path):
    assert _outcome(ftio.load_group, path) == _outcome(load_group_by_json, path)


def _spaced(text: str, rng: np.random.Generator) -> str:
    """JSON ``text`` with a run of 0 to 2 random JSON whitespace characters around every token."""
    tokens = re.findall(r'"(?:[^"\\]|\\.)*"|[\[\]{},:]|[^\s\[\]{},:"]+', text)
    return "".join("".join(rng.choice(list(SPACE), rng.integers(0, 3))) + tok for tok in tokens) + "\n"


def _write(path, group, layout: str, keys, rng) -> None:
    payload = {key: {"label": group.label, "order": group.order, "cayley": group.cayley.tolist()}[key]
               for key in keys}
    if layout == "save_group":
        ftio.save_group(group, path)
    elif layout == "dump":
        path.write_text(json.dumps(payload), encoding="utf-8")
    elif layout == "compact":
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    else:
        path.write_text(_spaced(json.dumps(payload), rng), encoding="utf-8")


@st.composite
def groups(draw):
    spec = draw(st.sampled_from(SPECS))
    group = builtin_group(spec)
    perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(group.order)
    return relabelled(group, perm, label=draw(st.sampled_from(LABELS)))


def test_differential_valid_tables(tmp_path):
    path = tmp_path / "g.json"

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(groups(), st.sampled_from(LAYOUTS), st.permutations(["label", "order", "cayley"]),
           st.integers(0, 2**32 - 1))
    def check(group, layout, keys, seed):
        _write(path, group, layout, keys, np.random.default_rng(seed))
        _same_outcome(path)
        loaded = ftio.load_group(path)
        assert loaded == group and loaded.label == group.label

    check()


def _cell(edit):
    """A mutation of one cell of the table's text, given as a function of its text."""
    def mutate(cells, r, c):
        cells[r][c] = edit(cells[r][c])
    return mutate


def _blank_and_leading_zero(cells, r, c):
    """Two errors that cost and add a digit each: numpy reads " " as 0 and "01" as 1."""
    flat = [(i, j) for i in range(len(cells)) for j in range(len(cells[i]))]
    cells[r][c] = " "
    i, j = flat[(flat.index((r, c)) + 1) % len(flat)]
    cells[i][j] = "0" + cells[i][j] if (i, j) != (r, c) else cells[i][j]


#: Mutations of the table's cells (lists of the entries' texts) at a drawn cell (r, c).
CELL_MUTATIONS = {
    "leading zero": _cell(lambda t: "0" + t),
    "1 2": _cell(lambda t: t + " 2"),
    "split digits": _cell(lambda t: t[0] + " " + t[1:] if len(t) > 1 else t + "\t0"),
    "blank": _cell(lambda t: " "),
    "empty": _cell(lambda t: ""),
    "blank and leading zero": _blank_and_leading_zero,
    "trailing comma": lambda cells, r, c: cells[r].append(""),
    "ragged row": lambda cells, r, c: cells[r].pop(c),
    "extra entry": lambda cells, r, c: cells[r].append("0"),
    "non-square": lambda cells, r, c: cells.pop(r),
    "float": _cell(lambda t: t + ".0"),
    "negative": _cell(lambda t: "-" + t),
    "exponent": _cell(lambda t: t + "e0"),
    "true": _cell(lambda t: "true"),
    "false": _cell(lambda t: "false"),
    "null": _cell(lambda t: "null"),
    "string": _cell(lambda t: f'"{t}"'),
    "20 digits": _cell(lambda t: "9" * 20),
    "10^18": _cell(lambda t: "1" + "0" * 18),
    "10^18 - 1": _cell(lambda t: "9" * 18),
    "2^63": _cell(lambda t: str(2**63)),
    "form feed": _cell(lambda t: "\f" + t),
    "nested": _cell(lambda t: f"[{t}]"),
    "plus": _cell(lambda t: "+" + t),
    "hex": _cell(lambda t: "0x" + t),
}

def _twice(doc: str, first: str, second: str) -> str:
    """``doc`` with ``first`` as its table and a second "cayley" key, ``second``, at the end."""
    return doc.replace("@", first)[:-1] + f', "cayley": {second}}}'


#: Mutations of the file's text, given the text with the table's and the object's.
TEXT_MUTATIONS = {
    "[]": lambda doc, table: doc.replace("@", "[]"),
    "[[]]": lambda doc, table: doc.replace("@", "[[]]"),
    "[[ ]]": lambda doc, table: doc.replace("@", "[[ ]]"),
    "[[0]]": lambda doc, table: doc.replace("@", "[[0]]"),
    "duplicate cayley": lambda doc, table: doc.replace("@", table)[:-1] + ', "cayley": [[0]]}',
    "duplicate cayley, same table": lambda doc, table: _twice(doc, table, table),
    "duplicate cayley, first not JSON": lambda doc, table: _twice(doc, "[[0 1]]", table),
    "duplicate cayley, first a float": lambda doc, table: _twice(doc, "[[0.5]]", table),
    "escaped key": lambda doc, table: doc.replace('"cayley"', '"c\\u0061yley"').replace("@", table),
    "escaped duplicate key after": lambda doc, table: doc.replace("@", table)[:-1] + ', "cay\\u006cey": [[0]]}',
    "escaped duplicate key before": lambda doc, table: '{"cay\\u006cey": [[0]], ' + doc.replace("@", table)[1:],
    "a key ending in cayley first": lambda doc, table: '{"\\"cayley": [[0]], ' + doc.replace("@", table)[1:],
    "nested cayley first": lambda doc, table: '{"x": {"cayley": [[0]]}, ' + doc.replace("@", table)[1:],
    "NaN elsewhere": lambda doc, table: '{"x": NaN, ' + doc.replace("@", table)[1:],
    "-Infinity elsewhere": lambda doc, table: doc.replace("@", table)[:-1] + ', "x": -Infinity}',
    "NaN for the table": lambda doc, table: doc.replace("@", "NaN"),
    "a key ending in cayley, then NaN for the table":
        lambda doc, table: '{"\\"cayley": [[0]], ' + doc.replace("@", "NaN")[1:],
    "a value after the table": lambda doc, table: doc.replace("@", table + " 0"),
    "BOM": lambda doc, table: "\ufeff" + doc.replace("@", table),
    "trailing comma in the object": lambda doc, table: doc.replace("@", table)[:-1] + ",}",
    "extra data": lambda doc, table: doc.replace("@", table) + " 0",
    "a list": lambda doc, table: f"[{doc.replace('@', table)}]",
    "no colon": lambda doc, table: doc.replace('"cayley": @', '"cayley" ' + table),
    "a digit for the colon": lambda doc, table: doc.replace('"order": ', '"order"1').replace("@", table),
    "unclosed": lambda doc, table: doc.replace("@", table[:-1])[:-1],
    "table only": lambda doc, table: table,
    "no order": lambda doc, table: doc.replace("@", table).replace('"order"', '"size"'),
}


@st.composite
def mutated(draw):
    group = draw(groups())
    keys = draw(st.permutations(["label", "order", "cayley"]))
    fields = {"label": json.dumps(group.label), "order": str(group.order), "cayley": "@"}
    doc = "{" + ", ".join(f'"{key}": {fields[key]}' for key in keys) + "}"
    cells = [[str(x) for x in row] for row in group.cayley.tolist()]
    name = draw(st.sampled_from(sorted(CELL_MUTATIONS) + sorted(TEXT_MUTATIONS)))
    if name in CELL_MUTATIONS:
        r = draw(st.integers(0, group.order - 1))
        CELL_MUTATIONS[name](cells, r, draw(st.integers(0, group.order - 1)))
        return doc.replace("@", "[" + ", ".join("[" + ", ".join(row) + "]" for row in cells) + "]")
    return TEXT_MUTATIONS[name](doc, json.dumps(group.cayley.tolist()))


def test_differential_mutated_tables(tmp_path):
    path = tmp_path / "g.json"

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated())
    def check(text):
        path.write_bytes(text.encode("utf-8"))
        _same_outcome(path)

    check()


@pytest.mark.parametrize("name", sorted(CELL_MUTATIONS))
def test_every_cell_mutation_on_a_small_table(name, tmp_path):
    """Each mutation at least once, at the first, an inner and the last cell of a 6 x 6 table."""
    table = builtin_group("dihedral:3").cayley.tolist()
    path = tmp_path / "g.json"
    for r, c in ((0, 0), (2, 3), (5, 5)):
        cells = [[str(x) for x in row] for row in table]
        CELL_MUTATIONS[name](cells, r, c)
        body = "[" + ", ".join("[" + ", ".join(row) + "]" for row in cells) + "]"
        path.write_text('{"label": "d3", "order": 6, "cayley": ' + body + "}")
        _same_outcome(path)


@pytest.mark.parametrize("name", sorted(TEXT_MUTATIONS))
@pytest.mark.parametrize("keys", [("label", "order", "cayley"), ("cayley", "label", "order")])
def test_every_text_mutation_on_a_small_table(name, keys, tmp_path):
    table = json.dumps(builtin_group("dihedral:3").cayley.tolist())
    fields = {"label": '"d3"', "order": "6", "cayley": "@"}
    path = tmp_path / "g.json"
    doc = "{" + ", ".join(f'"{k}": {fields[k]}' for k in keys) + "}"
    path.write_bytes(TEXT_MUTATIONS[name](doc, table).encode())
    _same_outcome(path)


def _group_file(spec: str, layout: str, path):
    group = builtin_group(spec)
    group = relabelled(group, np.random.default_rng(0).permutation(group.order))
    _write(path, group, layout, ("label", "order", "cayley"), None)
    return group


@pytest.mark.parametrize("spec", ["dihedral:3", "heisenberg:6", "dihedral:256"])
@pytest.mark.parametrize("layout", ["save_group", "dump", "compact"])
def test_json_never_decodes_the_table(spec, layout, tmp_path, monkeypatch):
    """On the layouts that writers produce, the table must not fall back to ``json``."""
    path = tmp_path / "g.json"
    group = _group_file(spec, layout, path)
    texts, loads = [], json.loads

    def recording(text, **kwargs):
        texts.append(text)
        return loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", recording)
    doc = ftio.read_document(path)
    assert type(doc.obj["cayley"]) is np.ndarray and doc.obj["cayley"].dtype == np.int64
    assert len(texts) == 1 and "[" not in texts[0] and len(texts[0]) < 100
    assert ftio.load_group(doc) == group


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ["save_group", "dump"])
def test_order_512_peak_memory_at_most_the_json_path(layout, tmp_path):
    path = tmp_path / "g.json"
    _group_file("dihedral:256", layout, path)
    assert _peak(lambda: ftio.load_group(path)) <= _peak(lambda: load_group_by_json(path))


def test_a_long_first_row_is_refused_in_little_memory(tmp_path):
    """A 1 x 100000 table: the reader must not build the layout of a 100000 x 100000 one."""
    path = tmp_path / "g.json"
    path.write_text('{"label": "x", "order": 1, "cayley": [[' + ",".join(["0"] * 100_000) + "]]}")
    peak = _peak(lambda: pytest.raises(ftio.MalformedInput, ftio.load_group, path))
    assert peak < 64 * 2**20
    _same_outcome(path)
    with pytest.raises(ftio.MalformedInput, match="table is not square"):
        ftio.load_group(path)


def test_files_without_a_table_go_straight_to_json(tmp_path, monkeypatch):
    group = builtin_group("dihedral:3")
    path = tmp_path / "v.json"
    ftio.save_vector(GroupVector(group, np.arange(6.0)), path)

    def refuse(data):
        raise AssertionError("a vector file reached the table reader")

    monkeypatch.setattr(ftio, "_group_json", refuse)
    assert ftio.load_vector(path, group).data.tolist() == list(np.arange(6.0))


def test_numpy_1_partial_reads_fall_back(tmp_path, monkeypatch):
    """numpy 1.24-1.26 warns and returns what it read so far where 2.x raises: both fall back,
    and no warning escapes."""
    path = tmp_path / "g.json"
    group = _group_file("dihedral:3", "dump", path)

    def partial(text, dtype, sep):
        warnings.warn("string or file could not be read to its end due to unmatched data",
                      DeprecationWarning, stacklevel=2)
        return np.zeros(36, dtype=dtype)

    monkeypatch.setattr(np, "fromstring", partial)
    doc = ftio.read_document(path)
    assert type(doc.obj["cayley"]) is list
    assert ftio.load_group(doc) == group
