"""JSON file formats for groups, vectors, irrep tables and Gabor windows.

All complex numbers serialize as two-element [re, im] arrays of doubles; an
array of any shape is nested lists of such pairs, and each loader checks the
exact shape its schema names.  Each loader takes a path or a :class:`Document`.
"""
from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FrametraceError, IrrepTableError, NotAGroup
from .gabor import GaborSystem
from .groups import FiniteGroup, GroupVector, Rep, _parse_spec, group_from_cayley
from .numerics import DEFAULT_TOL
from .plancherel import Irrep, IrrepTable, validate_irreps
from .reporting import digest_bytes


class MalformedInput(FrametraceError):
    """An input file does not match its schema."""


@dataclass(frozen=True)
class Document:
    """An input file read once, path-like by its path: the sha256 of its bytes and their JSON,
    in which a group file's "cayley" table may be an int64 array (:func:`read_document`)."""

    path: str
    digest: str
    obj: object = field(repr=False)

    def __fspath__(self) -> str:
        return self.path


def read_document(path) -> Document:
    """Open ``path`` once; the digest and the JSON parse come from the same bytes.

    A group file's Cayley table is read by numpy straight from the text (:func:`_group_json`);
    any file that reader is not sure of is parsed whole by :func:`json.loads`, which also words
    every refusal, so both give the same values and the same errors.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        obj = _group_json(data) if b'"cayley"' in data else None
        if obj is None:
            obj = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise MalformedInput(f"{path}: {exc}") from exc
    return Document(os.fspath(path), digest_bytes(data), obj)


_SPACE = b" \t\n\r"  # JSON's whitespace
_DIGITS = b"0123456789"
_TABLE_START = re.compile(rb'"cayley"[ \t\n\r]*:[ \t\n\r]*\[')
_TABLE_END = re.compile(rb"\][ \t\n\r]*\]")


def _group_json(data: bytes):
    """The JSON object of ``data`` with its "cayley" value read by :func:`_cayley_array`, or None
    where :func:`json.loads` must judge the whole text.

    The table's span runs from the "[" after the first ``"cayley":`` to the first "]" that only
    whitespace separates from a "]".  ``json`` parses the rest of the text, with ``NaN`` in place
    of the span; numpy's array becomes the value only where that ``NaN`` is the text's one constant
    and the value ``json`` gives the top-level "cayley" key, which is its last one (escaped
    spellings of it included).
    """
    if not data.isascii():  # also a BOM
        return None
    key = _TABLE_START.search(data)
    end = key and _TABLE_END.search(data, key.end())
    if not end:
        return None
    placeholder, constants = object(), []

    def constant(name):  # NaN, Infinity or -Infinity
        constants.append(name)
        return placeholder

    rest = data[: key.end() - 1] + b"NaN" + data[end.end():]
    try:
        obj = json.loads(rest.decode("ascii"), parse_constant=constant)
    except ValueError:
        return None
    if len(constants) != 1 or not isinstance(obj, dict) or obj.get("cayley") is not placeholder:
        return None
    obj["cayley"] = _cayley_array(data, key.end() - 1, end.end())
    return obj if obj["cayley"] is not None else None


def _digit_runs(data: bytes, start: int, end: int) -> int:
    """The number of digits in data[start:end] followed by a non-digit there."""
    digit = np.frombuffer(data, np.uint8, end - start, start) - ord("0") < 10
    return int(np.count_nonzero(digit[:-1] > digit[1:]))


def _cayley_array(data: bytes, start: int, end: int):
    """The n x n int64 array that numpy reads from the JSON array at data[start:end], or None
    unless that array holds n rows of n integers in [0, 10^18), each spelled as JSON spells it.

    Deleting digits and whitespace must leave exactly the brackets and commas of an n x n array.
    numpy then reads the digits and commas alone, which refuses an empty entry; so that deleting
    whitespace joins no two numbers ("1 2"), the span must hold n^2 runs of digits.  numpy reads
    "01" as 1 and clamps an overflow to the int64 maximum, so the values must be below 10^18 and
    spell as many digits as the span holds.
    """
    marks = data[start:end].translate(None, _DIGITS + _SPACE)
    n = marks.find(b"]") - 1  # the first row's width: check the length before building the layout
    if n < 1 or len(marks) != (n + 1) ** 2 or marks != b"[" + b",".join([b"[" + b"," * (n - 1) + b"]"] * n) + b"]":
        return None
    if _digit_runs(data, start, end) != n * n:
        return None
    numbers = data[start:end].translate(None, b"[]" + _SPACE)  # digits and n^2 - 1 commas
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy < 2 warns at text it cannot read; 2.x raises
        try:
            values = np.fromstring(numbers, dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    if values.size != n * n or values.max() >= 10**18:
        return None
    width = len(str(values.max()))  # one digit per value, and one more per power of ten it reaches
    spelled = values.size + sum(int(np.count_nonzero(values >= 10**k)) for k in range(1, width))
    return values.reshape(n, n) if spelled == len(numbers) - (n * n - 1) else None


def _load_json(source) -> tuple:
    """The JSON of a path or :class:`Document`, and the path that error messages name."""
    doc = source if isinstance(source, Document) else read_document(source)
    return doc.obj, doc.path


def _require(obj: dict, key: str, path):
    if not isinstance(obj, dict):
        raise MalformedInput(f"{path}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise MalformedInput(f"{path}: missing field {key!r}")
    return obj[key]


def _require_int(obj: dict, key: str, path) -> int:
    value = _require(obj, key, path)
    if not isinstance(value, int) or isinstance(value, bool):  # a JSON integer, nothing coerced
        raise MalformedInput(f"{path}: field {key!r} is not an integer: {value!r}")
    return value


def _require_list(obj: dict, key: str, path) -> list:
    value = _require(obj, key, path)
    if not isinstance(value, list):
        raise MalformedInput(f"{path}: field {key!r} is not a list: {value!r}")
    return value


def _check_group(label, group: FiniteGroup, path, what: str) -> None:
    """A file's group label: ``group``'s own, or a spec that ``_parse_spec`` reads as its builtin factors."""
    try:
        same = label == group.label or isinstance(label, str) and tuple(_parse_spec(label)) == group.factors
    except NotAGroup:  # a string that is no spec
        same = False
    if not same:
        raise MalformedInput(f"{path}: {what} to group {label!r}, expected {group.label!r}")


def _number_array(value, kinds: str, what: str, path) -> np.ndarray:
    """A JSON array as numpy infers it, refused unless its dtype kind is in ``kinds`` ("iu":
    integers, "iuf": numbers): no string, bool or null is coerced; a bool among numbers reads 0/1."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{path}: bad {what}: {exc}") from exc
    if arr.dtype.kind not in kinds:
        raise MalformedInput(f"{path}: {what} holds {arr.dtype.name} entries")
    return arr


def _pairs(values) -> np.ndarray:
    """The [re, im] pairs of a complex array of shape s, as a float array of shape s + (2,)."""
    z = np.asarray(values, dtype=complex)
    return np.stack([z.real, z.imag], -1)


def complex_to_json(values) -> list:
    """Nested lists of [re, im] pairs, one per entry of a complex array of any shape."""
    return _pairs(values).tolist()


def complex_from_json(pairs, path="<data>") -> np.ndarray:
    """Inverse of :func:`complex_to_json`: an array of shape s from one of shape s + (2,)."""
    arr = _number_array(pairs, "iuf", "complex array", path)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise MalformedInput(f"{path}: complex values must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _layout(shape: tuple, depth: int) -> str:
    """``indent=2`` JSON of a nested list of this shape at nesting ``depth``, a ``{}`` per leaf."""
    if not shape[0]:
        return "[]"
    leaf = "{}" if len(shape) == 1 else _layout(shape[1:], depth + 1)
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join([leaf] * shape[0]) + "\n" + "  " * depth + "]"


def _write_json(payload: dict, path) -> None:
    """The bytes of ``json.dump(payload, fh, indent=2)`` and a newline, for JSON scalar and numpy
    array values: one C-encoder ``json.dumps`` spells an array's leaves, :func:`_layout` places them."""
    def text(value) -> str:
        if not isinstance(value, np.ndarray):
            return json.dumps(value)
        return _layout(value.shape, 1).format(*json.dumps(value.ravel().tolist())[1:-1].split(", "))

    body = ",\n  ".join(f"{json.dumps(key)}: {text(value)}" for key, value in payload.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n  " + body + "\n}\n")


def _vector_from_json(pairs, length: int, what: str, path) -> np.ndarray:
    data = complex_from_json(pairs, path)
    if data.shape != (length,):
        raise MalformedInput(f"{path}: {what} has shape {data.shape}, expected ({length},)")
    return data


def save_group(group: FiniteGroup, path) -> None:
    _write_json({"label": group.label, "order": group.order, "cayley": group.cayley}, path)


def load_group(source) -> FiniteGroup:
    obj, path = _load_json(source)
    label = _require(obj, "label", path)
    order = _require_int(obj, "order", path)
    cayley = _number_array(_require(obj, "cayley", path), "iu", "Cayley table", path)
    try:
        group = group_from_cayley(cayley, label=str(label), copy=False)  # its own array
    except NotAGroup as exc:  # an integer array: only the group axioms are left to fail
        raise MalformedInput(f"{path}: {exc}") from exc
    if group.order != order:
        raise MalformedInput(f"{path}: declared order {order} != table size {group.order}")
    return group


def save_vector(vec: GroupVector, path) -> None:
    _write_json({"group": vec.group.label, "data": _pairs(vec.data)}, path)


def load_vector(source, group: FiniteGroup) -> GroupVector:
    obj, path = _load_json(source)
    label = _require(obj, "group", path)
    raw = _require(obj, "data", path)
    _check_group(label, group, path, "vector belongs")
    return GroupVector(group, _vector_from_json(raw, group.order, "vector", path))


def load_label(source) -> str:
    """The group label a vector file names: {"group": label, ...}."""
    obj, path = _load_json(source)
    return str(_require(obj, "group", path))


def load_vectors(source, group: FiniteGroup) -> list[GroupVector]:
    """Load a list of vectors: {"group": label, "vectors": [[[re, im], ...], ...]}."""
    obj, path = _load_json(source)
    _check_group(_require(obj, "group", path), group, path, "vectors belong")
    return [
        GroupVector(group, _vector_from_json(raw, group.order, f"vector {k}", path))
        for k, raw in enumerate(_require_list(obj, "vectors", path))
    ]


def save_irreps(table: IrrepTable, path) -> None:
    payload = {
        "group": table.group.label,
        "irreps": [
            {
                "label": s.label,
                "dim": s.dim,
                "matrices": complex_to_json(s.rep.matrices),
            }
            for s in table.irreps
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_irreps(source, group: FiniteGroup, tol: float = DEFAULT_TOL) -> IrrepTable:
    """Load an irrep table and check it with :func:`validate_irreps` at ``tol``; a refusal names the file."""
    obj, path = _load_json(source)
    _check_group(_require(obj, "group", path), group, path, "irreps belong")
    entries = []
    for item in _require_list(obj, "irreps", path):
        name = _require(item, "label", path)
        dim = _require_int(item, "dim", path)
        mats = complex_from_json(_require(item, "matrices", path), path)
        if mats.shape != (group.order, dim, dim):
            raise MalformedInput(
                f"{path}: irrep {name!r} has matrices of shape {mats.shape}, "
                f"expected {(group.order, dim, dim)}"
            )
        entries.append(Irrep(label=name, rep=Rep(group=group, dim=dim, matrices=mats)))
    try:
        return validate_irreps(group, entries, tol)
    except IrrepTableError as exc:
        raise MalformedInput(f"{path}: {exc}") from exc


def save_window(sys: GaborSystem, path) -> None:
    _write_json({"L": sys.L, "a": sys.a, "b": sys.b, "window": _pairs(sys.window)}, path)


def load_window(source) -> GaborSystem:
    obj, path = _load_json(source)
    length = _require_int(obj, "L", path)
    a = _require_int(obj, "a", path)
    b = _require_int(obj, "b", path)
    window = _vector_from_json(_require(obj, "window", path), length, "window", path)
    try:
        return GaborSystem(L=length, a=a, b=b, window=window)
    except (ValueError, FrametraceError) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
