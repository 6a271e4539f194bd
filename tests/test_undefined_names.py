"""Every global name a function body reads is defined, and every import is read.

A stand-in for a linter's undefined-name and unused-import rules, standard
library only.  Undefined names: walk each module's symbol table and look every
global read inside a function or class body up in the imported module's
namespace and in ``builtins``.  Such a name fails only when its line runs, so an
untested error path hides it.  Unused imports: every name a module binds by
``import`` must appear as a ``Name`` node (an attribute base such as ``np`` in
``np.sum`` is one) somewhere in that module.  Imports sit at module level: no
function body holds an ``import`` statement.
"""
import ast
import builtins
import importlib
import pkgutil
import symtable

import frametrace


def _global_reads(table):
    for child in table.get_children():
        for sym in child.get_symbols():
            if sym.is_global() and sym.is_referenced():
                yield sym.get_name()
        yield from _global_reads(child)


def undefined_globals(module) -> set[str]:
    with open(module.__file__, "r", encoding="utf-8") as fh:
        table = symtable.symtable(fh.read(), module.__file__, "exec")
    return {
        name
        for name in _global_reads(table)
        if not hasattr(module, name) and not hasattr(builtins, name)
    }


def _modules():
    for info in pkgutil.iter_modules(frametrace.__path__, "frametrace."):
        yield importlib.import_module(info.name)


def test_no_function_reads_an_undefined_global():
    missing = {}
    for module in _modules():
        names = undefined_globals(module)
        if names:
            missing[module.__name__] = sorted(names)
    assert missing == {}


def unused_imports(source: str) -> set[str]:
    """Names bound by an import statement that no ``Name`` node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport numpy as np\nnp.sum(0)\n") == {"os"}
    assert unused_imports("from .a import b, c as d\nprint(d)\n") == {"b"}
    assert unused_imports("from __future__ import annotations\n") == set()


def test_every_import_is_read():
    # The package's __init__ imports only to re-export, so it is not a module here.
    unused = {}
    for module in _modules():
        with open(module.__file__, "r", encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[module.__name__] = sorted(names)
    assert unused == {}



def function_imports(source: str) -> set[str]:
    """``function:line`` of each import statement inside a function body, nested ones included."""
    return {
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }


def test_function_imports_are_found():
    source = "import os\ndef f():\n    from .a import b\n    def g():\n        import c\n    return b\n"
    assert function_imports(source) == {"f:3", "f:5", "g:5"}
    assert function_imports("import os\nclass A:\n    x = os.sep\n") == set()


def test_no_function_body_imports():
    found = {}
    for module in _modules():
        with open(module.__file__, "r", encoding="utf-8") as fh:
            names = function_imports(fh.read())
        if names:
            found[module.__name__] = sorted(names)
    assert found == {}
