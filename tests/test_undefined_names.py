"""Every global name a function body reads is defined.

A stand-in for a linter's undefined-name rule, standard library only: walk
each module's symbol table and look every global read inside a function or
class body up in the imported module's namespace and in ``builtins``.  Such a
name fails only when its line runs, so an untested error path hides it.
"""
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


def test_no_function_reads_an_undefined_global():
    missing = {}
    for info in pkgutil.iter_modules(frametrace.__path__, "frametrace."):
        module = importlib.import_module(info.name)
        names = undefined_globals(module)
        if names:
            missing[info.name] = sorted(names)
    assert missing == {}

