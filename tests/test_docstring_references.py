"""Every cross-reference in the package's docstrings and comments names
an object that exists.

A ``:func:``, ``:class:``, ``:meth:`` or ``:mod:`` role in ``src/dsda``
resolves from the module it is written in, from the package, or as a
full dotted path; a bare ``:meth:`` resolves within the class it is
written in.  A function renamed or deleted while a docstring still
names it fails here.
"""

import ast
import importlib
import inspect
import pathlib
import re

import dsda

SOURCES = sorted(pathlib.Path(dsda.__file__).parent.glob("*.py"))

ROLE = re.compile(r":(func|class|meth|mod):`([^`]+)`")

#: What each role must name.
KINDS = {"mod": inspect.ismodule, "class": inspect.isclass,
         "func": callable, "meth": callable}


def _lookup(obj, path: str):
    """``obj`` followed along the dotted ``path``, or None."""
    for name in path.split(".") if path else ():
        obj = getattr(obj, name, None)
    return obj


def _import(path: str):
    """The object at the full dotted ``path``: its longest importable
    module prefix followed along the rest, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _lookup(module, ".".join(parts[cut:]))
    return None


def _resolve(role: str, target: str, module, owner):
    """The object a reference names, or None."""
    if role == "mod":
        return _import(target)
    scopes = [module, dsda]
    if role == "meth" and owner is not None:
        scopes.insert(0, owner)
    for scope in scopes:
        found = _lookup(scope, target)
        if found is not None:
            return found
    return _import(target)


def _references():
    """(file:line, role, target, module, enclosing class or None) of
    every role in the package's sources."""
    out = []
    for path in SOURCES:
        text = path.read_text()
        module = importlib.import_module(f"dsda.{path.stem}")
        classes = [(node.lineno, node.end_lineno, node.name)
                   for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.ClassDef)]
        for match in ROLE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            owner = next((getattr(module, name) for first, last, name
                          in classes if first <= line <= last), None)
            out.append((f"{path.name}:{line}", *match.groups(), module,
                        owner))
    return out


def test_every_reference_resolves():
    refs = _references()
    assert {role for _, role, *_ in refs} == set(KINDS)
    broken = [(where, role, target)
              for where, role, target, module, owner in refs
              if not KINDS[role](_resolve(role, target, module, owner))]
    assert broken == []
