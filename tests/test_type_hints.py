"""Every annotation in the package names something: ``typing.get_type_hints``
evaluates a function's annotations in the module that defines it, so a name
that module does not bind, such as ``List`` without ``from typing import
List``, raises NameError.  ``from __future__ import annotations`` keeps such a
name a string that no import evaluates, so only this guard sees it.  Needs
only pytest."""

import importlib
import pkgutil
import types
import typing

import pytest

import dp1

MODULES = sorted(f"dp1.{m.name}" for m in pkgutil.iter_modules(dp1.__path__))


def definitions(namespace: dict, module: str, prefix: str = ""):
    """(qualified name, function) for each function of namespace defined in
    module and each method of its classes, with static and class methods,
    properties and ``functools`` wrappers unwrapped to their functions."""
    for name, obj in namespace.items():
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        elif isinstance(obj, property):
            obj = obj.fget
        obj = getattr(obj, "__wrapped__", obj)
        if getattr(obj, "__module__", None) != module:
            continue
        if isinstance(obj, type):
            yield from definitions(vars(obj), module, f"{prefix}{name}.")
        elif isinstance(obj, types.FunctionType):
            yield prefix + name, obj


def unresolved(namespace: dict, module: str) -> list:
    """The qualified names of the definitions whose annotations raise."""
    bad = []
    for name, fn in definitions(namespace, module):
        try:
            typing.get_type_hints(fn)
        except NameError:
            bad.append(name)
    return bad


@pytest.mark.parametrize("module", MODULES)
def test_annotations_resolve(module):
    assert unresolved(vars(importlib.import_module(module)), module) == []


def test_guard_sees_every_kind_of_definition():
    names = {f"{m.rpartition('.')[2]}.{name}" for m in MODULES
             for name, _ in definitions(vars(importlib.import_module(m)), m)}
    assert {"poly.deriv", "poly.UniPoly.coeffs", "poly._depressed_roots",
            "surface.SurfaceParams.from_json", "engine.HypothesisReport.to_json"} <= names


def test_guard_sees_an_unbound_name():
    probe = types.ModuleType("probe")
    exec(
        "from __future__ import annotations\n"
        "import functools\n"
        "def bare(cs) -> List: ...\n"
        "def fine(cs: list) -> int: ...\n"
        "@functools.cache\n"
        "def cached(n: Missing) -> int: ...\n"
        "class C:\n"
        "    @staticmethod\n"
        "    def s(x: Nowhere): ...\n"
        "    @property\n"
        "    def p(self) -> Absent: ...\n",
        vars(probe),
    )
    assert unresolved(vars(probe), "probe") == ["bare", "cached", "C.s", "C.p"]
