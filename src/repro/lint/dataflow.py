"""Project symbol table shared by the call-graph-aware lint rules.

:class:`ProjectModel` indexes one parsed module set: every function
and method under a stable qualified name, every class, and every call
expression paired with the function that contains it. It is built
once per module mapping (:func:`project_model`) and shared by
``trace-contract`` (through :mod:`repro.lint.callgraph`, which
resolves literal arguments across call sites) and ``fork-safety``.

No rule needs control-flow or dataflow facts: the invariants that once
needed them (fsync order around ``os.replace``, bound entries reaching
``cache.put``, state pickled into pool workers) are now held by
construction and checked syntactically (see :mod:`repro.lint`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.lint.engine import SourceModule


def dotted(node: ast.expr) -> str | None:
    """Render an ``a.b.c`` attribute chain; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> str | None:
    """Dotted name of a call's target; ``None`` for computed targets."""
    return dotted(call.func)


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def decorated_with(fn: FunctionNode, name: str) -> bool:
    """Whether any decorator of ``fn`` is ``name`` or ``*.name``."""
    for deco in fn.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == name:
            return True
        if isinstance(target, ast.Attribute) and target.attr == name:
            return True
    return False


def walk_scoped(
    tree: ast.AST, scopes: tuple[FunctionNode, ...] = ()
) -> Iterator[tuple[ast.AST, tuple[FunctionNode, ...]]]:
    """Every node under ``tree`` with the functions whose body holds it.

    ``scopes`` lists the enclosing function definitions, outermost
    first. A function's decorators, defaults and annotations belong to
    the scope that defines it, not to the function itself.
    """
    yield tree, scopes
    for child in ast.iter_child_nodes(tree):
        inner = scopes
        if isinstance(tree, _FUNCTION_NODES) and child in tree.body:
            inner = scopes + (tree,)
        yield from walk_scoped(child, inner)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method with its location in the project."""

    qualname: str  #: ``module:Class.name`` or ``module:name``
    name: str
    module: str
    path: str
    node: FunctionNode
    cls: str | None  #: enclosing class name, ``None`` for plain functions

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    def param_names(self) -> list[str]:
        """Positional/keyword parameter names, in signature order."""
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]

    def kwargs_param(self) -> str | None:
        """Name of the ``**kwargs`` parameter, if any."""
        kwarg = self.node.args.kwarg
        return kwarg.arg if kwarg is not None else None

    def decorated_with(self, name: str) -> bool:
        """Whether any decorator is ``name`` or ``*.name``."""
        return decorated_with(self.node, name)


@dataclass(frozen=True)
class CallSite:
    """One call expression and the function (if any) containing it."""

    call: ast.Call
    enclosing: FunctionInfo | None
    module: str
    path: str


@dataclass(frozen=True)
class ClassInfo:
    """One class definition with its location in the project."""

    name: str
    module: str
    path: str
    node: ast.ClassDef


class ProjectModel:
    """Symbol table over one parsed module set.

    Attributes:
        functions: Qualified name -> :class:`FunctionInfo`.
        by_name: Bare function name -> every definition of it.
        classes: Class name -> every definition of it.
        calls: Every call expression in the project with its context.
    """

    def __init__(self, modules: Mapping[str, SourceModule]) -> None:
        self.modules = modules
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        self.calls: list[CallSite] = []
        for module in modules.values():
            self._index_module(module)

    def _index_module(self, module: SourceModule) -> None:
        def collect(expr: ast.expr, enclosing: FunctionInfo | None) -> None:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    self.calls.append(
                        CallSite(node, enclosing, module.name, module.path)
                    )

        def visit(
            nodes: list[ast.stmt],
            cls: str | None,
            enclosing: FunctionInfo | None,
        ) -> None:
            for node in nodes:
                if isinstance(node, _FUNCTION_NODES):
                    qual = node.name if cls is None else f"{cls}.{node.name}"
                    info = FunctionInfo(
                        qualname=f"{module.name}:{qual}",
                        name=node.name,
                        module=module.name,
                        path=module.path,
                        node=node,
                        cls=cls,
                    )
                    self.functions[info.qualname] = info
                    self.by_name.setdefault(node.name, []).append(info)
                    # Decorators and defaults evaluate in the enclosing
                    # scope, not inside the function being defined.
                    for expr in node.decorator_list + node.args.defaults:
                        collect(expr, enclosing)
                    for default in node.args.kw_defaults:
                        if default is not None:
                            collect(default, enclosing)
                    visit(node.body, None, info)
                elif isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, []).append(
                        ClassInfo(node.name, module.name, module.path, node)
                    )
                    for expr in node.decorator_list + node.bases:
                        collect(expr, enclosing)
                    visit(node.body, node.name, enclosing)
                else:
                    # Each call is collected exactly once: compound
                    # statements contribute only their header here and
                    # their bodies through the recursion below.
                    for expr in _shallow_expressions(node):
                        collect(expr, enclosing)
                    for body in _statement_bodies(node):
                        visit(body, cls, enclosing)

        visit(module.tree.body, None, None)

    def sites_calling(self, fn: FunctionInfo) -> list[CallSite]:
        """Call sites that may target ``fn``, resolved by name.

        A ``Name`` call matches same-module definitions; an
        ``x.name``/``self.name`` attribute call matches every
        definition of ``name`` anywhere (the attribute receiver is not
        type-resolved — callers must tolerate over-approximation).
        """
        sites: list[CallSite] = []
        for site in self.calls:
            func = site.call.func
            if isinstance(func, ast.Name) and func.id == fn.name:
                if site.module == fn.module:
                    sites.append(site)
            elif isinstance(func, ast.Attribute) and func.attr == fn.name:
                sites.append(site)
        return sites

    def class_named(self, name: str) -> ClassInfo | None:
        defs = self.classes.get(name)
        return defs[0] if defs else None


def _statement_bodies(node: ast.stmt) -> list[list[ast.stmt]]:
    """Statement lists nested directly inside a compound statement."""
    bodies: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(node, attr, None)
        if isinstance(value, list) and value and isinstance(
            value[0], ast.stmt
        ):
            bodies.append(value)
    for handler in getattr(node, "handlers", []):
        bodies.append(handler.body)
    return bodies


_MODEL_CACHE: list[tuple[Mapping[str, SourceModule], ProjectModel]] = []


def project_model(modules: Mapping[str, SourceModule]) -> ProjectModel:
    """Build (or reuse) the :class:`ProjectModel` for a module set.

    ``run_lint`` hands every rule the same mapping object; caching on
    identity lets each call-graph-aware rule share one symbol table.
    """
    for cached_modules, model in _MODEL_CACHE:
        if cached_modules is modules:
            return model
    model = ProjectModel(modules)
    _MODEL_CACHE.append((modules, model))
    del _MODEL_CACHE[:-4]
    return model


def _shallow_expressions(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expressions a statement evaluates *itself* (not nested bodies).

    For compound statements only the header belongs to the statement:
    ``if c:`` evaluates ``c``; its branches are visited on their own.
    """
    if isinstance(stmt, ast.If):
        yield stmt.test
    elif isinstance(stmt, ast.While):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
    elif isinstance(stmt, ast.Try):
        return
    elif isinstance(stmt, _FUNCTION_NODES + (ast.ClassDef,)):
        return
    else:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                yield child
