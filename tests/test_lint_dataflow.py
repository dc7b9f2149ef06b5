"""Tests for the lint symbol table and call graph (dataflow / callgraph)."""

import ast

from repro.lint.callgraph import (
    argument_for,
    resolve_keyword_keys,
    resolve_string_values,
)
from repro.lint.dataflow import (
    ProjectModel,
    call_name,
    dotted,
    project_model,
    walk_scoped,
)
from repro.lint.engine import SourceModule


def _module(name, source):
    return SourceModule.parse(name, f"{name.replace('.', '/')}.py", source)


def _model(**sources):
    return ProjectModel({
        name: _module(name, src) for name, src in sources.items()
    })


class TestDotted:
    def test_attribute_chain(self):
        assert dotted(ast.parse("a.b.c", mode="eval").body) == "a.b.c"

    def test_plain_name(self):
        assert dotted(ast.parse("x", mode="eval").body) == "x"

    def test_computed_target_is_none(self):
        assert dotted(ast.parse("a[0].b", mode="eval").body) is None


class TestProjectModel:
    def test_indexes_functions_methods_and_classes(self):
        model = _model(m=(
            "class C:\n"
            "    def method(self):\n"
            "        return 1\n"
            "def plain():\n"
            "    return 2\n"
        ))
        assert "m:C.method" in model.functions
        assert "m:plain" in model.functions
        assert model.functions["m:C.method"].is_method
        assert model.class_named("C") is not None

    def test_each_call_collected_exactly_once(self):
        model = _model(m=(
            "def f(x):\n"
            "    if g(x):\n"
            "        return h(x)\n"
            "    for item in items(x):\n"
            "        consume(item)\n"
            "    return tail(x)\n"
        ))
        names = sorted(
            call_name(site.call) for site in model.calls
        )
        assert names == ["consume", "g", "h", "items", "tail"]

    def test_sites_calling_name_matches_same_module_only(self):
        model = _model(
            a="def target():\n    return 0\ndef caller():\n    return target()\n",
            b="def other():\n    return target()\n",
        )
        fn = model.functions["a:target"]
        sites = model.sites_calling(fn)
        assert [site.module for site in sites] == ["a"]

    def test_sites_calling_attribute_matches_everywhere(self):
        model = _model(
            a="class C:\n    def target(self):\n        return 0\n",
            b="def use(c):\n    return c.target()\n",
        )
        fn = model.functions["a:C.target"]
        assert [site.module for site in model.sites_calling(fn)] == ["b"]

    def test_project_model_cached_by_identity(self):
        modules = {"m": _module("m", "x = 1\n")}
        assert project_model(modules) is project_model(modules)


class TestWalkScoped:
    def _scopes_of(self, source, predicate):
        tree = ast.parse(source)
        return [
            [fn.name for fn in scopes]
            for node, scopes in walk_scoped(tree) if predicate(node)
        ]

    def test_nested_bodies_carry_every_enclosing_function(self):
        scopes = self._scopes_of(
            "def outer():\n"
            "    def inner():\n"
            "        return ('lp', 1.0)\n",
            lambda node: isinstance(node, ast.Tuple),
        )
        assert scopes == [["outer", "inner"]]

    def test_decorators_and_defaults_belong_to_defining_scope(self):
        scopes = self._scopes_of(
            "@tag(('lp', 1.0))\n"
            "def f(x=('interval', 0.0, 1.0)):\n"
            "    pass\n",
            lambda node: isinstance(node, ast.Tuple),
        )
        assert scopes == [[], []]


class TestCallgraphResolution:
    def test_constant_resolves(self):
        model = _model(m="x = 1\n")
        expr = ast.parse("'lit'", mode="eval").body
        result = resolve_string_values(expr, None, model)
        assert result.values == {"lit"} and result.complete

    def test_ifexp_resolves_both_arms(self):
        model = _model(m="x = 1\n")
        expr = ast.parse("'a' if c else 'b'", mode="eval").body
        result = resolve_string_values(expr, None, model)
        assert result.values == {"a", "b"}

    def test_parameter_resolved_through_call_sites(self):
        model = _model(m=(
            "def sink(name):\n"
            "    emitted(f'cache.{name}')\n"
            "def one():\n"
            "    sink('hits')\n"
            "def two():\n"
            "    sink('misses')\n"
        ))
        site = next(
            s for s in model.calls if call_name(s.call) == "emitted"
        )
        result = resolve_string_values(
            site.call.args[0], site.enclosing, model
        )
        assert result.values == {"cache.hits", "cache.misses"}
        assert result.complete

    def test_method_positional_shift(self):
        model = _model(m=(
            "class C:\n"
            "    def fire(self, site):\n"
            "        emitted(site)\n"
            "def go(c):\n"
            "    c.fire('solver.fault')\n"
        ))
        fn = model.functions["m:C.fire"]
        site = next(
            s for s in model.calls if call_name(s.call) == "c.fire"
        )
        arg = argument_for(site, fn, "site")
        assert isinstance(arg, ast.Constant) and arg.value == "solver.fault"

    def test_unresolvable_marks_incomplete(self):
        model = _model(m=(
            "def sink(name):\n"
            "    emitted(name)\n"
        ))
        site = next(
            s for s in model.calls if call_name(s.call) == "emitted"
        )
        result = resolve_string_values(
            site.call.args[0], site.enclosing, model
        )
        assert not result.complete

    def test_forwarding_cycle_terminates(self):
        model = _model(m=(
            "def a(name):\n"
            "    b(name)\n"
            "def b(name):\n"
            "    a(name)\n"
            "    emitted(name)\n"
            "def entry():\n"
            "    b('real.event')\n"
        ))
        site = next(
            s for s in model.calls if call_name(s.call) == "emitted"
        )
        result = resolve_string_values(
            site.call.args[0], site.enclosing, model
        )
        assert "real.event" in result.values

    def test_kwargs_forwarding_resolves_keys(self):
        model = _model(m=(
            "def sink(name, **fields):\n"
            "    emit(name, **fields)\n"
            "def go():\n"
            "    sink('x', alpha=1, beta=2)\n"
        ))
        site = next(
            s for s in model.calls if call_name(s.call) == "emit"
        )
        result = resolve_keyword_keys(site.call, site.enclosing, model)
        assert result.values == {"alpha", "beta"}
        assert result.complete

    def test_non_kwargs_star_expansion_incomplete(self):
        model = _model(m=(
            "def go(d):\n"
            "    emit('x', **d)\n"
        ))
        site = next(
            s for s in model.calls if call_name(s.call) == "emit"
        )
        result = resolve_keyword_keys(site.call, site.enclosing, model)
        assert not result.complete
