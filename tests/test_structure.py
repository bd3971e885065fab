"""Structural guards on the package source."""

import ast
from pathlib import Path

import flatsic.cli
import flatsic.legendre
import flatsic.polysys
import flatsic.search


def _private_flatsic_names(source: str) -> list[str]:
    """Underscore-prefixed names the module takes from flatsic modules, by
    `from ... import _name` or as `module_alias._name`."""
    tree = ast.parse(source)
    found, module_aliases = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("flatsic"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(alias.name)
            if node.module is None or node.module == "flatsic":
                module_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_cli_uses_public_library_names_only():
    source = Path(flatsic.cli.__file__).read_text(encoding="utf-8")
    assert _private_flatsic_names(source) == []


def test_guard_detects_private_imports():
    source = (
        "from .verify import _gik_gaps, is_sic\n"
        "from flatsic.verify import _table_csv\n"
        "from . import legendre as legendre_mod\n"
        "legendre_mod._residue_signs(7)\n"
        "from numpy import _private_ok\n"
    )
    assert _private_flatsic_names(source) == [
        "_gik_gaps",
        "_table_csv",
        "legendre_mod._residue_signs",
    ]


def _defined_names(tree: ast.Module) -> set[str]:
    """Every function, class and assigned name in the module, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _scipy_minimize_calls(tree: ast.Module) -> list[ast.Call]:
    """Calls made inside `minimize` to scipy.optimize.minimize, under any alias."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.optimize"
        for alias in node.names
        if alias.name == "minimize"
    }
    (func,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "minimize"
    ]
    return [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in aliases
    ]


def _search_tree() -> ast.Module:
    return ast.parse(Path(flatsic.search.__file__).read_text(encoding="utf-8"))


def test_search_defines_no_finite_difference_gradient():
    names = _defined_names(_search_tree())
    assert "_central_diff_grad" not in names
    assert "_GRADIENT_STEP" not in names


def test_search_minimizer_takes_gradient_from_objective():
    calls = _scipy_minimize_calls(_search_tree())
    assert len(calls) == 1
    jac = [kw.value for kw in calls[0].keywords if kw.arg == "jac"]
    assert len(jac) == 1
    assert isinstance(jac[0], ast.Constant) and jac[0].value is True


def _called_names(node: ast.AST) -> set[str]:
    """Dotted names of everything called under node: `f(...)` gives "f",
    `mod.f(...)` gives "mod.f"."""
    names = set()
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        parts, func = [], call.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name):
            names.add(".".join([func.id, *reversed(parts)]))
    return names


def test_called_names_sees_plain_and_attribute_calls():
    tree = ast.parse("import dataclasses as dc\ndc.astuple(x)\nastuple(y)\na.b.c(z)\n")
    assert _called_names(tree) == {"dc.astuple", "astuple", "a.b.c"}


def test_cli_builds_perron_rows_without_astuple():
    tree = ast.parse(Path(flatsic.cli.__file__).read_text(encoding="utf-8"))
    assert not {name for name in _called_names(tree) if name.split(".")[-1] == "astuple"}


def test_perron_table_counts_without_per_shift_calls():
    tree = ast.parse(Path(flatsic.legendre.__file__).read_text(encoding="utf-8"))
    (func,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "perron_table"
    ]
    assert "perron_counts" not in _called_names(func)


def test_perron_table_builds_no_records():
    tree = ast.parse(Path(flatsic.legendre.__file__).read_text(encoding="utf-8"))
    (func,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "perron_table"
    ]
    assert "PerronCounts" not in _called_names(func)


def test_polysys_has_no_dense_exponent_helpers():
    tree = ast.parse(Path(flatsic.polysys.__file__).read_text(encoding="utf-8"))
    assert not {"_mono", "_in_var_order", "_term_key"} & _defined_names(tree)
