"""Structural guards on the package source."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import flatsic
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


def _search_tree() -> ast.Module:
    return ast.parse(Path(flatsic.search.__file__).read_text(encoding="utf-8"))


def test_search_defines_no_finite_difference_gradient():
    names = _defined_names(_search_tree())
    assert "_central_diff_grad" not in names
    assert "_GRADIENT_STEP" not in names


def test_search_minimizer_evaluates_only_the_plan(monkeypatch):
    # minimize builds one plan and takes every value and gradient from it:
    # the evaluations its results count are the rows the plan's function was
    # given, and the single-point entry points are never called.  Nor does
    # search.py define a finite-difference step or import an outside minimizer.
    plans, rows = [], []
    plan = flatsic.search._plan

    def counting_plan(config):
        evaluate = plan(config)
        plans.append(config)

        def counted(angles):
            rows.append(len(angles))
            return evaluate(angles)

        return counted

    def forbidden(*args):
        raise AssertionError("minimize evaluated outside its plan")

    monkeypatch.setattr(flatsic.search, "_plan", counting_plan)
    monkeypatch.setattr(flatsic.search, "objective", forbidden)
    monkeypatch.setattr(flatsic.search, "objective_and_gradient", forbidden)
    config = flatsic.SearchConfig(dim=11, objective="naive_x", seed=4, restarts=6)
    _, results = flatsic.search.minimize(config)
    assert plans == [config]
    assert sum(rows) == sum(r.evaluations for r in results)
    tree = _search_tree()
    assert not {"_central_diff_grad", "_GRADIENT_STEP"} & _defined_names(tree)
    imported = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not {name for name in imported if name and name.split(".")[0] == "scipy"}


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


#: What the search objectives must not build per evaluation: each wraps the
#: v-form array in a frozen record or a validated, copied vector.
_VECTOR_WRAPPERS = {"build_ansatz", "to_vform", "to_normalized", "CVec"}


def _reachable_calls(tree: ast.Module, roots) -> set[str]:
    """Last components of the names called by the module-level functions in
    roots and, transitively, by every module-level function they call."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo, called = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        names = {dotted.split(".")[-1] for dotted in _called_names(functions[name])}
        called |= names
        todo.extend(names)
    return called


def test_reachable_calls_follows_module_functions():
    tree = ast.parse(
        "def objective_and_gradient(c, a):\n    return _helper(a)\n"
        "def _helper(a):\n    return ansatz.to_vform(build(a))\n"
        "def unrelated():\n    return CVec(1)\n"
    )
    assert _reachable_calls(tree, ["objective_and_gradient"]) == {"_helper", "to_vform", "build"}


def test_search_objectives_build_no_vector_records():
    called = _reachable_calls(_search_tree(), ["objective_and_gradient", "minimize"])
    assert not called & _VECTOR_WRAPPERS


def _innermost_functions(tree: ast.AST):
    """(function, nodes of its body outside any nested function) pairs."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes, todo = [], list(ast.iter_child_nodes(func))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            nodes.append(node)
            todo.extend(ast.iter_child_nodes(node))
        yield func, nodes


def _call_leaf(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _builds_vform(nodes) -> bool:
    """True when the nodes take exp(1j * angles) or the pairing
    v_{d-j} = -conj(v_j), the two steps that turn angles into a v-form."""
    for node in nodes:
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and _call_leaf(node.operand) == "conj"
        ):
            return True
        if _call_leaf(node) == "exp" and node.args:
            arg = node.args[0]
            if (
                isinstance(arg, ast.BinOp)
                and isinstance(arg.op, ast.Mult)
                and {type(arg.left), type(arg.right)} == {ast.Constant, ast.Name}
                and 1j in {getattr(arg.left, "value", None), getattr(arg.right, "value", None)}
            ):
                return True
    return False


def _vform_builders(source: str) -> list[str]:
    functions = _innermost_functions(ast.parse(source))
    return [func.name for func, nodes in functions if _builds_vform(nodes)]


def test_vform_builder_detection():
    source = (
        "def build(ang):\n    return np.exp(1j * ang)\n"
        "def pair(v):\n    return -np.conj(v[::-1])\n"
        "def outer(ang):\n    def inner(v):\n        return -conj(v)\n    return inner\n"
        "def phases(m, d):\n    return np.exp(1j * np.pi * m / d) * np.conj(m)\n"
    )
    assert sorted(_vform_builders(source)) == ["build", "inner", "pair"]


def test_one_package_function_builds_the_vform_from_angles():
    package = Path(flatsic.search.__file__).parent
    builders = [
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        for name in _vform_builders(path.read_text(encoding="utf-8"))
    ]
    assert builders == [("ansatz", "_vform_array")]


_PACKAGE = Path(flatsic.__file__).parent

#: The library modules: every module of the package except the CLI.
_LIBRARY = [
    importlib.import_module(f"flatsic.{path.stem}")
    for path in sorted(_PACKAGE.glob("*.py"))
    if path.stem not in ("__init__", "cli")
]


def test_package_exports_exactly_the_module_public_names():
    exported = {
        name
        for name, value in vars(flatsic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = set().union(*(module.__all__ for module in _LIBRARY))
    assert exported == declared


def test_only_ansatz_takes_the_square_root_of_x0():
    callers = [
        path.stem
        for path in sorted(_PACKAGE.glob("*.py"))
        if "cmath.sqrt" in _called_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert callers == ["ansatz"]


def test_second_paths_stay_removed():
    removed = {
        "dft",
        "omega_power",
        "phase_constants",
        "PhaseConstants",
        "vform_x_overlap_deviations",
        "_vform_x_gaps",
        "_sqrt_x0",
        "_row_phases",
        "gik_rows",
        "sic_residual",
        "ansatz_to_json",
        "ansatz_from_json",
        "classification_csv_header",
        "classification_csv_row",
        "gik_quartic",
        "gik_fourier",
        "tau_power",
        "_from_monomials",
    }
    for namespace in (flatsic, *_LIBRARY):
        assert not removed & set(vars(namespace)), namespace.__name__


#: Error texts of input invariants that used to be checked, each in its own
#: words, by several modules.
_ONE_SITE_MESSAGES = (
    "requires odd dimension",
    "rescaled first component must be real",
    "rescaled first component must be nonzero",
    "normalized vector has norm",
    "expected a point of length",
    "must have unit modulus",
    "purely real or purely imaginary",
    "squared modulus |x0|",
    "does not satisfy (x0+2)^2",
    "is not finite",
    "must be positive and finite",
)


@pytest.mark.parametrize("text", _ONE_SITE_MESSAGES)
def test_each_invariant_message_has_one_site(text):
    sites = [
        path.stem
        for path in sorted(_PACKAGE.glob("*.py"))
        for _ in range(path.read_text(encoding="utf-8").count(text))
    ]
    assert len(sites) == 1, sites


def _imported_flatsic_modules(source: str) -> set[str]:
    """Last components of the flatsic modules the source imports, by any
    form of import statement."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("flatsic"):
                continue
            if module in ("", "flatsic"):  # from . import m, from flatsic import m
                found |= {alias.name for alias in node.names}
            else:
                found.add(module.split(".")[-1])
        elif isinstance(node, ast.Import):
            found |= {
                alias.name.split(".")[-1]
                for alias in node.names
                if alias.name.startswith("flatsic.")
            }
    return found


def test_imported_modules_sees_every_import_form():
    source = (
        "from .vectorio import dump_vector\n"
        "from . import verify\n"
        "from flatsic import legendre\n"
        "from flatsic.weyl import cvec\n"
        "import flatsic.search\n"
        "from numpy import linalg\n"
    )
    assert _imported_flatsic_modules(source) == {"vectorio", "verify", "legendre", "weyl", "search"}


def test_only_the_cli_reads_the_file_format_module():
    # the vector-form invariants live in weyl.CVec; vectorio only decodes JSON
    importers = [
        module.__name__
        for module in _LIBRARY
        if "vectorio" in _imported_flatsic_modules(Path(module.__file__).read_text("utf-8"))
    ]
    assert importers == []


def test_cli_import_leaves_scipy_optimize_unloaded():
    # importing the CLI loads no scipy.optimize, and a search loads no scipy
    # at all: the minimizer is the package's own
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    probe = (
        "import sys, flatsic.cli\n"
        "imported = 'scipy.optimize' in sys.modules\n"
        "argv = ['--porcelain', 'search', '--d', '7', '--objective', 'xoverlap',"
        " '--seed', '1', '--restarts', '2']\n"
        "code = flatsic.cli.main(argv)\n"
        "print(imported, code, 'scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.stdout.splitlines()[-1:] == ["False 0 False"], result.stderr


def _numpy_fft_owners(source: str) -> list[str | None]:
    """For each reference the source makes to numpy.fft (np.fft.*, or an
    import of numpy.fft in any form), the top-level function it sits in,
    None outside every function."""
    owners = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                hit = node.attr == "fft" and isinstance(node.value, ast.Name) and (
                    node.value.id in ("np", "numpy")
                )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                hit = module.startswith("numpy.fft") or (
                    module == "numpy" and any(alias.name == "fft" for alias in node.names)
                )
            elif isinstance(node, ast.Import):
                hit = any(alias.name.startswith("numpy.fft") for alias in node.names)
            else:
                hit = False
            if hit:
                owners.append(owner)
    return owners


def test_numpy_fft_owners_sees_every_form():
    source = (
        "import numpy.fft\n"
        "from numpy import fft\n"
        "def a(x):\n"
        "    from numpy.fft import ifft\n"
        "    return np.fft.fft(x)\n"
        "class B:\n"
        "    def f(self, x):\n"
        "        return numpy.fft.ifft(x)\n"
        "def c(x):\n"
        "    def inner(y):\n"
        "        return np.fft.fft(y)\n"
        "    return inner(np.linalg.norm(x))\n"
    )
    assert _numpy_fft_owners(source) == [None, None, "a", "a", None, "c"]


def test_search_transforms_only_through_its_transform_pair():
    # every search objective reads the plan's (fft, ifft); numpy.fft is
    # chosen, by d, in one place
    source = Path(flatsic.search.__file__).read_text(encoding="utf-8")
    owners = _numpy_fft_owners(source)
    assert owners and set(owners) == {"_transform_pair"}
