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
        "_poly_line",
        "basis_vector",
        "eval_system",
        "check_d7_component_basis",
        "_D7_BASIS",
        "parse_poly",
        "parse_system",
        "_VAR_RE",
        "_FACTOR_RE",
    }
    for namespace in (flatsic, *_LIBRARY):
        assert not removed & set(vars(namespace)), namespace.__name__
    assert not hasattr(flatsic.Poly, "evaluate")


def _uncalled_public_names(sources: dict[str, str]) -> set[str]:
    """"module.name" for each name in a module's __all__ that no statement of
    the given sources references, the name's own top-level definition aside.
    A reference is a load of the bare name in its own module, a load of the
    name an import `from .module import name [as alias]` binds, or an
    attribute `alias.name` on a module bound by `from . import module [as
    alias]`; an attribute of anything else, such as cfg.objective, is not.
    sources maps each module's stem to its text."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    public = {
        stem: {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for elt in node.value.elts
        }
        for stem, tree in trees.items()
    }
    referenced = set()
    for stem, tree in trees.items():
        names, modules = {}, {}  # local binding -> (module, name), alias -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        # a name the module lists in __all__ is its own, imported there or not
        names.update({name: (stem, name) for name in public[stem]})
        for top in tree.body:
            defined = {getattr(top, "name", None)} | {
                getattr(target, "id", None) for target in getattr(top, "targets", ())
            }
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in names and node.id not in defined:
                        referenced.add(names[node.id])
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    referenced.add((modules[node.value.id], node.attr))
    return {
        f"{stem}.{name}"
        for stem, names in public.items()
        for name in names
        if (stem, name) not in referenced
    }


def test_uncalled_public_names_reads_module_aliases_not_other_attributes():
    sources = {
        "search": "__all__ = ['objective', 'minimize']\n"
        "def objective(config, angles):\n    return objective(config, angles)\n"
        "def minimize(config):\n    return 0\n",
        "legendre": "__all__ = ['perron_table', 'perron_counts']\n"
        "def perron_table(p):\n    return 1\n"
        "def perron_counts(p):\n    return perron_table(p)\n",
        "cli": "from . import legendre as legendre_mod\nfrom .search import minimize as run\n"
        "def main(cfg):\n    return cfg.objective, legendre_mod.perron_table(7), run(cfg)\n",
    }
    assert _uncalled_public_names(sources) == {"search.objective", "legendre.perron_counts"}


#: The public names no package or CLI statement references, each with why it
#: stays public.
_UNCALLED_PUBLIC_NAMES = {
    "weyl.apply_displacement": "leaves with item 5",
    "weyl.inner_product": "leaves with item 5",
    "legendre.legendre_symbol": "leaves with item 5",
    "legendre.perron_counts": "leaves with item 5",
    "search.objective": "leaves with item 5",
    "weyl.cvec": "user-facing: builds a CVec from any complex sequence",
    "polysys.poly": "user-facing: builds a Poly from dense exponent tuples",
    "ansatz.to_rescaled": "user-facing: converts a vector to the rescaled form",
    "legendre.classify_legendre": "ROADMAP item 1's `classify`",
}


def test_every_public_name_has_a_caller_or_a_pinned_reason():
    # a ratchet: a public name that loses its last caller either leaves the
    # package or is pinned here with a reason; item 5 is ROADMAP's
    # benchmark change, whose metric list names the five it lists
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(_PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    assert _uncalled_public_names(sources) == set(_UNCALLED_PUBLIC_NAMES)


#: Error texts of input invariants that used to be checked, each in its own
#: words, by several modules.
_ONE_SITE_MESSAGES = (
    "requires odd dimension",
    "rescaled first component must be real",
    "rescaled first component must be nonzero",
    "normalized vector has norm",
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


def _absolute_imports(source: str) -> set[str]:
    """Dotted names of what the source imports from outside the package:
    `import a.b` gives "a.b", `from a import b` gives "a.b"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found |= {f"{node.module}.{alias.name}" for alias in node.names}
    return found


def test_absolute_imports_sees_every_form():
    source = (
        "import csv\nimport os.path as p\nfrom itertools import groupby, chain\n"
        "from . import verify\ndef f():\n    import io\n"
    )
    assert _absolute_imports(source) == {
        "csv", "os.path", "itertools.groupby", "itertools.chain", "io"
    }


def test_text_writers_use_neither_csv_nor_groupby():
    # each exported text is formatted one row, prime or generator at a time;
    # csv.writer and a groupby per term cost one Python call per cell or term
    for path in sorted(_PACKAGE.glob("*.py")):
        imported = _absolute_imports(path.read_text(encoding="utf-8"))
        assert not {name for name in imported if name.split(".")[0] == "csv"}, path.stem
        assert "itertools.groupby" not in imported, path.stem


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


def _top_level_owners(source: str, hit) -> list[str | None]:
    """For each node of the source for which hit(node) holds, in the order of
    ast.walk under each top-level statement, the top-level function it sits
    in, None outside every function."""
    owners = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        owners += [owner for node in ast.walk(top) if hit(node)]
    return owners


def _numpy_fft_owners(source: str) -> list[str | None]:
    """For each reference the source makes to numpy.fft (np.fft.*, or an
    import of numpy.fft in any form), the top-level function it sits in,
    None outside every function."""

    def hit(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "fft" and isinstance(node.value, ast.Name) and (
                node.value.id in ("np", "numpy")
            )
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith("numpy.fft") or (
                module == "numpy" and any(alias.name == "fft" for alias in node.names)
            )
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.fft") for alias in node.names)
        return False

    return _top_level_owners(source, hit)


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


def test_canonical_match_runs_over_no_range_of_shifts():
    # one transform gives every shift's overlap; only candidates are checked
    (func,) = [
        node
        for node in _search_tree().body
        if isinstance(node, ast.FunctionDef) and node.name == "canonical_match"
    ]
    assert "range" not in _called_names(func)


#: weyl's spectral kernel: the package's own numpy.fft transforms.
_SPECTRAL_KERNEL = {"autocorrelation", "clock_shift_rows", "overlap_rows"}


def _spectral_kernel_references(source: str) -> set[str]:
    """The spectral kernel functions the source names: imported from any
    module under any alias, called or referenced bare, or taken as an
    attribute such as weyl.<name>."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names & _SPECTRAL_KERNEL


def test_spectral_kernel_references_sees_every_form():
    source = (
        "from .weyl import clock_shift_rows as rows, cvec\n"
        "from . import weyl as kernel\n"
        "def f(w):\n    return kernel.autocorrelation(w) + rows(w, [0])\n"
        "def g(w):\n    table = weyl.overlap_rows\n    return table(w, [1])\n"
    )
    assert _spectral_kernel_references(source) == _SPECTRAL_KERNEL
    clean = (
        "from .weyl import cvec, _x_lags as lags\n"
        "def f(w):\n    return my_autocorrelation(w) + weyl.cvec(w).overlap_rows_of\n"
    )
    assert _spectral_kernel_references(clean) == set()


def test_search_reads_no_spectral_kernel_function():
    # every objective, sic included, transforms through the plan's pair
    source = Path(flatsic.search.__file__).read_text(encoding="utf-8")
    assert _spectral_kernel_references(source) == set()


#: The entry-by-entry definitions of weyl that the spectral kernel replaced.
_ENTRY_BY_ENTRY = {"apply_displacement", "inner_product"}


def _entry_by_entry_callers(source: str) -> list[str]:
    """Functions of the source, at any depth, that call apply_displacement
    or inner_product, directly or through the module-level functions they
    call."""
    tree = ast.parse(source)
    callers = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            direct = {name.split(".")[-1] for name in _called_names(func)}
            if (direct | _reachable_calls(tree, direct)) & _ENTRY_BY_ENTRY:
                callers.append(func.name)
    return callers


def test_entry_by_entry_callers_follows_helpers_and_methods():
    source = (
        "def z_shift(psi, k):\n    return _helper(psi, k)\n"
        "def _helper(psi, k):\n    return weyl.apply_displacement(psi, 0, k)\n"
        "class T:\n    def overlap(self, a, b):\n        return inner_product(a, b)\n"
        "def clean(psi):\n    return np.vdot(psi, psi)\n"
    )
    assert _entry_by_entry_callers(source) == ["z_shift", "_helper", "overlap"]


def test_no_package_function_reaches_the_entry_by_entry_definitions():
    # every displacement quantity is read from the spectral kernel;
    # apply_displacement and inner_product are the tests' definitions
    callers = [
        (path.stem, name)
        for path in sorted(_PACKAGE.glob("*.py"))
        for name in _entry_by_entry_callers(path.read_text(encoding="utf-8"))
    ]
    assert callers == []


def _pi_exponential_owners(source: str) -> list[str | None]:
    """For each exp call whose argument mentions pi (np.pi, math.pi or a
    bare pi), the top-level function it sits in, None outside every
    function."""

    def hit(node: ast.AST) -> bool:
        return _call_leaf(node) == "exp" and any(
            (isinstance(sub, ast.Attribute) and sub.attr == "pi")
            or (isinstance(sub, ast.Name) and sub.id == "pi")
            for arg in node.args
            for sub in ast.walk(arg)
        )

    return _top_level_owners(source, hit)


def test_pi_exponential_owners_sees_every_form():
    source = (
        "W = np.exp(2j * np.pi / 7)\n"
        "def a(m, d):\n    return numpy.exp(-2j * (np.pi * m) / d)\n"
        "def b(ang):\n    return np.exp(1j * ang) * np.pi\n"
        "def c(m):\n    def inner(x):\n        return cmath.exp(1j * pi * x)\n    return inner(m)\n"
    )
    assert _pi_exponential_owners(source) == [None, "a", "c"]


def test_one_site_each_for_omega_and_tau_powers():
    owners = [
        (path.stem, owner)
        for path in sorted(_PACKAGE.glob("*.py"))
        for owner in _pi_exponential_owners(path.read_text(encoding="utf-8"))
    ]
    assert owners == [("weyl", "_tau_phase"), ("weyl", "_omega_phase")]


def _numpy_lib_references(source: str) -> set[str]:
    """What the source takes from numpy.lib: each import of it, in any form,
    by its dotted name, and each attribute np.lib or numpy.lib."""
    imported = {name for name in _absolute_imports(source) if f"{name}.".startswith("numpy.lib.")}
    attributes = {
        f"{node.value.id}.lib"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "lib"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    }
    return imported | attributes


def test_numpy_lib_references_sees_every_form():
    source = (
        "from numpy.lib.stride_tricks import sliding_window_view\n"
        "import numpy.lib.stride_tricks as tricks\n"
        "from numpy import lib, linalg\n"
        "import numpy.library\n"
        "def f(x):\n    return np.lib.stride_tricks.as_strided(x)\n"
        "def g(x):\n    return numpy.linalg.norm(x) + lib_size(x)\n"
    )
    assert _numpy_lib_references(source) == {
        "numpy.lib.stride_tricks.sliding_window_view",
        "numpy.lib.stride_tricks",
        "numpy.lib",
        "np.lib",
    }


def test_legendre_takes_nothing_from_numpy_lib():
    # Perron's counts are one autocorrelation, not a window view of the
    # Rest indicator
    source = Path(flatsic.legendre.__file__).read_text(encoding="utf-8")
    assert _numpy_lib_references(source) == set()


def _doubled_index_owners(source: str) -> list[str | None]:
    """For each reduction of a doubled index, (2 * x) % m or (x * 2) % m, also
    through np.mod or np.remainder, the top-level function it sits in, None
    outside every function."""

    def hit(node: ast.AST) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            reduced = node.left
        elif _call_leaf(node) in ("mod", "remainder") and node.args:
            reduced = node.args[0]
        else:
            return False
        return (
            isinstance(reduced, ast.BinOp)
            and isinstance(reduced.op, ast.Mult)
            and 2 in {getattr(reduced.left, "value", None), getattr(reduced.right, "value", None)}
        )

    return _top_level_owners(source, hit)


def test_doubled_index_owners_sees_every_form():
    source = (
        "LAGS = (2 * np.arange(1, 7)) % 7\n"
        "def a(j, d):\n    return j * 2 % d\n"
        "def b(j, d):\n    return np.mod(2 * j, d) + np.remainder(j * 2, d)\n"
        "def c(j, d):\n    return (2 * j - 1) % d + (j ** 2) % d + j % (2 * d) + (3 * j) % d\n"
        "class T:\n    def f(self, d):\n        return (2 * self.j) % d\n"
    )
    assert _doubled_index_owners(source) == [None, "a", "b", "b", None]


def test_one_site_for_the_x_overlap_lag_pairing():
    # index j of the X-overlap equation reads autocorrelation lag 2j mod d;
    # weyl._x_lags forms that pairing, and every reader takes it from there
    owners, readers = [], []
    for path in sorted(_PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        owners += [(path.stem, owner) for owner in _doubled_index_owners(source)]
        readers += [
            (path.stem, node.name)
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and "_x_lags" in {name.split(".")[-1] for name in _called_names(node)}
        ]
    assert owners == [("weyl", "_x_lags")]
    assert readers == [
        ("ansatz", "x_overlap_deviations"),
        ("legendre", "lemma1_deviation"),
        ("search", "_plan"),
    ]


def _loops(node: ast.AST) -> list[str]:
    """The kinds of loop under node, at any depth: for and while statements
    and comprehensions of every kind."""
    kinds = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    return [type(sub).__name__ for sub in ast.walk(node) if isinstance(sub, kinds)]


def test_loops_sees_every_form():
    tree = ast.parse(
        "def f(xs):\n    for x in xs:\n        while x:\n            x -= 1\n"
        "    return [x for x in xs], {x for x in xs}, {x: 1 for x in xs}, sum(x for x in xs)\n"
        "def g(x):\n    return autocorrelation(x) + h(x)\n"
    )
    f, g = tree.body
    assert sorted(_loops(f)) == ["DictComp", "For", "GeneratorExp", "ListComp", "SetComp", "While"]
    assert _loops(g) == []


def test_lemma1_reads_both_branches_from_one_autocorrelation():
    tree = ast.parse(Path(flatsic.legendre.__file__).read_text(encoding="utf-8"))
    (func,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "lemma1_deviation"
    ]
    assert [_call_leaf(node) for node in ast.walk(func)].count("autocorrelation") == 1
    assert _loops(func) == []


_REPO = Path(__file__).resolve().parent.parent

#: The Python sources that must run on the oldest interpreter pyproject.toml
#: allows.
_PY310_SOURCES = [
    path
    for folder in ("src/flatsic", "tests", "perfbench")
    for path in sorted((_REPO / folder).glob("*.py"))
]


def test_python_310_grammar_rejects_exception_groups():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize(
    "path", _PY310_SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_sources_parse_with_the_python_310_grammar(path):
    """Every module of the package, the tests and perfbench parses with the
    Python 3.10 grammar.  feature_version is best effort: it rejects 3.11
    syntax such as except*, but not every 3.11-only construct (a starred
    annotation such as *Ts still parses), and it checks no library call, so
    it stands in for a 3.10 interpreter only in part."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # under pyproject.toml's warning filters Hypothesis's failure report
    # must not raise: a raise there is an INTERNALERROR that ends the
    # session, and every test after the failing one goes unrun
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    config = ["-c", str(_REPO / "pyproject.toml"), "--rootdir", str(tmp_path)]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *config, "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout
    assert "1 failed, 1 passed" in result.stdout, result.stdout
