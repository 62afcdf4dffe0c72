"""Package hygiene: exported names resolve and module imports are used."""

import argparse
import ast
import importlib
import pathlib
import re

import pytest

import ymflow
from ymflow.cli import build_parser

SOURCE = pathlib.Path(ymflow.__file__).parent
MODULES = sorted(p.stem for p in SOURCE.glob("*.py"))


def _module_name(stem):
    return "ymflow" if stem == "__init__" else f"ymflow.{stem}"


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_resolve(stem):
    module = importlib.import_module(_module_name(stem))
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"


def _imported_names(nodes):
    """(bound name, line) of every import among nodes, __future__ aside."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("stem", MODULES)
def test_no_unused_module_imports(stem):
    tree = ast.parse((SOURCE / f"{stem}.py").read_text())
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # a name listed in __all__ is re-exported, hence used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree.body)
              if name not in used]
    assert not unused, f"{stem}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("stem", MODULES)
def test_no_function_imports_a_module_import_again(stem):
    # a name the module imports at top level is in scope in every function
    tree = ast.parse((SOURCE / f"{stem}.py").read_text())
    top = {name for name, _ in _imported_names(tree.body)}
    local = {node for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)}
    again = sorted(f"{name} (line {line})" for name, line in _imported_names(local)
                   if name in top)
    assert not again, f"{stem}.py imports again in a function: {again}"


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py"))
                         + sorted(pathlib.Path(__file__).parent.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_sources_parse_as_python_3_10(path):
    # Python 3.10 is the requires-python floor, so no later syntax
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# every flag a subcommand accepts is one it reads
COMMAND_OPTIONS = {
    "sample": {"--config", "--seed", "--output"},
    "flow": {"--config", "--input", "--output"},
    "wilson": {"--config", "--input", "--loops", "--output"},
    "ensemble": {"--config", "--seed", "--threads", "--output"},
    "verify": set(),
}


def test_subcommand_option_sets_pinned():
    parser = build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    options = {name: {opt for action in p._actions for opt in action.option_strings}
               - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == COMMAND_OPTIONS



def test_test_only_helpers_stay_out_of_the_package():
    # the helpers only tests call (the dense loop table and the Philox
    # block function among them) live in tests/reference.py, and the gauge transforms with the checks built on
    # them in tests/gauge.py; with them the samplers stopped importing the
    # loop module
    import gauge
    import reference
    moved = {"covariance_diagnostic", "CovarianceReport", "_truncated_green",
             "_transverse_green", "reverse_loop", "reparametrize",
             "format_loop_file", "algebra_defect", "project_algebra",
             "GaugeTransform", "_conjugate", "_dexp_neg", "gauge_act",
             "gauge_transform", "gauge_transform_spectral",
             "GaugeTransformedEvaluator", "axis_cycle",
             "gauge_covariance_check", "action_decay_profile",
             "transverse_frame", "loop_fourier_coefficients", "philox4x64_10",
             "coulomb_project_u1", "d_star_1form", "ym_action_u1_spectral"}
    assert all(hasattr(reference, name) or hasattr(gauge, name) for name in moved)
    for stem in MODULES:
        module = importlib.import_module(_module_name(stem))
        assert not [name for name in moved if hasattr(module, name)], stem
    tree = ast.parse((SOURCE / "gff.py").read_text())
    assert "wilson" not in {node.module for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom)}


# readers of the package's own output files, which no command reads back
READERS = {"load_records", "read_manifest"}


def _overrides_a_base(stem, class_name, name):
    cls = getattr(importlib.import_module(_module_name(stem)), class_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def test_every_package_function_has_a_package_caller():
    # a module-level function or class, or a method or property defined in a
    # class body, that only tests call belongs in tests/reference.py.  A
    # function or class counts as called from anywhere in src/ outside the
    # definition itself, by name or as a module attribute; a method when src/
    # code outside its own body loads its name as an attribute.  Dunders and
    # overrides of a base-class hook (cli._Parser.error) are called by Python
    # or by the base class.
    trees = {stem: ast.parse((SOURCE / f"{stem}.py").read_text()) for stem in MODULES}
    defined, loads, methods, attributes = set(), set(), [], []
    for stem, tree in trees.items():
        inner = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                inner.update((id(sub), node.name) for sub in ast.walk(node))
            if isinstance(node, ast.ClassDef):
                methods += [(f"{node.name}.{fn.name}", fn.name,
                             {id(sub) for sub in ast.walk(fn)})
                            for fn in node.body if isinstance(fn, ast.FunctionDef)
                            and not re.fullmatch(r"__\w+__", fn.name)
                            and not _overrides_a_base(stem, node.name, fn.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
                attributes.append((id(node), name))
            else:
                continue
            if (id(node), name) not in inner:
                loads.add(name)
    uncalled = sorted(defined - loads - READERS) + sorted(
        qualname for qualname, name, body in methods
        if not any(attr == name and node not in body for node, attr in attributes))
    assert not uncalled, f"package functions and methods no package code calls: {uncalled}"


@pytest.mark.parametrize("message", [
    "coupling must be finite and positive",
    "scale_to_h1 must be finite and positive",
    "must be in [0, 2**64)",
    "a complete [sampler] section is required",
    "a [flow] section is required",
])
def test_one_raise_site_per_input_rule(message):
    # each rule is raised by its owner; the others call it
    text = "".join(p.read_text() for p in sorted(SOURCE.glob("*.py")))
    assert text.count(message) == 1, message


# slicing the flat cube's upper half: where the canonical half modes sit
UPPER_HALF = re.compile(r"//\s*2\s*:\s*\]|\+\s*1\s*:\s*\]|\*\*\s*3\s*\+\s*1\s*\)\s*//\s*2")


def test_one_home_for_the_canonical_half_layout():
    # fields states where the canonical half modes sit in flat order, and
    # wilson._visible_half where the visible ones do; every other module
    # reads those two
    sources = {stem: (SOURCE / f"{stem}.py").read_text() for stem in MODULES}
    [helper] = [node for node in ast.parse(sources["wilson"]).body
                if isinstance(node, ast.FunctionDef) and node.name == "_visible_half"]
    helper_text = ast.get_source_segment(sources["wilson"], helper)
    assert UPPER_HALF.search(helper_text) and UPPER_HALF.search(sources["fields"])
    sources["wilson"] = sources["wilson"].replace(helper_text, "")
    sliced = [stem for stem, text in sources.items()
              if stem != "fields" and UPPER_HALF.search(text)]
    assert not sliced, f"modules that slice the flat upper half themselves: {sliced}"


# what a test writes when it derives, itself, a gap that verify.py
# measures: each pattern list must all match within one function
DERIVED_GAPS = {
    "ZDDS dual path": [r'path\s*=\s*"(operator|explicit)"'],
    "U(1) flow against the heat semigroup": [r"heat_semigroup_u1\(", r"/\s*l2_norm\("],
    "Wilson ODE against the exact formula": [r"wilson_loop\(", r"u1_value\(h_series\("],
    "gradient ratio": [r"ym_action\(", r"ym_rhs\(", r"eps"],
    "Jacobi identity": [r"bracket\(\w+,\s*bracket\("],
    "Parseval": [r"l2_norm\(", r"np\.mean\(np\.sum\("],
    "transform round trip": [r"to_coeffs\(to_grid\(", r"np\.max\(np\.abs\("],
    "YM against ZDDS": [r"\.actions\[", r"wilson_loop\(", r'"ym"', r'"zdds"'],
}


def test_one_derivation_per_checked_identity():
    # verify.py derives each checked identity's gap once; tests call its
    # functions on their own data at their own tolerances
    derived = []
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        text = path.read_text()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                body = ast.get_source_segment(text, node)
                derived += [f"{path.name}::{node.name} ({name})"
                            for name, patterns in DERIVED_GAPS.items()
                            if all(re.search(p, body) for p in patterns)]
    assert not derived, f"tests that derive a verify gap themselves: {derived}"
