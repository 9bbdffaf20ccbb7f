import ast
import functools
import importlib
import runpy
from pathlib import Path
from types import ModuleType

import cdmac
from cdmac import koornwinder, laurent


def test_all_is_public_api_only():
    assert not [name for name in cdmac.__all__
                if isinstance(getattr(cdmac, name), ModuleType)]
    oracles = {"g_series_from_product", "eigenvalue_bracket_form", "surviving_tuples",
               "prs_gcd", "prs_lowest_terms", "field_series_eval", "field_qpoch"}
    assert not oracles & set(cdmac.__all__)


def test_no_program_module_imports_the_oracles():
    # perfbench re-imports the program modules to time set-up, and the
    # oracles must stay off that path and out of every compute path
    for path in Path(cdmac.__file__).parent.glob("*.py"):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any("oracle" in name for name in names), path.name


def test_traced_layers_keep_their_names():
    # perfbench/spans.py looks each traced layer up by module and name with
    # getattr, so `--trace 1` would crash on a renamed one
    assert callable(laurent.divide_exact)
    assert callable(koornwinder.koornwinder_apply)
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
    for mod, attrs in spans["SPANS"].values():
        owner = importlib.import_module(f"cdmac.{mod}")
        for qual in attrs:
            assert callable(functools.reduce(getattr, qual.split("."), owner)), (mod, qual)


def test_every_private_definition_is_referenced():
    # a deleted path must not leave its helpers behind: every module-level
    # private def or class is read somewhere in the package, by name or as
    # an attribute
    defined, used = [], set()
    for path in Path(cdmac.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_") and not node.name.startswith("__"):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert not [(mod, name) for mod, name in defined if name not in used]
