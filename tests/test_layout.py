"""The README library table, its command-line block and the package's
import structure, checked against the code."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import trimatch
from trimatch.cli import GENERATORS, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(trimatch.__file__).resolve().parent
TABLE_ROW = re.compile(r"^\| `(trimatch\.\w+)` \| (.*) \|$")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
QUALIFIED = re.compile(r"(trimatch\.\w+)\.(\w+)")


def library_table():
    """(module name, backticked identifiers) per row of the library table.

    A backticked `trimatch.<module>.<name>` is read as that module's row
    naming the identifier.  Other backticked items that are not identifiers
    (`min(psi, cap)`, `Graph.adj`, a module path) are prose, not names, and
    are left out.
    """
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        match = TABLE_ROW.match(line)
        if match:
            items = re.findall(r"`([^`]*)`", match.group(2))
            names = [item for item in items if IDENTIFIER.fullmatch(item)]
            rows.append((match.group(1), names))
            rows += [(q.group(1), [q.group(2)]) for q in map(QUALIFIED.fullmatch, items) if q]
    return rows


def function_level_package_imports(path):
    """(function name, line) of every import of a trimatch module made
    inside a function of the given source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                hit = node.level > 0 or (node.module or "").split(".")[0] == "trimatch"
            elif isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[0] == "trimatch" for alias in node.names)
            else:
                continue
            if hit:
                found.append((fn.name, node.lineno))
    return found


def test_readme_names_live_in_their_modules_and_imports_are_top_level():
    rows = library_table()
    assert len(rows) >= 8
    missing = []
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        for name in names:
            obj = getattr(module, name, None)
            # a name the module only imports belongs to another row
            if obj is None or getattr(obj, "__module__", module_name) != module_name:
                missing.append(f"{module_name}.{name}")
    assert missing == []

    nested = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
              if (found := function_level_package_imports(path))}
    assert nested == {}


def test_star_import_gives_every_name_in_all_once():
    namespace = {}
    exec("from trimatch import *", namespace)
    assert len(trimatch.__all__) == len(set(trimatch.__all__))
    assert [name for name in trimatch.__all__ if not hasattr(trimatch, name)] == []
    assert set(trimatch.__all__) <= set(namespace)


def readme_command_block():
    """(verbs, gen constructions) listed in README's first Command line block;
    each construction is (name, the flags listed after it)."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    verbs, constructions, in_gen = [], [], False
    for line in block.splitlines():
        if line.startswith("trimatch "):
            verbs.append(line.split()[1])
            in_gen = verbs[-1] == "gen"
        elif not line.lstrip().startswith("#"):
            in_gen = False
        if in_gen and "#" in line:
            constructions += [(c.split()[0], c.split()[1:])
                              for c in line.split("#", 1)[1].split("|") if c.strip()]
    return verbs, constructions


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_command_block_lists_every_verb_and_gen_construction():
    verbs, constructions = readme_command_block()
    commands = subparsers(build_parser())
    assert verbs == list(commands)
    assert [name for name, _ in constructions] == list(GENERATORS)
    # and each construction's flags: argparse rejects any other
    accepted = {name: sorted(action.option_strings[0] for action in parser._actions
                             if action.option_strings and action.dest != "help")
                for name, parser in subparsers(commands["gen"]).items()}
    assert {name: sorted(flags) for name, flags in constructions} == accepted
