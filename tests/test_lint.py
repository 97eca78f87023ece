"""Source hygiene checks.

Three layers:

- when ``ruff`` is importable or on PATH it is run over ``src/`` with
  the configuration in ``pyproject.toml`` (skipped otherwise -- the
  test container does not ship it, CI does);
- a dependency-free unused-import check (the F401 subset that has
  actually bitten this repo) always runs, so the suite catches the
  common case even without the linter;
- a dependency-free dead-definition check: every function, method and
  class under ``src/repro`` must be named by the program itself (tests
  do not count), unless an allowlist entry says why it is kept.
"""

import ast
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _ruff_command():
    exe = shutil.which("ruff")
    if exe:
        return [exe]
    try:
        import ruff  # noqa: F401
    except ImportError:
        return None
    return [sys.executable, "-m", "ruff"]


def test_ruff_clean_on_src():
    cmd = _ruff_command()
    if cmd is None:
        pytest.skip("ruff is not installed in this environment")
    proc = subprocess.run(
        cmd + ["check", "src"], cwd=REPO,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _unused_imports(path: pathlib.Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imported[alias.asname or alias.name] = node.lineno
    if not imported:
        return []
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    problems = []
    for name, lineno in sorted(imported.items(), key=lambda kv: kv[1]):
        if name in used:
            continue
        # Conservative: a name quoted anywhere (``__all__``, doctests,
        # string annotations) counts as used.
        if f'"{name}"' in source or f"'{name}'" in source:
            continue
        problems.append(f"{path.relative_to(REPO)}:{lineno}: "
                        f"unused import {name!r}")
    return problems


def test_no_unused_imports_in_src():
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue  # re-export modules
        problems.extend(_unused_imports(path))
    assert not problems, "\n".join(problems)


#: Where a definition's callers may live; ``tests/`` does not count.
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

#: Definitions no program code names, kept on purpose -- one reason each.
KEPT_WITHOUT_CALLER = {
    # Oracles and references that tests compare the program against.
    "brute_force_sat": "test oracle for the SAT and PB engines",
    "brute_force_count": "test oracle: model counting",
    "brute_force_min": "test oracle: optimization",
    "closures_by_endpoints": "test oracle for the encoder's path rules",
    "input_formula": "test oracle: a checker's database in DIMACS",
    "_new_clause": "reference add_clause of the clause-loader tests",
    # Defect makers of the certification-fault tests.
    "corrupt_proof_line": "builds the defective proofs of fault tests",
    "corrupt_allocation": "builds the defective witnesses of fault tests",
    # Library and tooling API exercised by tests, CI or the docs.
    "check_proof_lines": "one-call DRUP check of a text proof",
    "load_proof": "reads a proof spool back (CI chaos smoke)",
    "scan_artifact": "non-raising proof spool scan (CI chaos smoke)",
    "to_lines": "whole ProofLog as text lines",
    "load_into_solver": "DIMACS text to a loaded solver",
    "parse_opb": "OPB reader, the counterpart of write_opb",
    "save_system": "writes a system file (CI smoke, docs)",
    "request_sync": "blocking serve client (CI serve smoke)",
    "request_many_sync": "blocking pipelined serve client (CI)",
    "complete": "FabricReport verdict: every cell answered",
}


def _src_definitions() -> dict[str, list[str]]:
    """Name -> locations of every function, method and class under
    ``src/repro``; dunder methods are the language's to call."""
    out: dict[str, list[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            out.setdefault(node.name, []).append(
                f"{path.relative_to(REPO)}:{node.lineno}")
    return out


class _Names(ast.NodeVisitor):
    """Every name read as a variable or an attribute, except inside a
    definition of that same name (recursion is not a caller)."""

    def __init__(self):
        self.names: set[str] = set()
        self._inside: list[str] = []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _named(self, name: str) -> None:
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._named(node.id)

    def visit_Attribute(self, node):
        self._named(node.attr)
        self.generic_visit(node)


def _program_names() -> set[str]:
    names = _Names()
    for top in CALLER_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            names.visit(ast.parse(path.read_text()))
    return names.names


def test_every_src_definition_has_a_caller():
    defined = _src_definitions()
    named = _program_names()
    dead = [f"{where}: {name!r} is named by no program code"
            for name, places in sorted(defined.items())
            if name not in named and name not in KEPT_WITHOUT_CALLER
            for where in places]
    stale = [f"allowlisted {name!r} is "
             + ("not defined" if name not in defined else "now called")
             for name in sorted(KEPT_WITHOUT_CALLER)
             if name not in defined or name in named]
    assert not dead + stale, "\n".join(dead + stale)
