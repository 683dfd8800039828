"""Every module-level function and class in src/mhtext has a caller in
the program: in src/, scripts/ or perfbench/. A name that only tests
reach is dead code, so references from tests/ do not count.

A reference is a name, an attribute, an imported name or a string equal
to the definition's name (the benchmark's tracer wraps functions named
by strings). References inside the definition itself, such as a
recursive call, do not count.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "scripts", "perfbench")


def references(tree: ast.AST) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreferenced() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in PROGRAM for path in sorted((ROOT / folder).rglob("*.py"))
             if not path.name.startswith("test_")}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    dead = []
    for path in sorted((ROOT / "src" / "mhtext").glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if everywhere[node.name] - references(node)[node.name] <= 0:
                    dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return dead


def test_every_function_and_class_has_a_caller_in_the_program():
    assert unreferenced() == []


def test_the_check_finds_a_name_only_tests_reach(tmp_path, monkeypatch):
    """The same walk over a copy of the package with one uncalled and
    one self-recursive function added names both."""
    for folder in PROGRAM:
        for path in (ROOT / folder).rglob("*.py"):
            copy = tmp_path / path.relative_to(ROOT)
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    seeds = tmp_path / "src" / "mhtext" / "seeds.py"
    seeds.write_text(seeds.read_text(encoding="utf-8")
                     + "\n\ndef only_tests_call_this():\n    return 1\n"
                     + "\n\ndef calls_itself(n):\n    return calls_itself(n - 1) if n else 0\n",
                     encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    dead = unreferenced()
    assert [entry.split()[-1] for entry in dead] == ["only_tests_call_this", "calls_itself"]
    assert all(entry.startswith("src/mhtext/seeds.py:") for entry in dead)
