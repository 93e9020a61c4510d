"""Public surface of the package."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import cvteleport


def test_every_exported_name_resolves():
    for name in cvteleport.__all__:
        assert hasattr(cvteleport, name), name


def test_cold_start_loads_no_thread_pool_or_logging():
    # concurrent.futures pulls in logging; the jitter Monte Carlo imports it
    # when it runs, so the command line's start-up never pays for it
    probe = ("import sys, cvteleport.cli; "
             "print(sorted({'concurrent.futures', 'logging'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _names_used(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller():
    # a function, class or non-dunder method that nothing in the package
    # names outside its own body is code with no caller, unless exported
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(cvteleport.__file__).parent.glob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    uncalled = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in cvteleport.__all__:
                continue
            if used[name] == _names_used(node)[name]:
                uncalled.append(f"{module}:{node.lineno} {name}")
    assert uncalled == []
