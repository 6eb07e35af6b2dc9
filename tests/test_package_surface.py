"""Every public name in the package is used by the program itself.

The program is src/commdyn plus the benchmark under perfbench/. A public
function, class or method that only tests call belongs in the tests (see
tests/oracles.py), not in the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "commdyn").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# davis_kahan_check is the closed form that oracles.dense_davis_kahan checks;
# it is a documented diagnostic of the paper's perturbation bound, kept in
# theory next to the closed forms it is built from.
ALLOWED_UNUSED = {"davis_kahan_check"}


def _public_names():
    """(name, file, line) of each public top-level function and class of the
    package and each public method of those classes."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name, path, node.lineno
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield sub.name, path, sub.lineno


def test_every_public_name_is_used_by_the_program():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in PROGRAM}
    unused = []
    for name, where, lineno in _public_names():
        word = re.compile(rf"\b{name}\b")
        if name not in ALLOWED_UNUSED and not any(
                word.search(line) and (path, number) != (where, lineno)
                for path, text in lines.items() for number, line in enumerate(text, 1)):
            unused.append(f"{where.name}:{lineno} {name}")
    assert not unused, f"public names no program path uses: {unused}"


def _caught_names(tree):
    """Names of the exception types in the `except` clauses of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for expr in caught:
                yield expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)


def test_every_error_type_is_caught_by_the_program():
    """An exception type that no handler names is a ValueError with a
    message; errors.py holds only the types some `except` clause acts on."""
    errors = ast.parse((ROOT / "src" / "commdyn" / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    caught = {name for path in PROGRAM
              for name in _caught_names(ast.parse(path.read_text(encoding="utf-8")))}
    assert not defined - caught, f"error types no handler catches: {sorted(defined - caught)}"
