"""One owner per random-draw concept in the package source.

Every categorical draw goes through ``shifts.categorical`` and every stick
fraction through ``priors.stick_weights``; a second ``choice`` or ``beta``
call would fork a stream that the equivalence tests pin.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "simlab"


def _calls(attr: str) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of every ``<expr>.attr(...)`` call."""
    found = []

    def visit(node, owner, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, name)
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and getattr(func, "attr", None) == attr:
                found.append((name, owner, child.lineno))
            visit(child, owner, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name)
    return found


def test_no_choice_calls():
    assert _calls("choice") == []


def test_beta_only_in_stick_weights():
    # exactly one call: an empty source directory fails here too
    calls = _calls("beta")
    assert [(f, owner) for f, owner, _ in calls] == [("priors.py", "stick_weights")]
