"""Data the model cannot produce is decided in one place.

``inference._require_possible`` is the one rule for an impossible subject
in both numerical modes.  This reads ``src/markovseq`` and checks that no
other function raises ImpossibleData, that no message sends the user to
the other mode, and that estimation raises no likelihood error of its own:
its E-steps and local-step trials take the kernel's.
"""

import ast
from pathlib import Path

import markovseq.errors

SOURCES = Path(__file__).resolve().parents[1] / "src" / "markovseq"
LIKELIHOOD_ERRORS = {"ImpossibleData", "NumericalUnderflow"}


def _raises(path):
    """(enclosing function, raised class) for every ``raise`` in a file."""
    found = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((function, getattr(exc, "id", None)))
            walk(child, function)

    walk(ast.parse(path.read_text()), None)
    return found


def test_only_require_possible_raises_impossible_data():
    sites = [
        (path.name, function)
        for path in sorted(SOURCES.glob("*.py"))
        for function, raised in _raises(path)
        if raised == "ImpossibleData"
    ]
    assert sites == [("inference.py", "_require_possible")]


def test_no_message_sends_the_user_to_the_other_mode():
    assert [p.name for p in SOURCES.glob("*.py") if "consider mode" in p.read_text()] == []


def test_estimation_raises_no_likelihood_error_of_its_own():
    raised = {name for _, name in _raises(SOURCES / "estimation.py")}
    assert raised & LIKELIHOOD_ERRORS == set()
    assert not hasattr(markovseq.errors, "NonFiniteLikelihood")
