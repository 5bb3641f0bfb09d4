"""Every evaluation of a model goes through ``inference._evaluate``.

This reads ``src/markovseq`` and checks that only ``_evaluate`` builds the
clusters and initial arrays and runs the scaled kernel, that the log kernel
is run only by ``_evaluate`` and by the scaled kernel's underflow rescue,
that no function reaches a kernel through its tracer alias, that only
``_evaluate``, the rescue and a fit build a kernel workspace, and that no
module but ``estimation`` imports from ``estimation`` (the CLI loads a
stage's modules by name, not by an import statement).  It then checks the
contracts both kernels keep: the same shapes for the same ``want``, a
ValueError for a ``want`` the kernel does not answer, and the same bits
from a workspace they share as from a fresh one.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from markovseq.inference import _evaluate, _Scratch, _Workspace

from helpers import random_dataset, random_hmm, random_mixture

SOURCES = Path(__file__).resolve().parents[1] / "src" / "markovseq"
KERNEL_NAMES = {"_clusters_and_inits", "_scaled_pass", "_log_pass", "_fb_scaled", "_fb_log"}


def _uses(path, names=KERNEL_NAMES, calls=False):
    """(name, innermost enclosing function) for every use of one of ``names``
    inside a function of a file, or with ``calls`` every call of one."""
    found = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            target = (child.func if isinstance(child, ast.Call) else None) if calls else child
            if isinstance(target, ast.Name) and target.id in names and function:
                found.append((target.id, function))
            walk(child, function)

    walk(ast.parse(path.read_text()), None)
    return found


def test_only_evaluate_reaches_the_kernels():
    sites = {
        (path.name, name, function)
        for path in sorted(SOURCES.glob("*.py"))
        for name, function in _uses(path)
    }
    assert sites == {
        ("inference.py", "_clusters_and_inits", "_evaluate"),
        ("inference.py", "_scaled_pass", "_evaluate"),
        ("inference.py", "_log_pass", "_evaluate"),
        ("inference.py", "_log_pass", "_scaled_pass"),  # the underflow rescue
    }


def test_only_evaluate_the_rescue_and_a_fit_build_a_workspace():
    sites = {
        (path.name, function)
        for path in sorted(SOURCES.glob("*.py"))
        for _, function in _uses(path, {"_Workspace"}, calls=True)
    }
    assert sites == {
        ("inference.py", "_evaluate"),  # a transient one for a call given none
        ("inference.py", "_scaled_pass"),  # the underflow rescue's lost subjects
        ("estimation.py", "fit_em"),
        ("estimation.py", "fit_local"),
    }


def test_no_module_but_estimation_imports_estimation():
    importers = set()
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):  # "from . import x" has module None
                names = [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            if any("estimation" in name.split(".") for name in names):
                importers.add(path.name)
    assert importers <= {"estimation.py"}


def _models():
    rng = np.random.default_rng(24)
    hmm = random_hmm(rng, 3, [3, 2])
    mix, design = random_mixture(rng, 2, 3, [3, 2], n_subjects=40, n_covariates=2)
    return [
        (hmm, random_dataset(rng, hmm, 40, 7, missing_rate=0.1), None),
        (mix, random_dataset(rng, mix.clusters[0], 40, 7, missing_rate=0.1), design),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["hmm", "mixture"])
def test_both_modes_answer_a_want_in_the_same_shapes(case):
    m, data, design = _models()[case]
    N, T = data.n_subjects, data.n_time
    K = getattr(m, "n_clusters", 1)
    width = sum(h.n_states for h in getattr(m, "clusters", (m,)))
    loglik, rho, full = {}, {}, {}
    for mode in ("scaled", "log"):
        loglik[mode], rho[mode] = _evaluate(m, data, "loglik", design, mode)
        assert loglik[mode].shape == (N,) and rho[mode].shape == (N, K)
        full[mode] = _evaluate(m, data, "full", design, mode)
        alpha, beta, _, ll = full[mode]
        assert len(full[mode]) == 4
        assert alpha.shape == beta.shape == (N, T, width) and ll.shape == (N,)
        assert np.array_equal(ll, loglik[mode])
    assert full["scaled"][2].shape == (K, N, T) and full["log"][2] is None
    np.testing.assert_allclose(loglik["log"], loglik["scaled"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(rho["log"], rho["scaled"], rtol=0, atol=1e-9)
    alpha, beta, _, _ = full["scaled"]
    la, lb, _, ll = full["log"]
    np.testing.assert_allclose(
        np.exp(la + lb - ll[:, None, None]), alpha * beta, rtol=0, atol=1e-9
    )


def test_log_passes_on_a_shared_workspace_match_fresh_passes():
    # scaled E-steps and log passes of both models take turns on one
    # workspace, as in a fit, and each log pass gives a fresh pass's bits
    models = _models()
    data = models[0][1]
    mix, design = models[1][0], models[1][2]
    workspace = _Workspace(data)
    for want in ("loglik", "full", "paths", "loglik"):
        for m, d in ((models[0][0], None), (mix, design)):
            _evaluate(m, data, "stats", d, workspace=workspace)
            reused = _evaluate(m, data, want, d, "log", workspace=workspace)
            fresh = _evaluate(m, data, want, d, "log")
            assert [np.asarray(a).tobytes() for a in reused if a is not None] == [
                np.asarray(a).tobytes() for a in fresh if a is not None
            ], want
    assert "cand" in workspace.scratch[0]  # the log passes ran in it


def test_scratch_array_asked_for_another_dtype_is_made_anew():
    buf = _Scratch()
    wide = buf("back", (2, 3), np.uint16)
    narrow = buf("back", (2,), np.uint8)
    assert wide.dtype == np.uint16 and narrow.dtype == buf["back"].dtype == np.uint8


@pytest.mark.parametrize(
    "mode, unanswered", [("scaled", ["paths", "pairs", "stat"]), ("log", ["stats", "pairs", None])]
)
def test_a_want_the_kernel_does_not_answer_raises(mode, unanswered):
    # the scaled kernel answers loglik, full and stats, the log kernel loglik,
    # full and paths; "pairs" is the rescue's direct call to the log kernel
    m, data, _ = _models()[0]
    for want in unanswered:
        with pytest.raises(ValueError, match=f"{mode} mode answers .*, not {want!r}"):
            _evaluate(m, data, want, mode=mode)
