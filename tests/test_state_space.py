"""A model's combined state space is described once, in ``model``.

``model._state_space`` gives a model's cluster HMMs (a plain HMM is one
cluster), the combined state names, the cluster that owns each state and
the K + 1 block bounds; ``model._subject_initials`` gives the initial
arrays w_ik * pi^k.  The property tests check that every view of that
layout agrees with it: ``combine_clusters``, ``state_offsets`` and
``n_states_total``, the decoded paths, and the ``paths.csv`` that
``viterbi`` and ``simulate`` write.  The guard reads ``src/markovseq`` and
checks that no module but ``model.py`` works that layout out again.
"""

import ast
import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import markovseq as mq
from markovseq.cli import main
from markovseq.errors import ImpossibleData
from markovseq.model import MixtureModel, _state_space, _subject_initials, mixture_weights

from helpers import hmm_and_data, mixture_and_data, random_hmm

SOURCES = Path(__file__).resolve().parents[1] / "src" / "markovseq"
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

models = st.one_of(
    hmm_and_data().map(lambda case: (case[0], None, case[1])),
    mixture_and_data(),
)


@SETTINGS
@given(models)
def test_the_state_space_agrees_with_every_view_of_it(case):
    m, design, data = case
    space = _state_space(m)
    hmms = m.clusters if isinstance(m, MixtureModel) else (m,)
    assert len(space.hmms) == len(hmms) and all(a is b for a, b in zip(space.hmms, hmms))
    assert space.bounds[0] == 0
    assert np.diff(space.bounds).tolist() == [h.n_states for h in hmms]
    assert len(space.names) == len(space.owners) == space.bounds[-1]
    for j, (name, k) in enumerate(zip(space.names, space.owners)):
        assert space.bounds[k] <= j < space.bounds[k + 1]
        own = hmms[k].state_names[j - space.bounds[k]]
        assert name == (f"{m.cluster_names[k]}:{own}" if isinstance(m, MixtureModel) else own)
    if isinstance(m, MixtureModel):
        combined, initials = mq.combine_clusters(m, design)
        assert space.names == combined.state_names
        assert space.bounds == m.state_offsets + (m.n_states_total,)
        w = mixture_weights(m.gamma, design.X)
        np.testing.assert_array_equal(np.hstack(_subject_initials(m, w)), initials)
    try:
        res = mq.viterbi_paths(m, data, design=design)
    except ImpossibleData:  # structural zeros can rule a subject out
        return
    owners = np.array(space.owners)[res.paths]
    want = np.zeros_like(owners) if res.clusters is None else res.clusters[:, None]
    assert (owners == want).all()


@st.composite
def _models(draw):
    """A dense HMM, or a mixture of 1-3 clusters of 1-3 states each."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    n_states = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    clusters = [random_hmm(rng, s, sizes) for s in n_states]
    if draw(st.booleans()):
        return clusters[0]
    gamma = rng.normal(size=(1, len(clusters)))
    gamma[:, 0] = 0.0
    return mq.build_mhmm(clusters, gamma=gamma)


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(arg) for arg in argv]) == 0, argv


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@settings(derandomize=True, database=None, deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=_models())
def test_both_paths_tables_name_each_states_cluster(tmp_path_factory, model):
    tmp = tmp_path_factory.mktemp("paths")
    (tmp / "model.json").write_text(json.dumps(mq.model_to_json(model)))
    _run("simulate", "--model", tmp / "model.json", "--n-subjects", 6, "--n-time", 4,
         "--seed", 2, "--out", tmp / "sim")
    _run("viterbi", "--manifest", tmp / "sim" / "dataset_manifest.json",
         "--model", tmp / "model.json", "--out", tmp / "vit")
    space = _state_space(model)
    mixture = isinstance(model, MixtureModel)
    for stage in ("sim", "vit"):
        header, *rows = _rows(tmp / stage / "paths.csv")
        assert header == ["subject_id", "t", "state", "cluster"][: 3 + mixture], stage
        if mixture:
            owners = [model.cluster_names[space.owners[space.names.index(r[2])]] for r in rows]
            assert [r[3] for r in rows] == owners, stage
    if mixture:
        _, *labels = _rows(tmp / "sim" / "clusters.csv")
        _, *rows = _rows(tmp / "sim" / "paths.csv")
        assert [r[3] for r in rows] == [label for _, label in labels for _ in range(4)]


# ----------------------------------------------------------------------
# the guard
# ----------------------------------------------------------------------


def _trees():
    """The syntax tree of every module but ``model.py``, by file name."""
    return {
        path.name: ast.parse(path.read_text())
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "model.py"
    }


def _mentions(node, names) -> bool:
    """Whether ``node`` reads a name or attribute in ``names``."""
    return any(
        (isinstance(sub, ast.Name) and sub.id in names)
        or (isinstance(sub, ast.Attribute) and sub.attr in names)
        for sub in ast.walk(node)
    )


def _callee(node) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_no_module_but_model_picks_a_models_clusters():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.IfExp):
                branches = (node.body, node.orelse)
                clusters = any(isinstance(b, ast.Attribute) and b.attr == "clusters" for b in branches)
                alone = any(isinstance(b, ast.Tuple) and len(b.elts) == 1 for b in branches)
                assert not (clusters and alone), (name, node.lineno)


def test_no_module_but_model_names_combined_states():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):  # f"{cluster}:{state}"
                parts = node.values
                for before, part, after in zip(parts, parts[1:], parts[2:]):
                    joined = isinstance(part, ast.Constant) and part.value == ":"
                    values = isinstance(before, ast.FormattedValue) and isinstance(after, ast.FormattedValue)
                    assert not (joined and values), (name, node.lineno)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                for side in (node.left, node.right):
                    assert not (isinstance(side, ast.Constant) and side.value == ":"), (name, node.lineno)


def test_no_module_but_model_works_out_offsets_or_initials():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            # the public properties are for callers; the library reads _state_space
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("state_offsets", "n_states_total"), (name, node.lineno)
            if isinstance(node, ast.Call) and _callee(node) in ("cumsum", "accumulate", "sum"):
                assert not _mentions(node, {"n_states", "sizes"}), (name, node.lineno)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                for side in (node.left, node.right):
                    initial = isinstance(side, ast.Attribute) and side.attr == "initial"
                    assert not initial, (name, node.lineno)


def test_the_cli_takes_names_and_owners_from_the_state_space():
    tree = ast.parse((SOURCES / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_state_names" not in functions
    assert [a.arg for a in functions["_paths_table"].args.args] == ["subject_ids", "model", "paths"]
    model = ast.parse((SOURCES / "model.py").read_text())
    assert "_combined_state_names" not in {
        node.name for node in model.body if isinstance(node, ast.FunctionDef)
    }
