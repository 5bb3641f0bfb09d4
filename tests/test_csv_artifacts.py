"""Every CSV table the CLI writes comes from one writer, in one dialect.

The guard reads ``src/markovseq/cli.py``: each ``*.csv`` artifact gets its
text from ``_csv_table`` (directly, or through a function that returns its
text), and ``_csv_field`` is the only code that quotes a field.  The
round trip draws ids, channel, state and cluster names and labels with
commas, quotes, CR, LF and non-ASCII text, runs ``simulate``, ``validate``,
``viterbi`` and ``posterior`` through ``cli.main`` and reads every CSV back
with the ``csv`` module.
"""

import ast
import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import markovseq as mq
from markovseq.cli import main
from markovseq.errors import DuplicateLabel

CLI = Path(__file__).resolve().parents[1] / "src" / "markovseq" / "cli.py"
TREE = ast.parse(CLI.read_text())
FUNCTIONS = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}


def _calls(node, names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def _table_writers() -> set:
    """``_csv_table`` and every function whose every return is a call of one."""
    found = {"_csv_table"}
    while True:
        more = {
            name
            for name, function in FUNCTIONS.items()
            if (returns := [n.value for n in ast.walk(function) if isinstance(n, ast.Return)])
            and all(_calls(value, found) for value in returns)
        } - found
        if not more:
            return found
        found |= more


def _assigned(function) -> dict:
    """Each name assigned in ``function``, with the values assigned to it."""
    values = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    values.setdefault(target.id, []).append(node.value)
    return values


def _strings(node, assigned) -> list:
    """The string constants in ``node``, and in the values of the names it reads."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.append(sub.value)
        elif isinstance(sub, ast.Name):
            for value in assigned.get(sub.id, []):
                found += _strings(value, {})
    return found


def _csv_writes():
    """(path strings, text node, names assigned) of each ``_write_text`` call
    in cli.py whose path is a ``.csv`` file."""
    writes = []
    for function in FUNCTIONS.values():
        assigned = _assigned(function)
        for node in ast.walk(function):
            if _calls(node, {"_write_text"}):
                path, text = node.args
                strings = _strings(path, assigned)
                if any(s.endswith(".csv") for s in strings):
                    writes.append((strings, text, assigned))
    return writes


def test_every_csv_artifact_comes_from_the_one_writer():
    writers = _table_writers()
    assert writers >= {"_csv_table", "_paths_table"}
    names = set()
    for strings, text, assigned in _csv_writes():
        names.update(s for s in strings if s.endswith(".csv"))
        if isinstance(text, ast.Name):
            assert all(_calls(v, writers) for v in assigned[text.id]), strings
        else:
            assert _calls(text, writers), strings
    # the channel CSVs' names end in the constant ".csv"
    assert names == {"paths.csv", "posterior.csv", "clusters.csv", ".csv"}


def test_only_write_text_writes_a_file():
    for name, function in FUNCTIONS.items():
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes"):
                assert name == "_write_text", name
            assert not _calls(node, {"open"}), name


def test_only_csv_field_quotes_a_field():
    imported = {
        alias.name
        for node in ast.walk(TREE)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "csv" not in imported
    users = {
        name
        for name, function in FUNCTIONS.items()
        if any(isinstance(node, ast.Name) and node.id == "_csv_field" for node in ast.walk(function))
    }
    assert users == {"_csv_table"}
    quoting = {
        name
        for name, function in FUNCTIONS.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Constant) and node.value in ('"', '""')
    }
    assert quoting == {"_csv_field"}


# ----------------------------------------------------------------------
# the round trip
# ----------------------------------------------------------------------

_CHARS = st.sampled_from(list('ab,"\r\n é日x'))
NAMES = st.text(_CHARS, min_size=1, max_size=5)
# a label cannot have outer whitespace: the reader strips tokens
LABELS = NAMES.filter(lambda s: s == s.strip())


@st.composite
def _mixtures(draw):
    n_channels = draw(st.integers(1, 2))
    channel_names = draw(st.lists(NAMES, min_size=n_channels, max_size=n_channels, unique=True))
    alphabets = []
    for _ in channel_names:
        tokens = draw(st.lists(LABELS, min_size=2, max_size=4, unique=True))
        alphabets.append(mq.Alphabet(tuple(tokens[1:]), tokens[0]))
    n_clusters = draw(st.integers(1, 2))
    clusters = [
        mq.build_hmm(
            alphabets,
            n_states=len(names),
            state_names=names,
            channel_names=channel_names,
            rng_seed=k,
        )
        for k, names in enumerate(
            draw(st.lists(NAMES, min_size=1, max_size=2, unique=True)) for _ in range(n_clusters)
        )
    ]
    cluster_names = draw(st.lists(NAMES, min_size=n_clusters, max_size=n_clusters, unique=True))
    try:
        mix = mq.build_mhmm(clusters, cluster_names=cluster_names)
    except DuplicateLabel:  # two combined names "cluster:state" coincide
        assume(False)
    ids = draw(st.lists(NAMES, min_size=3, max_size=3, unique=True))
    return mix, ids


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(arg) for arg in argv]) == 0, argv


def _rows(path):
    """The header and rows of a CSV file, each row as wide as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert all(len(row) == len(header) for row in rows), path
    return header, rows


def _write_channels(data, ids, folder):
    """A manifest for ``data`` with subject ids ``ids``, its channel CSVs
    written by ``csv.writer`` in its default dialect, which quotes CR."""
    entries = []
    for c, ch in enumerate(data.channels):
        with open(folder / f"ch{c}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", *(f"t{t + 1}" for t in range(data.n_time))])
            writer.writerows([sid, *ch.alphabet.tokens(row)] for sid, row in zip(ids, ch.codes))
        entries.append({"name": ch.name, "csv": f"ch{c}.csv", "alphabet": list(ch.alphabet.labels),
                        "missing_token": ch.alphabet.missing_token})
    manifest = folder / "manifest.json"
    manifest.write_text(json.dumps({"channels": entries}))
    return manifest


@settings(derandomize=True, database=None, deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
@given(case=_mixtures())
def test_names_read_back_from_every_csv(tmp_path_factory, case):
    mix, ids = case
    tmp = tmp_path_factory.mktemp("roundtrip")
    model = tmp / "model.json"
    model.write_text(json.dumps(mq.model_to_json(mix)))
    combined = mq.combine_clusters(mix, mq.CovariateDesign.intercept(1))[0].state_names
    owner = [c for c, m in zip(mix.cluster_names, mix.clusters) for _ in m.state_names]

    sim = tmp / "sim"
    _run("simulate", "--model", model, "--n-subjects", 3, "--n-time", 2,
         "--missing-rate", 0.3, "--seed", 1, "--out", sim)
    data = mq.SequenceDataset.from_json(json.loads((sim / "dataset.json").read_text()))
    for ch, entry in zip(data.channels, json.loads((sim / "dataset_manifest.json").read_text())["channels"]):
        header, rows = _rows(sim / entry["csv"])
        assert header == ["id", "t1", "t2"]
        assert [row[0] for row in rows] == list(data.subject_ids)
        assert [row[1:] for row in rows] == ch.alphabet.tokens(ch.codes).tolist()
    header, labels = _rows(sim / "clusters.csv")
    assert header == ["subject_id", "cluster"]
    assert [row[0] for row in labels] == list(data.subject_ids)
    assert {row[1] for row in labels} <= set(mix.cluster_names)
    header, rows = _rows(sim / "paths.csv")
    assert header == ["subject_id", "t", "state", "cluster"]
    assert [row[:2] for row in rows] == [[sid, t] for sid in data.subject_ids for t in "12"]
    assert {row[2] for row in rows} <= set(combined)
    assert [row[3] for row in rows] == [owner[combined.index(row[2])] for row in rows]
    assert [row[3] for row in rows] == [label for _, label in labels for _ in "12"]
    _run("validate", "--manifest", sim / "dataset_manifest.json", "--out", tmp / "v1")

    # the drawn ids, in channel CSVs written by csv.writer
    manifest = _write_channels(data, ids, tmp)
    _run("validate", "--manifest", manifest, "--out", tmp / "v2")
    back, _ = mq.ingest_dataset(manifest)
    assert back.subject_ids == tuple(ids)
    cells = [[sid, t] for sid in ids for t in "12"]

    _run("viterbi", "--manifest", manifest, "--model", model, "--out", tmp / "vit")
    header, rows = _rows(tmp / "vit" / "paths.csv")
    assert header == ["subject_id", "t", "state", "cluster"]
    want = mq.viterbi_paths(mix, back).paths.ravel()
    assert rows == [[*cell, combined[s], owner[s]] for cell, s in zip(cells, want)]

    _run("posterior", "--manifest", manifest, "--model", model, "--out", tmp / "post")
    header, rows = _rows(tmp / "post" / "posterior.csv")
    assert header == ["subject_id", "t", *combined]
    assert [row[:2] for row in rows] == cells
    post = mq.posterior_state_probs(mix, back).reshape(len(cells), -1)
    np.testing.assert_array_equal([[float(x) for x in row[2:]] for row in rows], post)
