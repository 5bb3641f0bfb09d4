"""Property-based checks: random small models, JSON round trips, fuzzed model files.

Every test is derandomized and keeps no example database, so a run is
repeatable and leaves nothing behind.
"""

import json
import re
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovseq import (
    Alphabet,
    Channel,
    HmmModel,
    MixtureModel,
    ParameterMap,
    SequenceDataset,
    build_mhmm,
    count_parameters,
    forward_backward,
    information_criteria,
    log_likelihood,
    mixture_summary,
    model_from_json,
    model_to_json,
    posterior_state_probs,
    trim_model,
    viterbi_paths,
)
from markovseq.cli import main
from markovseq import errors
from markovseq.errors import ImpossibleData, MarkovSeqError
from markovseq.seqdata import MISSING

from helpers import (
    channel_sizes,
    hmm_and_data,
    make_alphabets,
    masked_hmms,
    mixture_and_data,
    write_manifest,
)
from oracles import enumerate_loglik, enumerate_posterior, enumerate_viterbi

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _agree(per_subject_oracle, scaled_call, log_total):
    """Both modes match the oracle, -inf where some subject is impossible."""
    want = per_subject_oracle.sum()
    scaled_total = scaled_call()
    if np.isfinite(want):
        assert abs(scaled_total - want) <= 1e-10 * max(1.0, abs(want))
        assert abs(log_total - want) <= 1e-10 * max(1.0, abs(want))
    else:
        assert scaled_total == log_total == -np.inf


def _mixture_weights(mix, design):
    X = design.X @ mix.gamma
    w = np.exp(X - X.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def _viterbi_agrees(decode, hmms, data, log_w):
    """``decode()`` gives each subject a best path of its best cluster, by
    enumerating every cluster's paths from log w_ik + log pi^k (ties within
    the oracle's tolerance may go either way); with a subject impossible in
    every cluster it raises ImpossibleData."""
    runs = [enumerate_viterbi(h, data) for h in hmms]
    joints = log_w + np.column_stack([joint for joint, _ in runs])
    best = joints.max(axis=1)
    if np.isneginf(best).any():
        with pytest.raises(ImpossibleData):
            decode()
        return
    res = decode()
    np.testing.assert_allclose(res.log_joint, best, rtol=1e-10, atol=1e-12)
    offsets = np.cumsum([0] + [h.n_states for h in hmms])
    for i, path in enumerate(res.paths):
        k = 0 if res.clusters is None else res.clusters[i]
        assert joints[i, k] >= best[i] - 1e-10 * max(1.0, abs(best[i]))
        assert tuple(path - offsets[k]) in runs[k][1][i]


class TestModesAgreeWithEnumeration:
    @SETTINGS
    @given(hmm_and_data())
    def test_hmm_loglik_and_posterior(self, case):
        model, data = case
        oracle = enumerate_loglik(model, data)
        _agree(
            oracle,
            lambda: log_likelihood(model, data, mode="scaled"),
            log_likelihood(model, data, mode="log"),
        )
        if np.isfinite(oracle).all():
            want = enumerate_posterior(model, data)
            for mode in ("scaled", "log"):
                got = posterior_state_probs(model, data, mode=mode)
                np.testing.assert_allclose(got, want, atol=1e-9)

    @SETTINGS
    @given(hmm_and_data())
    def test_hmm_viterbi(self, case):
        model, data = case
        log_w = np.zeros((data.n_subjects, 1))
        _viterbi_agrees(lambda: viterbi_paths(model, data), [model], data, log_w)

    @SETTINGS
    @given(mixture_and_data())
    def test_mixture_viterbi(self, case):
        mix, design, data = case
        log_w = np.log(_mixture_weights(mix, design))
        decode = lambda: viterbi_paths(mix, data, design=design)  # noqa: E731
        _viterbi_agrees(decode, mix.clusters, data, log_w)

    @SETTINGS
    @given(mixture_and_data())
    def test_mixture_loglik(self, case):
        mix, design, data = case
        w = _mixture_weights(mix, design)
        liks = np.column_stack(
            [np.exp(enumerate_loglik(sub, data)) for sub in mix.clusters]
        )
        total = (w * liks).sum(axis=1)
        with np.errstate(divide="ignore"):
            oracle = np.log(total)
        _agree(
            oracle,
            lambda: log_likelihood(mix, data, design, mode="scaled"),
            log_likelihood(mix, data, design, mode="log"),
        )


def _outcome(call):
    """(value, None) or (None, (error class, message))."""
    try:
        return call(), None
    except MarkovSeqError as err:
        return None, (type(err), str(err))


class TestOneOutcomeInBothModes:
    """On masked models and data drawn without regard to their structural
    zeros, so that some subjects are impossible, every call that takes a
    mode gives the same values in both, or the same error class naming the
    same subject."""

    @SETTINGS
    @given(st.one_of(hmm_and_data().map(lambda c: (c[0], None, c[1])), mixture_and_data()))
    def test_each_call_agrees(self, case):
        m, design, data = case
        calls = [
            lambda mode: log_likelihood(m, data, design, mode),
            lambda mode: astuple(information_criteria(m, data, design, mode)),
            lambda mode: posterior_state_probs(m, data, design, mode),
        ]
        if isinstance(m, MixtureModel):
            calls.append(lambda mode: mixture_summary(m, data, design, mode).classification_table)
        else:
            calls.append(lambda mode: forward_backward(m, data, mode).loglik_per_subject)
        for call in calls:
            scaled, scaled_err = _outcome(lambda: call("scaled"))
            log, log_err = _outcome(lambda: call("log"))
            assert scaled_err == log_err
            if scaled_err is None:
                np.testing.assert_allclose(scaled, log, rtol=1e-9, atol=1e-9)


def _hmms(m):
    return m.clusters if isinstance(m, MixtureModel) else (m,)


def _probabilities(m):
    return [a for h in _hmms(m) for a in (h.initial, h.transition, *h.emissions)]


def _masks(m):
    return [a for h in _hmms(m) for a in (h.initial_mask, h.transition_mask, *h.emission_masks)]


# (model, data) from a generated masked HMM or mixture
models_and_data = st.one_of(
    hmm_and_data(), mixture_and_data().map(lambda case: (case[0], case[2]))
)


class TestRowLayout:
    """The parameter map, the parameter count and trimming walk a model's
    rows alike, whatever its structural zeros."""

    @SETTINGS
    @given(models_and_data)
    def test_unpack_inverts_pack(self, case):
        m, _ = case
        pmap = ParameterMap(m)
        back = pmap.unpack(pmap.pack(m))
        for got, want in zip(_probabilities(back), _probabilities(m)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip(_masks(back), _masks(m)):
            np.testing.assert_array_equal(got, want)
        if isinstance(m, MixtureModel):
            np.testing.assert_array_equal(back.gamma, m.gamma)

    @SETTINGS
    @given(models_and_data)
    def test_map_length_is_free_parameter_count(self, case):
        m, data = case
        assert ParameterMap(m).n_params == count_parameters(m, data).p

    @SETTINGS
    @given(models_and_data, st.floats(0.0, 0.3))
    def test_trimming_only_adds_structural_zeros(self, case, tol):
        m, data = case
        trimmed = trim_model(m, tol)
        for new, old in zip(_masks(trimmed), _masks(m)):
            assert (new | old == new).all()
        assert count_parameters(trimmed, data).p <= count_parameters(m, data).p


class TestRoundTrips:
    @SETTINGS
    @given(channel_sizes.flatmap(masked_hmms))
    def test_hmm_json_bit_for_bit(self, model):
        doc = model_to_json(model)
        back = model_from_json(json.loads(json.dumps(doc)))
        assert model_to_json(back) == doc
        for x, y in [(model.initial, back.initial), (model.transition, back.transition)]:
            assert x.tobytes() == y.tobytes()
        for x, y in zip(model.emissions, back.emissions):
            assert x.tobytes() == y.tobytes()
        assert (back.transition_mask == model.transition_mask).all()

    @SETTINGS
    @given(mixture_and_data())
    def test_mixture_json_bit_for_bit(self, case):
        mix = case[0]
        doc = model_to_json(mix)
        back = model_from_json(json.loads(json.dumps(doc)))
        assert model_to_json(back) == doc
        assert back.gamma.tobytes() == mix.gamma.tobytes()

    @SETTINGS
    @given(
        # Alphabet rejects tokens with outer whitespace; ids may have it
        labels=st.lists(st.text(min_size=1, max_size=3).filter(lambda s: s == s.strip()),
                        min_size=1, max_size=4, unique=True),
        missing=st.text(min_size=1, max_size=2).filter(lambda s: s == s.strip()),
        ids=st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dataset_json_exact(self, labels, missing, ids, seed):
        if missing in labels:
            missing = missing + "".join(labels)
        alpha = Alphabet(tuple(labels), missing)
        rng = np.random.default_rng(seed)
        codes = rng.integers(MISSING, len(labels), size=(len(ids), 3))
        data = SequenceDataset((Channel("work", alpha, codes),), tuple(ids))
        doc = data.to_json()
        back = SequenceDataset.from_json(json.loads(json.dumps(doc)))
        assert back.to_json() == doc
        assert back.subject_ids == data.subject_ids
        assert back.alphabets == data.alphabets
        assert back.channels[0].codes.tobytes() == data.channels[0].codes.tobytes()


# ----------------------------------------------------------------------
# fuzzed model documents through the CLI
# ----------------------------------------------------------------------

LEAVES = ["0", "1", "0.5", "-0.1", "2", "nan", "inf", "-inf", "1e308", "1e-300", "x"]


def _base_documents():
    """A two-state HMM and a two-cluster mixture that fit the fuzz manifest."""
    rng = np.random.default_rng(0)
    alphabets = make_alphabets([2])
    hmm = HmmModel(
        state_names=("A", "B"),
        channel_names=("work",),
        alphabets=alphabets,
        initial=np.array([0.5, 0.5]),
        transition=np.array([[0.9, 0.1], [0.0, 1.0]]),
        emissions=(rng.dirichlet(np.ones(2), size=2),),
        initial_mask=np.zeros(2, dtype=bool),
        transition_mask=np.array([[False, False], [True, False]]),
        emission_masks=(np.zeros((2, 2), dtype=bool),),
    )
    return model_to_json(hmm), model_to_json(build_mhmm([hmm, hmm], gamma=[[0.0, 0.3]]))


def _probability_slots(doc):
    """(container, key) pairs for every probability entry, mask entry and gamma."""
    hmm_docs = doc["clusters"] if doc["type"] == "mhmm" else [doc]
    slots = [(row, j) for row in doc.get("gamma", []) for j in range(len(row))]
    for h in hmm_docs:
        slots += [(h["initial"], j) for j in range(len(h["initial"]))]
        slots += [(row, j) for row in h["transition"] for j in range(len(row))]
        slots += [(row, j) for b in h["emissions"] for row in b for j in range(len(row))]
        masks = h["zero_mask"]
        slots += [(masks["initial"], j) for j in range(len(masks["initial"]))]
        slots += [(row, j) for row in masks["transition"] for j in range(len(row))]
        slots += [(row, j) for mk in masks["emissions"] for row in mk for j in range(len(row))]
    return slots


def _rows_of(doc):
    """Every list a fuzzer may shorten, lengthen or reverse: gamma, each
    probability vector and matrix, and each transition row."""
    hmm_docs = doc["clusters"] if doc["type"] == "mhmm" else [doc]
    out = [doc["gamma"]] if doc["type"] == "mhmm" else []
    for h in hmm_docs:
        out += [h["initial"], h["transition"], h["emissions"][0], *h["transition"]]
    return out


@st.composite
def fuzzed_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_base_documents()))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["leaf", "leaf", "drop", "append", "swap"]))
        if kind == "leaf":
            slots = _probability_slots(doc)
            container, key = slots[draw(st.integers(0, len(slots) - 1))]
            if isinstance(container[key], int):
                container[key] = draw(st.sampled_from([0, 1]))
            else:
                container[key] = draw(st.sampled_from(LEAVES))
        else:
            targets = [r for r in _rows_of(doc) if r]
            row = targets[draw(st.integers(0, len(targets) - 1))]
            if kind == "drop":
                row.pop()
            elif kind == "append":
                row.append(row[0])
            else:
                row.reverse()
    return doc


def _assert_clean_exit(code, out):
    """Exit 0, or exit 1 with a MarkovSeqError subclass last in run.log."""
    last = (out / "run.log").read_text().splitlines()[-1]
    if code != 0:
        assert code == 1
        name = re.match(r"error: (\w+): ", last)
        assert name, last
        assert issubclass(getattr(errors, name.group(1), type(None)), MarkovSeqError), last


class TestCliFuzz:
    @SETTINGS
    @given(fuzzed_documents())
    def test_loglik_exits_cleanly(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            manifest = write_manifest(
                tmp,
                [("work", ["c0m0", "c0m1"], [["c0m0", "c0m1", "*"], ["c0m1", "c0m1", "c0m0"]])],
            )
            (tmp / "model.json").write_text(json.dumps(doc))
            out = tmp / "out"
            code = main(
                ["loglik", "--manifest", str(manifest), "--model", str(tmp / "model.json"),
                 "--out", str(out)]
            )
            _assert_clean_exit(code, out)
            if code == 0:
                ll = json.loads((out / "loglik_result.json").read_text())["loglik"]
                assert np.isfinite(ll)


# ----------------------------------------------------------------------
# fuzzed manifest documents through the CLI
# ----------------------------------------------------------------------

# The strings the fuzzer writes name files, so a mutated "csv" or
# "covariates_csv" entry reads a copy of one of the manifest's CSVs, a file
# that does not exist (GONE) or a directory (FOLDER).
FILES = {
    "work.csv": "work", "home.csv": "home", "covariates.csv": "cov",
    "a": "work", "b": "home", "x": "cov", "y": "work", "*": "cov",
}
GONE, FOLDER = "gone.csv", "folder"
NAMES = sorted(FILES) + [GONE, FOLDER]
KEYS = ["channels", "name", "csv", "alphabet", "missing_token", "covariates_csv", "id_column"]


def json_values(strings, keys):
    """JSON values whose strings come from ``strings`` and whose object keys
    come from ``keys``."""
    return st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-2, 2)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from(strings),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(keys), inner, max_size=3),
        max_leaves=6,
    )


def _base_manifest(tmp):
    """Two channels and a covariate table; each file of FILES is written."""
    rows = {
        "work": [["a", "b", "*"], ["b", "b", "a"]],
        "home": [["x", "*", "y"], ["y", "x", "x"]],
    }
    write_manifest(
        tmp,
        [("work", ["a", "b"], rows["work"]), ("home", ["x", "y"], rows["home"])],
        covariate_rows=[[0.5], [-1.0]],
        covariate_names=["age"],
    )
    for name, source in FILES.items():
        src = {"cov": "covariates.csv"}.get(source, f"{source}.csv")
        (tmp / name).write_bytes((tmp / src).read_bytes())
    (tmp / FOLDER).mkdir()
    return json.loads((tmp / "manifest.json").read_text())


def _slots(node):
    """(container, key) for every value below ``node``."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    out = []
    for key in keys:
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            out += _slots(node[key])
    return out


@st.composite
def structure_edits(draw, strings, keys):
    """A list of edits, each a function of the document returning the new one:
    a value replaced, dropped or added anywhere, or the root replaced."""
    values = json_values(strings, keys)
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace"] * 4 + ["drop"] * 2 + ["add", "root"]))
        value = draw(values)
        pick = draw(st.integers(0, 10**6))
        key = draw(st.sampled_from(keys))

        def edit(doc, kind=kind, value=value, pick=pick, key=key):
            slots = _slots(doc) if isinstance(doc, (dict, list)) else []
            if kind == "root" or not slots:
                return value
            container, at = slots[pick % len(slots)]
            if kind == "replace":
                container[at] = value
            elif kind == "drop":
                del container[at]
            elif isinstance(container, dict):
                container[key] = value
            else:
                container.append(value)
            return doc

        edits.append(edit)
    return edits


# files named in place of channel 0's or 1's CSV (0, 1) or the covariate CSV (None)
named_files = st.dictionaries(st.sampled_from([0, 1, None]), st.sampled_from(NAMES), max_size=3)


class TestManifestFuzz:
    @staticmethod
    def _validate(files, edits):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            doc = _base_manifest(tmp)
            for c, name in files.items():
                entry = doc if c is None else doc["channels"][c]
                entry["covariates_csv" if c is None else "csv"] = name
            for edit in edits:
                doc = edit(doc)
            (tmp / "manifest.json").write_text(json.dumps(doc))
            out = tmp / "out"
            code = main(["validate", "--manifest", str(tmp / "manifest.json"), "--out", str(out)])
            _assert_clean_exit(code, out)
            if code == 0:
                assert (out / "validate_result.json").exists()

    @settings(SETTINGS, max_examples=100)
    @given(named_files, structure_edits(NAMES, KEYS))
    def test_validate_exits_cleanly(self, files, edits):
        self._validate(files, edits)

    @settings(SETTINGS, max_examples=50)
    @given(named_files)
    def test_validate_reads_named_files_cleanly(self, files):
        self._validate(files, [])


# ----------------------------------------------------------------------
# model documents edited in structure through the CLI
# ----------------------------------------------------------------------

MODEL_KEYS = [
    "type", "state_names", "channel_names", "alphabets", "labels", "missing_token",
    "initial", "transition", "emissions", "zero_mask", "clusters", "cluster_names",
    "covariate_names", "gamma",
]
MODEL_STRINGS = ["hmm", "mhmm", "A", "B", "work", "c0m0", "c0m1", "*", "(Intercept)", "0.5"]


class TestModelStructureFuzz:
    @settings(SETTINGS, max_examples=100)
    @given(st.sampled_from([0, 1]), structure_edits(MODEL_STRINGS, MODEL_KEYS))
    def test_loglik_and_simulate_exit_cleanly(self, base, edits):
        doc = _base_documents()[base]
        for edit in edits:
            doc = edit(doc)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            manifest = write_manifest(
                tmp,
                [("work", ["c0m0", "c0m1"], [["c0m0", "c0m1", "*"], ["c0m1", "c0m1", "c0m0"]])],
            )
            (tmp / "model.json").write_text(json.dumps(doc))
            for argv in (
                ["loglik", "--manifest", str(manifest)],
                ["simulate", "--n-subjects", "3", "--n-time", "3", "--seed", "1"],
            ):
                out = tmp / argv[0]
                code = main([*argv, "--model", str(tmp / "model.json"), "--out", str(out)])
                _assert_clean_exit(code, out)
