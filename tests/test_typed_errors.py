"""Typed errors that no other test raises: each one's class and message.

Each case builds its input under ``tmp_path`` and makes the one call that
must raise; ``{dir}`` in a message stands for ``tmp_path``.
"""

import json

import numpy as np
import pytest

import markovseq as mq
from markovseq import (
    Alphabet,
    Channel,
    CovariateDesign,
    SequenceDataset,
    build_hmm,
    build_mhmm,
    ingest_dataset,
    model_from_json,
    model_to_json,
)
from markovseq.cli import main
from markovseq.errors import (
    DimensionMismatch,
    DuplicateLabel,
    InvalidParameter,
    MissingCovariate,
    ShapeMismatch,
)
from markovseq.seqdata import _code_csv_bytes

from helpers import write_manifest

AB = Alphabet(("a", "b"))
ROWS = [["a", "b"], ["b", "a"]]


def _channel(name="work", codes=((0, 1), (1, 0))):
    return Channel(name, AB, np.array(codes))


def _coin():
    return build_hmm((AB,), initial=[1.0], transition=[[1.0]], emissions=[[0.5, 0.5]])


def _ingest_channel_csv(text):
    """Ingest a manifest whose one channel CSV holds ``text``; the byte path
    must decline it, so the ``csv`` path raises."""

    def run(tmp_path):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], ROWS)])
        (tmp_path / "work.csv").write_text(text)
        assert _code_csv_bytes(tmp_path / "work.csv", AB) is None
        ingest_dataset(manifest)

    return run


def _ingest_covariates(text):
    """Ingest a two-subject manifest whose covariate CSV holds ``text``."""

    def run(tmp_path):
        manifest = write_manifest(
            tmp_path, [("work", ["a", "b"], ROWS)], covariate_rows=[[0], [0]], covariate_names=["age"]
        )
        (tmp_path / "covariates.csv").write_text(text)
        ingest_dataset(manifest)

    return run


def _with_initial_mask(mask):
    doc = model_to_json(build_hmm((AB,), n_states=2, rng_seed=1))
    doc["zero_mask"]["initial"] = mask
    return doc


def _with_bad_design(call):
    """``call(mixture, data, design)`` on a two-subject intercept mixture
    with an array where its covariate design belongs."""
    data = SequenceDataset((_channel(),), ("s1", "s2"))
    return lambda _: call(build_mhmm([_coin(), _coin()]), data, np.ones((2, 1)))


COVARIATE_CSV = "covariate CSV '{dir}/covariates.csv'"
NOT_A_DESIGN = "the design argument takes a CovariateDesign, got ndarray"
DATA_META = ("data_meta must be a SequenceDataset, an Alphabet or a list or tuple of Alphabets, "
             "got ")

CASES = [
    # seqdata
    ("alphabet without labels", lambda _: Alphabet(()), DuplicateLabel,
     "alphabet needs at least one label"),
    ("channel codes 1-d", lambda _: _channel(codes=(0, 1)), ShapeMismatch,
     "channel 'work': codes must be 2-d"),
    ("channel code too large", lambda _: _channel(codes=((0, 1), (2, 0))), ShapeMismatch,
     "channel 'work': code 2 out of range at (1, 0)"),
    ("channel code below missing", lambda _: _channel(codes=((0, -2), (1, 0))), ShapeMismatch,
     "channel 'work': code -2 out of range at (0, 1)"),
    ("dataset without channels", lambda _: SequenceDataset((), ()), ShapeMismatch,
     "dataset needs at least one channel"),
    ("dataset repeated ids", lambda _: SequenceDataset((_channel(),), ("s1", "s1")),
     ShapeMismatch, "subject ids must be distinct"),
    ("dataset unequal channels",
     lambda _: SequenceDataset((_channel(), _channel("home", ((0, 1, 0), (1, 0, 1)))), ("s1", "s2")),
     ShapeMismatch, "channel 'home' has shape (2, 3), expected (2, 2)"),
    ("dataset id count", lambda _: SequenceDataset((_channel(),), ("s1", "s2", "s3")),
     ShapeMismatch, "3 subject ids for 2 rows of observations"),
    ("alphabet labels None", lambda _: Alphabet(None), InvalidParameter,
     "Alphabet.labels takes an Iterable, got NoneType"),
    ("define_alphabet of a number", lambda _: mq.define_alphabet(5), InvalidParameter,
     "define_alphabet takes an Iterable, got int"),
    ("channel alphabet a string", lambda _: Channel("c", "abc", np.zeros((2, 2), int)),
     InvalidParameter, "Channel.alphabet takes an Alphabet, got str"),
    ("dataset ids a number", lambda _: SequenceDataset((_channel(),), 5), InvalidParameter,
     "SequenceDataset.subject_ids takes an Iterable, got int"),
    ("dataset channels a number", lambda _: SequenceDataset(5, ("s1", "s2")), InvalidParameter,
     "SequenceDataset.channels takes an Iterable, got int"),
    ("dataset channel not a channel", lambda _: SequenceDataset((AB,), ("s1", "s2")),
     InvalidParameter, "SequenceDataset.channels takes a Channel, got Alphabet"),
    ("design names and columns", lambda _: CovariateDesign(("(Intercept)",), np.ones((2, 2))),
     ShapeMismatch, "design matrix columns must match names"),
    ("design without intercept",
     lambda _: CovariateDesign(("(Intercept)", "x"), [[1.0, 0.0], [2.0, 0.0]]),
     ShapeMismatch, "first design column must be an all-ones intercept"),
    ("design not finite",
     lambda _: CovariateDesign(("(Intercept)", "x"), [[1.0, 0.0], [1.0, np.inf]]),
     MissingCovariate, "covariates must be completely observed"),
    ("channel CSV header only", _ingest_channel_csv("id,t1,t2\n"), ShapeMismatch,
     "channel 'work' CSV '{dir}/work.csv' needs a header row and at least one data row"),
    ("channel CSV ragged row", _ingest_channel_csv("id,t1,t2\ns1,a,b\ns2,a\n"), ShapeMismatch,
     "channel 'work' CSV '{dir}/work.csv': row 2 has 2 fields, expected 3"),
    ("covariate row missing", _ingest_covariates("id,age\ns1,3\n"), MissingCovariate,
     COVARIATE_CSV + ": no covariate row for subject 's2'"),
    ("covariate nan", _ingest_covariates("id,age\ns1,3\ns2,nan\n"), MissingCovariate,
     COVARIATE_CSV + ": covariate 'age' of subject 's2' is 'nan', not a finite number"),
    ("covariate inf", _ingest_covariates("id,height,age\ns1,1,-Infinity\ns2,2,3\n"),
     MissingCovariate,
     COVARIATE_CSV + ": covariate 'age' of subject 's1' is '-Infinity', not a finite number"),
    ("covariate not a number", _ingest_covariates("id,age\ns1,3\ns2,NA\n"), MissingCovariate,
     COVARIATE_CSV + ": covariate 'age' of subject 's2' is 'NA', not a finite number"),
    # model
    ("zero_mask shape", lambda _: model_from_json(_with_initial_mask([0, 0, 0])),
     DimensionMismatch, "initial mask shape (3,), expected (2,)"),
    ("emission shape",
     lambda _: build_hmm((AB,), initial=[1.0], transition=[[1.0]], emissions=[[0.5, 0.25, 0.25]]),
     DimensionMismatch, "emission[0] shape (1, 3), expected (1, 2)"),
    ("mixture without clusters", lambda _: build_mhmm([]), DimensionMismatch,
     "mixture needs at least one cluster"),
    ("partial parameters", lambda _: build_hmm((AB,), initial=[1.0], transition=[[1.0]]),
     DimensionMismatch, "initial, transition, and emissions must be given together"),
    ("raw triples without alphabets",
     lambda _: build_mhmm([([1.0], [[1.0]], [[0.5, 0.5]])]),
     DimensionMismatch, "raw cluster triples require alphabets"),
    ("build_hmm on a list of numbers", lambda _: build_hmm([1, 2], n_states=2),
     InvalidParameter, DATA_META + "[1, 2]"),
    ("build_hmm on a string", lambda _: build_hmm("ab", n_states=2), InvalidParameter,
     DATA_META + "'ab'"),
    ("build_hmm on None", lambda _: build_hmm(None, n_states=2), InvalidParameter,
     DATA_META + "None"),
    ("restricted mixture on a number", lambda _: mq.build_restricted_mixture("lcm", 5, 2),
     InvalidParameter, DATA_META + "5"),
    ("build_mhmm covariates an array",
     lambda _: build_mhmm([_coin(), _coin()], np.ones((2, 1))), InvalidParameter,
     "build_mhmm takes a CovariateDesign, got ndarray"),
    # a covariate design that is not a CovariateDesign (test_arguments.py
    # puts one in every function that takes a design)
    *[(f"{name} design an array", _with_bad_design(call), InvalidParameter, message)
      for name, call, message in [
          ("log_likelihood", mq.log_likelihood, NOT_A_DESIGN),
          ("covariate_standard_errors", mq.covariate_standard_errors, NOT_A_DESIGN),
          ("mixture_summary", mq.mixture_summary, NOT_A_DESIGN),
          ("simulate_mhmm_data", lambda m, d, x: mq.simulate_mhmm_data(m, x, 2, 2, 0),
           NOT_A_DESIGN),
          ("cluster_prior_probs", lambda m, d, x: mq.cluster_prior_probs(m, x),
           "cluster_prior_probs takes a CovariateDesign, got ndarray"),
          ("gamma_m_step", lambda m, d, x: mq.gamma_m_step(x, np.full((2, 2), 0.5), m.gamma),
           "gamma_m_step takes a CovariateDesign, got ndarray"),
      ]],
    # plot
    ("palette empty",
     lambda _: mq.render_state_distribution_svg(SequenceDataset((_channel(),), ("s1", "s2")), []),
     InvalidParameter, "the number of palette colors must be >= 1, got 0"),
    ("palette a number",
     lambda _: mq.render_state_distribution_svg(SequenceDataset((_channel(),), ("s1", "s2")), 5),
     InvalidParameter, "render_state_distribution_svg's palette takes a list or tuple, got int"),
    ("channel palette a number",
     lambda _: mq.render_state_distribution_svg(
         SequenceDataset((_channel(), _channel("home")), ("s1", "s2")), [["#111"], 5]),
     InvalidParameter, "channel 1's palette takes a list or tuple, got int"),
]


@pytest.mark.parametrize(
    "action, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_raises_typed_error(tmp_path, action, error, message):
    with pytest.raises(error) as caught:
        action(tmp_path)
    assert type(caught.value) is error
    assert str(caught.value) == message.replace("{dir}", str(tmp_path))


def test_cli_model_covariate_missing_from_manifest_exits_one(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path, [("work", ["a", "b"], ROWS)], covariate_rows=[[1], [2]], covariate_names=["height"]
    )
    design = CovariateDesign(("(Intercept)", "age"), np.ones((2, 2)))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_json(build_mhmm([_coin(), _coin()], design))))
    out = tmp_path / "out"
    argv = ["loglik", "--manifest", str(manifest), "--model", str(model), "--out", str(out)]
    assert main(argv) == 1
    last = (out / "run.log").read_text().splitlines()[-1]
    assert last == "error: MissingCovariate: covariate 'age' not found in manifest data"
    assert capsys.readouterr().err.startswith("MissingCovariate")
