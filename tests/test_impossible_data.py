"""One rule for data the model cannot produce, in both numerical modes.

Two fixed cases.  ``impossible``: a one-state HMM that never emits ``b``,
on the subjects ``a,b`` and ``b,a``; both are impossible, ``s1`` is the
lowest.  ``underflow``: a two-state HMM whose only path for ``a,b`` has
probability 1e-200 * 1e-200, which the scaled forward normalizer cannot
hold (it becomes 0 at t = 1) while the log recursions give -921.03.

Forward-only results (log-likelihood, BIC, forward-backward) report -inf
for an impossible subject; whatever divides by the likelihood raises
ImpossibleData naming the lowest impossible subject, in both modes and on
the command line alike.  A true underflow gives scaled mode the log-space
log-likelihood; the scaled calls that need more raise NumericalUnderflow.
"""

import contextlib
import io
import json
import math
from dataclasses import astuple

import numpy as np
import pytest

import markovseq as mq
from markovseq.cli import main
from markovseq.errors import ImpossibleData, MarkovSeqError, NumericalUnderflow

from helpers import strict_json, write_manifest

ALPHABETS = (mq.Alphabet(("a", "b")),)
NAMES = dict(channel_names=("ch",))
IMPOSSIBLE_HMM = mq.build_hmm(
    ALPHABETS, initial=[1.0], transition=[[1.0]], emissions=[[[1.0, 0.0]]], **NAMES
)
UNDERFLOW_HMM = mq.build_hmm(
    ALPHABETS,
    initial=[1.0, 0.0],
    transition=[[1.0, 1e-200], [0.0, 1.0]],
    emissions=[[[1.0, 0.0], [1.0, 1e-200]]],
    **NAMES,
)
UNDERFLOW_LOGLIK = 2 * math.log(1e-200)
ZERO_PROBABILITY = (ImpossibleData, "subject 's1' has zero probability under the model")
CONTROL = mq.FitControl(em_max_iter=3, local_step=True, local_max_iter=2)


@pytest.fixture
def impossible(tmp_path):
    return _case(tmp_path, [["a", "b"], ["b", "a"]])


@pytest.fixture
def underflow(tmp_path):
    return _case(tmp_path, [["a", "b"]])


def _case(tmp_path, rows):
    manifest = write_manifest(tmp_path, [("ch", ["a", "b"], rows)])
    return manifest, mq.ingest_dataset(manifest)[0]


def _outcome(call):
    """The value of ``call()``, or (error class, message)."""
    try:
        return call()
    except MarkovSeqError as err:
        return type(err), str(err)


def _mode_calls(m, data):
    """Every library entry point that takes a mode, by name."""
    calls = {
        "log_likelihood": lambda mode: mq.log_likelihood(m, data, mode=mode),
        "information_criteria": lambda mode: astuple(mq.information_criteria(m, data, mode=mode)),
        "posterior_state_probs": lambda mode: mq.posterior_state_probs(m, data, mode=mode),
    }
    if isinstance(m, mq.MixtureModel):
        calls["mixture_summary"] = lambda mode: mq.mixture_summary(m, data, mode=mode).loglik
    else:
        calls["forward_backward"] = lambda mode: mq.forward_backward(m, data, mode).loglik_per_subject
    return calls


def _other_calls(m, data):
    """Every library entry point without a mode that computes a likelihood."""
    calls = {
        "viterbi_paths": lambda: mq.viterbi_paths(m, data).log_joint,
        "fit_em": lambda: mq.fit_em(m, data, control=CONTROL).loglik,
        "fit_local": lambda: mq.fit_local(m, data, control=CONTROL).loglik,
        "fit_model": lambda: mq.fit_model(m, data, control=CONTROL).loglik,
        "loglik_gradient": lambda: mq.loglik_gradient(m, data),
    }
    if isinstance(m, mq.MixtureModel):
        calls["cluster_posterior_probs"] = lambda: mq.cluster_posterior_probs(m, data)
    return calls


def _stages(tmp_path, manifest, model):
    """Per CLI stage and mode: (exit code, last line of run.log), and the
    stage's JSON artifacts and ``--format json`` output, parsed strictly."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(mq.model_to_json(model)))
    got, docs = {}, {}
    for stage in ("fit", "loglik", "bic", "viterbi", "posterior", "summary", "trim"):
        for mode in ("scaled", "logspace"):
            out = tmp_path / f"{stage}_{mode}"
            argv = [stage, "--manifest", str(manifest), "--model", str(path), "--mode", mode]
            if stage == "fit":
                argv += ["--em-max-iter", "3", "--local-step", "--local-max-iter", "2"]
            if stage == "trim":
                argv += ["--trim-tol", "1e-3"]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main(argv + ["--out", str(out), "--format", "json"])
            log = (out / "run.log").read_text().splitlines() if out.exists() else [""]
            got[stage, mode] = (code, log[-1])
            docs[stage, mode] = {p.name: strict_json(p.read_text()) for p in out.glob("*.json")}
            if stdout.getvalue():
                docs[stage, mode]["stdout"] = strict_json(stdout.getvalue())
    return got, docs


@pytest.mark.parametrize("mixture", [False, True], ids=["hmm", "mixture"])
def test_impossible_subjects_have_one_outcome_in_both_modes(impossible, mixture):
    _, data = impossible
    m = mq.build_mhmm([IMPOSSIBLE_HMM]) if mixture else IMPOSSIBLE_HMM
    for name, call in _mode_calls(m, data).items():
        scaled, log = _outcome(lambda: call("scaled")), _outcome(lambda: call("log"))
        if name in ("posterior_state_probs", "mixture_summary"):
            assert scaled == log == ZERO_PROBABILITY, name
        else:
            np.testing.assert_array_equal(scaled, log, err_msg=name)
    assert mq.log_likelihood(m, data) == -np.inf
    assert astuple(mq.information_criteria(m, data))[::3] == (-np.inf, np.inf)
    for name, call in _other_calls(m, data).items():
        assert _outcome(call) == ZERO_PROBABILITY, name


@pytest.mark.parametrize("mode", ["scaled", "log"])
def test_impossible_subjects_have_zero_forward_and_backward_variables(impossible, mode):
    fb = mq.forward_backward(IMPOSSIBLE_HMM, impossible[1], mode)
    assert fb.loglik_per_subject.tolist() == [-np.inf, -np.inf]
    assert (fb.alpha == fb.beta).all() and (fb.alpha == (0.0 if mode == "scaled" else -np.inf)).all()


@pytest.mark.parametrize("mixture", [False, True], ids=["hmm", "mixture"])
def test_impossible_subjects_have_one_outcome_on_the_command_line(
    impossible, tmp_path, mixture, capsys
):
    manifest, _ = impossible
    m = mq.build_mhmm([IMPOSSIBLE_HMM]) if mixture else IMPOSSIBLE_HMM
    got, docs = _stages(tmp_path, manifest, m)
    for stage in ("fit", "loglik", "bic", "viterbi", "posterior", "summary", "trim"):
        assert got[stage, "scaled"] == got[stage, "logspace"], stage
        assert docs[stage, "scaled"] == docs[stage, "logspace"], stage
    failed = (1, "error: ImpossibleData: " + ZERO_PROBABILITY[1])
    for stage in ("fit", "viterbi", "posterior") + (("summary",) if mixture else ()):
        assert got[stage, "scaled"] == failed, stage
    assert got["loglik", "scaled"] == (0, "loglik -inf")
    assert got["bic", "scaled"][0] == 0 and got["bic", "scaled"][1].startswith("bic inf")
    assert got["trim", "scaled"] == (0, "trim: loglik -inf -> -inf")
    # JSON writes the non-finite values as null; run.log above keeps -inf and inf
    loglik, bic, trim = (docs[stage, "scaled"] for stage in ("loglik", "bic", "trim"))
    assert loglik["loglik_result.json"] == loglik["stdout"] == {"loglik": None}
    assert bic["bic_result.json"] == bic["stdout"]
    assert (bic["stdout"]["loglik"], bic["stdout"]["bic"]) == (None, None)
    assert trim["trim_result.json"] == trim["stdout"]
    assert (trim["stdout"]["loglik_before"], trim["stdout"]["loglik_after"]) == (None, None)
    model = str(tmp_path / "model.json")
    assert main(["loglik", "--manifest", str(manifest), "--model", model,
                 "--out", str(tmp_path / "text")]) == 0
    assert capsys.readouterr().out == "-inf\n"


def test_a_true_underflow_scores_as_in_log_mode(underflow):
    _, data = underflow
    assert mq.log_likelihood(UNDERFLOW_HMM, data, mode="log") == pytest.approx(UNDERFLOW_LOGLIK)
    for name, call in _mode_calls(UNDERFLOW_HMM, data).items():
        scaled, log = _outcome(lambda: call("scaled")), _outcome(lambda: call("log"))
        if name in ("log_likelihood", "information_criteria"):
            assert scaled == log, name
            continue
        # the scaled backward variables cannot be formed
        assert scaled[0] is NumericalUnderflow and "subject 's1'" in scaled[1], name
        assert np.isfinite(log).all(), name
    assert mq.viterbi_paths(UNDERFLOW_HMM, data).log_joint == pytest.approx([UNDERFLOW_LOGLIK])
    for name in ("fit_em", "fit_local", "fit_model", "loglik_gradient"):
        error, message = _outcome(_other_calls(UNDERFLOW_HMM, data)[name])
        assert error is NumericalUnderflow and "subject 's1'" in message, name


def test_a_true_underflow_on_the_command_line(underflow, tmp_path):
    manifest, _ = underflow
    got, _ = _stages(tmp_path, manifest, UNDERFLOW_HMM)
    for stage in ("loglik", "bic", "viterbi", "trim"):
        assert got[stage, "scaled"] == got[stage, "logspace"], stage
        assert got[stage, "scaled"][0] == 0, stage
    assert got["loglik", "scaled"] == (0, f"loglik {UNDERFLOW_LOGLIK!r}")
    assert got["posterior", "scaled"][0] == 1 and "NumericalUnderflow" in got["posterior", "scaled"][1]
    assert got["posterior", "logspace"][0] == 0


# Cluster A's only path for ``a,b`` has probability 1e-200 * 1e-200, which
# the scaled normalizer cannot hold; cluster B emits ``a`` and ``b`` at
# ``b_emits`` each.  With equal weights A dominates when B's path is rarer.
THREE = (mq.Alphabet(("a", "b", "c")),)


def _two_clusters(b_emits):
    a = mq.build_hmm(THREE, initial=[1.0, 0.0], transition=[[1.0, 1e-200], [0.0, 1.0]],
                     emissions=[[[1.0, 0.0, 0.0], [1.0, 1e-200, 0.0]]], channel_names=("ch",))
    b = mq.build_hmm(THREE, initial=[1.0], transition=[[1.0]],
                     emissions=[[[b_emits, b_emits, 1.0 - 2 * b_emits]]], channel_names=("ch",))
    data = mq.SequenceDataset((mq.Channel("ch", THREE[0], np.array([[0, 1]])),), ("s1",))
    return mq.build_mhmm([a, b]), data


def test_a_mixture_keeps_an_underflowing_cluster_that_dominates():
    mix, data = _two_clusters(1e-300)
    want = math.log(0.5) + UNDERFLOW_LOGLIK  # B adds 1e-200 of A's likelihood
    for mode in ("scaled", "log"):
        assert mq.log_likelihood(mix, data, mode=mode) == pytest.approx(want, rel=1e-14), mode
    np.testing.assert_allclose(mq.cluster_posterior_probs(mix, data), [[1.0, 0.0]], atol=1e-150)
    assert mq.mixture_summary(mix, data).loglik == pytest.approx(want, rel=1e-14)
    # the scaled backward variables of cluster A cannot be formed
    for call in (lambda: mq.posterior_state_probs(mix, data), lambda: mq.fit_em(mix, data)):
        error, message = _outcome(call)
        assert error is NumericalUnderflow and "subject 's1'" in message
    assert np.isfinite(mq.posterior_state_probs(mix, data, mode="log")).all()


def test_a_mixture_drops_an_underflowing_cluster_whose_weight_is_zero():
    mix, data = _two_clusters(0.25)
    want = math.log(0.5 * 0.25**2)  # A adds 1e-400 / 0.0625 of B's likelihood
    for mode in ("scaled", "log"):
        assert mq.log_likelihood(mix, data, mode=mode) == pytest.approx(want, rel=1e-14), mode
    assert mq.cluster_posterior_probs(mix, data).tolist() == [[0.0, 1.0]]
    np.testing.assert_allclose(
        mq.posterior_state_probs(mix, data), mq.posterior_state_probs(mix, data, mode="log"),
        rtol=1e-12, atol=1e-300,
    )


def test_log_emissions_that_underflow_as_a_product_are_summed():
    # three channels each emit ``a`` at 1e-120: the product of their factors
    # at t = 0, 1 (1e-360) is 0 in floating point, its log -828.93
    ab = mq.Alphabet(("a", "b"))
    hmm = mq.build_hmm([ab] * 3, initial=[1.0], transition=[[1.0]],
                       emissions=[[[1e-120, 1.0 - 1e-120]]] * 3, channel_names=("x", "y", "z"))
    data = mq.SequenceDataset(tuple(mq.Channel(c, ab, np.array([[0, 0, 1]])) for c in "xyz"),
                              ("s1",))
    want = 6 * math.log(1e-120)  # -1657.86
    # scaled mode underflows too, and the log pass rescues it
    for mode in ("log", "scaled"):
        assert mq.log_likelihood(hmm, data, mode=mode) == pytest.approx(want, rel=1e-14)
    res = mq.viterbi_paths(hmm, data)
    assert res.paths.tolist() == [[0, 0, 0]]
    assert res.log_joint == pytest.approx([want], rel=1e-14)
    assert mq.posterior_state_probs(hmm, data, mode="log").tolist() == [[[1.0]] * 3]


def test_log_emissions_that_underflow_across_the_leading_group_are_summed():
    # 41 * 31 joint codes exceed one lookup, so channel y is looked up after
    # channel x; each emits symbol 0 at 1e-200, and their product at t = 0, 2
    # (1e-400) is 0 in floating point
    x, y = (mq.Alphabet(tuple(f"{c}{j}" for j in range(m))) for c, m in (("x", 40), ("y", 30)))
    rows = [[[1e-200] + [1.0 / (a.size - 1)] * (a.size - 1)] for a in (x, y)]
    hmm = mq.build_hmm([x, y], initial=[1.0], transition=[[1.0]], emissions=rows,
                       channel_names=("x", "y"))
    data = mq.SequenceDataset(
        (mq.Channel("x", x, np.array([[0, 1, 0]])), mq.Channel("y", y, np.array([[0, 1, 0]]))),
        ("s1",),
    )
    want = 4 * math.log(1e-200) + math.log(1 / 39) + math.log(1 / 29)  # -1849.10
    for mode in ("log", "scaled"):  # the scaled pass underflows, and the log pass rescues it
        assert mq.log_likelihood(hmm, data, mode=mode) == pytest.approx(want, rel=1e-14)
    res = mq.viterbi_paths(hmm, data)
    assert res.paths.tolist() == [[0, 0, 0]]
    assert res.log_joint == pytest.approx([want], rel=1e-14)
