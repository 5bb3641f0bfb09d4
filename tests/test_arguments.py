"""Every public entry point rejects an argument of the wrong kind with a typed error.

``KINDS`` names the arguments whose kind is the same wherever they appear
(every ``threads`` is an integer >= 1, every ``mix`` a mixture) and gives
values that are not of that kind: a bool, a float, a negative number, NaN, a
string, None or the wrong model kind, as each applies.  ``ROWS`` holds, per
public callable and argument, a valid value and a call that puts a value in
that argument and valid ones elsewhere.  Every bad value must raise
InvalidParameter (DimensionMismatch for a shape), and every valid one must
pass.  ``test_every_named_argument_has_a_row`` walks ``markovseq.__all__``,
so a new entry point with such an argument, a model, a dataset or a covariate
design among them, cannot skip its check.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import markovseq as mq
from markovseq.errors import (
    DimensionMismatch,
    InvalidParameter,
    check_count,
    check_real,
    check_text,
)

from helpers import make_alphabets, random_dataset, random_hmm

_RNG = np.random.default_rng(7)
ALPHABETS = make_alphabets([2])
HMM = random_hmm(_RNG, 2, [2])
DATA = random_dataset(_RNG, HMM, 4, 3)
TWO_CHANNELS = random_dataset(_RNG, random_hmm(_RNG, 2, [2, 3]), 4, 3)
DESIGN = mq.CovariateDesign(
    ("(Intercept)", "x"), np.column_stack([np.ones(4), _RNG.normal(size=4)])
)
MIX = mq.build_mhmm([HMM, random_hmm(_RNG, 2, [2])], DESIGN, gamma=[[0.0, 0.3], [0.0, -0.2]])
RHO = mq.cluster_posterior_probs(MIX, DATA, DESIGN)
SPEC = dict(n_subjects=3, n_time=2, seed=1, n_states=2, n_symbols=(2,))
_ONE_STEP = mq.FitControl(em_max_iter=1, local_max_iter=1)

_NUMBERS = [True, 2.5, -1, math.nan, "3", np.float64(2.0)]
KIND_VALUES = {
    "count": _NUMBERS + [None],
    "count or None": _NUMBERS,
    "counts": [(2, 0), (2, 1.5), (True,), "3", None, 3],
    "real": [True, -1.0, math.nan, "0.1", None],
    "string": [True, 1.5, None, b"/"],
    "choice": [True, 1.5, None, "bogus"],
    "bool": ["yes", 1, None, np.True_],
    "mixture": [HMM, "x", None],
    "model": [DATA, "x", None],
    "hmm": [MIX, "x", None],
    "control": [HMM, "x", 1.5, True, False],
    "dataset": [HMM, "x", None],
    "spec": ["x", None, SPEC],
    "design": [np.ones((4, 2)), "x", DATA],
}
KINDS = {
    **dict.fromkeys(
        ["threads", "n_states", "n_subjects", "n_time", "n_clusters", "seed", "max_iter",
         "em_max_iter", "restarts", "local_max_iter"],
        "count",
    ),
    "rng_seed": "count or None",
    "n_symbols": "counts",
    **dict.fromkeys(
        ["em_rel_tol", "local_grad_tol", "restart_perturb", "tol", "missing_rate", "grad_tol"],
        "real",
    ),
    "separator": "string",
    "missing_token": "string",
    "mode": "choice",
    "kind": "choice",
    "local_step": "bool",
    "mix": "mixture",
    **dict.fromkeys(["m", "model"], "model"),
    "data": "dataset",
    "design": "design",
    "control": "control",
    "spec": "spec",
}
# records the library builds and returns: a caller passes none of their fields
RESULTS = {"FBResult", "FitResult", "InformationCriteria", "MixtureSummary", "ParamCount",
           "ViterbiResult"}


def _fit_control_row(field, good):
    return (good, lambda v: mq.FitControl(**{field: v}))


def _spec_row(field, good):
    return (good, lambda v: mq.SimSpec(**{**SPEC, field: v}))


def _sim_hmm(**kw):
    return mq.simulate_hmm_data(**{"model": HMM, "n_subjects": 3, "n_time": 2, "seed": 0, **kw})


def _sim_mix(**kw):
    args = {"mix": MIX, "design": DESIGN, "n_subjects": 4, "n_time": 2, "seed": 0, **kw}
    return mq.simulate_mhmm_data(**args)


def _gamma(**kw):
    return mq.gamma_m_step(**{"design": DESIGN, "weights": RHO, "gamma_init": MIX.gamma, **kw})


# (callable, argument) -> (a valid value, call with the value in that argument)
ROWS = {
    **{("FitControl", f): _fit_control_row(f, g) for f, g in [
        ("em_max_iter", 3), ("em_rel_tol", math.inf), ("restarts", 2), ("restart_perturb", 1.0),
        ("local_step", True), ("local_max_iter", 0), ("local_grad_tol", 1e-3), ("seed", 0),
        ("threads", np.int64(2)),
    ]},
    **{("SimSpec", f): _spec_row(f, g) for f, g in [
        ("n_subjects", 1), ("n_time", 1), ("seed", 0), ("n_states", 3), ("n_symbols", [2, 3]),
        ("n_clusters", 2),
    ]},
    ("Alphabet", "missing_token"): ("", lambda v: mq.Alphabet(("a", "b"), v)),
    ("define_alphabet", "missing_token"): ("?", lambda v: mq.define_alphabet(["a"], v)),
    ("build_hmm", "n_states"): (np.int32(1), lambda v: mq.build_hmm(ALPHABETS, n_states=v)),
    ("build_hmm", "rng_seed"): (None, lambda v: mq.build_hmm(ALPHABETS, n_states=2, rng_seed=v)),
    ("build_restricted_mixture", "kind"): (
        "LCM", lambda v: mq.build_restricted_mixture(v, ALPHABETS, 2)),
    ("build_restricted_mixture", "n_clusters"): (
        1, lambda v: mq.build_restricted_mixture("mmm", ALPHABETS, v)),
    ("build_restricted_mixture", "rng_seed"): (
        3, lambda v: mq.build_restricted_mixture("mmm", ALPHABETS, 2, rng_seed=v)),
    **{(name, "mix"): (MIX, f) for name, f in [
        ("cluster_posterior_probs", lambda v: mq.cluster_posterior_probs(v, DATA, DESIGN)),
        ("cluster_prior_probs", lambda v: mq.cluster_prior_probs(v, DESIGN)),
        ("combine_clusters", lambda v: mq.combine_clusters(v, DESIGN)),
        ("separate_clusters", mq.separate_clusters),
        ("covariate_standard_errors", lambda v: mq.covariate_standard_errors(v, DATA, DESIGN)),
        ("mixture_summary", lambda v: mq.mixture_summary(v, DATA, DESIGN)),
        ("simulate_mhmm_data", lambda v: _sim_mix(mix=v)),
    ]},
    **{(name, "control"): (_ONE_STEP, lambda v, f=f: f(HMM, DATA, control=v))
       for name, f in [("fit_em", mq.fit_em), ("fit_local", mq.fit_local),
                       ("fit_model", mq.fit_model)]},
    **{(name, "mode"): ("Log", f) for name, f in [
        ("forward_backward", lambda v: mq.forward_backward(HMM, DATA, mode=v)),
        ("log_likelihood", lambda v: mq.log_likelihood(HMM, DATA, mode=v)),
        ("posterior_state_probs", lambda v: mq.posterior_state_probs(HMM, DATA, mode=v)),
        ("information_criteria", lambda v: mq.information_criteria(HMM, DATA, mode=v)),
        ("mixture_summary", lambda v: mq.mixture_summary(MIX, DATA, DESIGN, mode=v)),
    ]},
    **{(name, "threads"): (3, f) for name, f in [
        ("forward_backward", lambda v: mq.forward_backward(HMM, DATA, threads=v)),
        ("log_likelihood", lambda v: mq.log_likelihood(HMM, DATA, threads=v)),
        ("posterior_state_probs", lambda v: mq.posterior_state_probs(HMM, DATA, threads=v)),
        ("cluster_posterior_probs",
         lambda v: mq.cluster_posterior_probs(MIX, DATA, DESIGN, threads=v)),
        ("loglik_gradient", lambda v: mq.loglik_gradient(HMM, DATA, threads=v)),
    ]},
    ("forward_backward", "model"): (HMM, lambda v: mq.forward_backward(v, DATA)),
    **{(name, "m"): (HMM, f) for name, f in [
        ("count_parameters", lambda v: mq.count_parameters(v, DATA)),
        ("fit_em", lambda v: mq.fit_em(v, DATA, control=_ONE_STEP)),
        ("fit_local", lambda v: mq.fit_local(v, DATA, control=_ONE_STEP)),
        ("fit_model", lambda v: mq.fit_model(v, DATA, control=_ONE_STEP)),
        ("information_criteria", lambda v: mq.information_criteria(v, DATA)),
        ("log_likelihood", lambda v: mq.log_likelihood(v, DATA)),
        ("loglik_gradient", lambda v: mq.loglik_gradient(v, DATA)),
        ("model_to_json", mq.model_to_json),
        ("posterior_state_probs", lambda v: mq.posterior_state_probs(v, DATA)),
        ("trim_model", lambda v: mq.trim_model(v, 0)),
        ("viterbi_paths", lambda v: mq.viterbi_paths(v, DATA)),
    ]},
    ("ParameterMap", "model"): (MIX, mq.ParameterMap),
    **{(name, "data"): (DATA, f) for name, f in [
        ("build_mm", mq.build_mm),
        ("cluster_posterior_probs", lambda v: mq.cluster_posterior_probs(MIX, v, DESIGN)),
        ("count_parameters", lambda v: mq.count_parameters(HMM, v)),
        ("covariate_standard_errors", lambda v: mq.covariate_standard_errors(MIX, v, DESIGN)),
        ("effective_size", mq.effective_size),
        ("fit_em", lambda v: mq.fit_em(HMM, v, control=_ONE_STEP)),
        ("fit_local", lambda v: mq.fit_local(HMM, v, control=_ONE_STEP)),
        ("fit_model", lambda v: mq.fit_model(HMM, v, control=_ONE_STEP)),
        ("forward_backward", lambda v: mq.forward_backward(HMM, v)),
        ("information_criteria", lambda v: mq.information_criteria(HMM, v)),
        ("log_likelihood", lambda v: mq.log_likelihood(HMM, v)),
        ("loglik_gradient", lambda v: mq.loglik_gradient(HMM, v)),
        ("mc_to_sc", mq.mc_to_sc),
        ("mixture_summary", lambda v: mq.mixture_summary(MIX, v, DESIGN)),
        ("posterior_state_probs", lambda v: mq.posterior_state_probs(HMM, v)),
        ("viterbi_paths", lambda v: mq.viterbi_paths(HMM, v)),
    ]},
    **{(name, "design"): (DESIGN, f) for name, f in [
        ("cluster_posterior_probs", lambda v: mq.cluster_posterior_probs(MIX, DATA, v)),
        ("cluster_prior_probs", lambda v: mq.cluster_prior_probs(MIX, v)),
        ("combine_clusters", lambda v: mq.combine_clusters(MIX, v)),
        ("covariate_standard_errors", lambda v: mq.covariate_standard_errors(MIX, DATA, v)),
        ("fit_em", lambda v: mq.fit_em(MIX, DATA, v, control=_ONE_STEP)),
        ("fit_local", lambda v: mq.fit_local(MIX, DATA, v, control=_ONE_STEP)),
        ("fit_model", lambda v: mq.fit_model(MIX, DATA, v, control=_ONE_STEP)),
        ("gamma_m_step", lambda v: _gamma(design=v)),
        ("information_criteria", lambda v: mq.information_criteria(MIX, DATA, v)),
        ("log_likelihood", lambda v: mq.log_likelihood(MIX, DATA, v)),
        ("loglik_gradient", lambda v: mq.loglik_gradient(MIX, DATA, v)),
        ("mixture_summary", lambda v: mq.mixture_summary(MIX, DATA, v)),
        ("posterior_state_probs", lambda v: mq.posterior_state_probs(MIX, DATA, v)),
        ("simulate_mhmm_data", lambda v: _sim_mix(design=v)),
        ("viterbi_paths", lambda v: mq.viterbi_paths(MIX, DATA, design=v)),
    ]},
    ("gamma_m_step", "max_iter"): (0, lambda v: _gamma(max_iter=v)),
    ("gamma_m_step", "grad_tol"): (0.0, lambda v: _gamma(grad_tol=v)),
    ("mc_to_sc", "separator"): ("+", lambda v: mq.mc_to_sc(TWO_CHANNELS, v)),
    ("render_state_distribution_svg", "data"): (DATA, mq.render_state_distribution_svg),
    **{("simulate_hmm_data", f): (g, lambda v, f=f: _sim_hmm(**{f: v})) for f, g in [
        ("model", HMM), ("n_subjects", 1), ("n_time", 1), ("seed", 0), ("missing_rate", 1)]},
    **{("simulate_mhmm_data", f): (g, lambda v, f=f: _sim_mix(**{f: v})) for f, g in [
        ("n_subjects", 4), ("n_time", 1), ("seed", 0), ("missing_rate", 0.0)]},
    ("simulate_parameters", "spec"): (mq.SimSpec(**SPEC), mq.simulate_parameters),
    ("trim_model", "tol"): (0, lambda v: mq.trim_model(HMM, v)),
}
# arguments whose kind is not in KINDS, as they are named differently elsewhere
OTHER_KINDS = {
    ("forward_backward", "model"): "hmm",
    ("simulate_hmm_data", "model"): "hmm",
}
# shapes: DimensionMismatch, not InvalidParameter
SHAPES = {
    ("gamma_m_step", "gamma_init"): (
        [np.zeros((2, 3)), np.zeros((1, 2)), np.zeros(2)], lambda v: _gamma(gamma_init=v)),
    ("gamma_m_step", "weights"): (
        [RHO[:, 0], RHO[:3], np.hstack([RHO, RHO])], lambda v: _gamma(weights=v)),
}


def _kind(key):
    return OTHER_KINDS.get(key) or KINDS[key[1]]


CASES = [(key, value) for key in ROWS for value in KIND_VALUES[_kind(key)]]


def _id(case):
    (callee, arg), value = case
    plain = isinstance(value, (bool, int, float, str, bytes, tuple, type(None)))
    return f"{callee}-{arg}-{repr(value) if plain else type(value).__name__}"


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_a_value_not_of_its_kind_raises_invalid_parameter(case):
    key, value = case
    with pytest.raises(InvalidParameter) as info:
        ROWS[key][1](value)
    # a value check names the argument; an instance check its caller
    assert key[1] in str(info.value) or key[0] in str(info.value)


@pytest.mark.parametrize("key", ROWS, ids="-".join)
def test_the_valid_value_of_each_row_passes(key):
    good, call = ROWS[key]
    call(good)


@pytest.mark.parametrize("callee", ["cluster_posterior_probs", "cluster_prior_probs",
                                    "combine_clusters", "separate_clusters",
                                    "covariate_standard_errors", "mixture_summary",
                                    "simulate_mhmm_data"])
def test_a_mixture_only_function_names_itself(callee):
    with pytest.raises(InvalidParameter, match=f"^{callee} takes a MixtureModel, got HmmModel$"):
        ROWS[callee, "mix"][1](HMM)


@pytest.mark.parametrize(
    "key, value", [(k, v) for k, (bad, _) in SHAPES.items() for v in bad], ids=repr
)
def test_a_shape_that_does_not_fit_raises_dimension_mismatch(key, value):
    with pytest.raises(DimensionMismatch):
        SHAPES[key][1](value)


def test_every_named_argument_has_a_row():
    missing = []
    for name in mq.__all__:
        obj = getattr(mq, name)
        if not callable(obj) or name in RESULTS or name == "MarkovSeqError":
            continue
        for arg in inspect.signature(obj).parameters:
            if arg in KINDS and (name, arg) not in ROWS:
                missing.append(f"{name}({arg})")
    assert missing == []


_INTEGERS = st.integers(-10**6, 10**6)
_ANYTHING = st.one_of(
    _INTEGERS, _INTEGERS.map(np.int64), st.floats(allow_nan=True), st.booleans(),
    st.text(max_size=3), st.none(),
)


@given(value=_ANYTHING, low=st.integers(0, 2))
def test_count_check_takes_exactly_the_integers_from_its_bound(value, low):
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and value >= low:
        got = check_count(value, "n", low)
        assert type(got) is int and got == value
    else:
        with pytest.raises(InvalidParameter, match="^n must be"):
            check_count(value, "n", low)


@given(value=_ANYTHING, high=st.sampled_from([1.0, math.inf]), open_low=st.booleans())
def test_real_check_takes_exactly_the_numbers_in_its_range(value, high, open_low):
    number = isinstance(value, (int, float, np.integer)) and not isinstance(value, bool)
    if number and (0 < value if open_low else 0 <= value) and value <= high:
        got = check_real(value, "x", 0, high, open_low)
        assert type(got) is float and got == value
    else:
        with pytest.raises(InvalidParameter, match="^x must be a number in"):
            check_real(value, "x", 0, high, open_low)


@given(value=st.one_of(st.text(max_size=8), _ANYTHING))
def test_choice_check_takes_exactly_its_choices_in_any_case(value):
    if isinstance(value, str) and value.lower() in ("mmm", "lcm"):
        assert check_text(value, "kind", ("mmm", "lcm")) == value.lower()
    else:
        with pytest.raises(InvalidParameter, match="^unknown kind"):
            check_text(value, "kind", ("mmm", "lcm"))
