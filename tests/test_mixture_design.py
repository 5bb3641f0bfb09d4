"""Every mixture entry point checks its covariate design the same way.

``model._mixture_design`` decides which design a model is evaluated under,
so each bad design raises one error class whichever entry point is given it:
no design for a mixture with covariates raises DegenerateData, columns other
than the model's AlphabetMismatch, and a row count other than the number of
subjects ShapeMismatch.  The entry points that take a design alone raise
InvalidParameter for a model that is not a mixture.
"""

import numpy as np
import pytest

from markovseq import (
    CovariateDesign,
    FitControl,
    build_mhmm,
    cluster_posterior_probs,
    cluster_prior_probs,
    combine_clusters,
    covariate_standard_errors,
    fit_em,
    fit_local,
    fit_model,
    information_criteria,
    log_likelihood,
    loglik_gradient,
    mixture_summary,
    posterior_state_probs,
    simulate_mhmm_data,
    viterbi_paths,
)
from markovseq.errors import AlphabetMismatch, DegenerateData, InvalidParameter, ShapeMismatch
from markovseq.model import _mixture_design

from helpers import random_dataset, random_hmm

N_SUBJECTS, N_TIME = 5, 4
_SHORT = FitControl(em_max_iter=2, local_max_iter=2)

# entry point name -> call(mix, data, design)
ENTRY_POINTS = {
    "log_likelihood": lambda mix, data, d: log_likelihood(mix, data, d),
    "information_criteria": lambda mix, data, d: information_criteria(mix, data, d),
    "posterior_state_probs": lambda mix, data, d: posterior_state_probs(mix, data, d),
    "viterbi_paths": lambda mix, data, d: viterbi_paths(mix, data, design=d),
    "cluster_posterior_probs": lambda mix, data, d: cluster_posterior_probs(mix, data, d),
    "cluster_prior_probs": lambda mix, data, d: cluster_prior_probs(mix, d),
    "combine_clusters": lambda mix, data, d: combine_clusters(mix, d),
    "mixture_summary": lambda mix, data, d: mixture_summary(mix, data, d),
    "covariate_standard_errors": lambda mix, data, d: covariate_standard_errors(mix, data, d),
    "fit_em": lambda mix, data, d: fit_em(mix, data, d, _SHORT),
    "fit_local": lambda mix, data, d: fit_local(mix, data, d, _SHORT),
    "fit_model": lambda mix, data, d: fit_model(mix, data, d, _SHORT),
    "loglik_gradient": lambda mix, data, d: loglik_gradient(mix, data, d),
    "simulate_mhmm_data": lambda mix, data, d: simulate_mhmm_data(
        mix, d, data.n_subjects, data.n_time, 0
    ),
}
# these take a design alone, so it sets the subject count and cannot be wrong
# in its row count
DESIGN_ONLY = {"cluster_prior_probs", "combine_clusters"}

# bad design name -> (design for the ("(Intercept)", "x") mixture, error)
BAD_DESIGNS = {
    "none": (lambda: None, DegenerateData),
    "wrong names": (
        lambda: CovariateDesign(("(Intercept)", "y"), _columns(N_SUBJECTS, 2)),
        AlphabetMismatch,
    ),
    "wrong column count": (lambda: CovariateDesign.intercept(N_SUBJECTS), AlphabetMismatch),
    "wrong row count": (
        lambda: CovariateDesign(("(Intercept)", "x"), _columns(N_SUBJECTS + 1, 2)),
        ShapeMismatch,
    ),
}
NOT_APPLICABLE = {"wrong row count"}


def _columns(n_rows, n_columns):
    X = np.ones((n_rows, n_columns))
    X[:, 1:] = np.linspace(-1.0, 1.0, n_rows * (n_columns - 1)).reshape(n_rows, -1)
    return X


def _covariate_mixture():
    rng = np.random.default_rng(19)
    design = CovariateDesign(("(Intercept)", "x"), _columns(N_SUBJECTS, 2))
    gamma = np.array([[0.0, 0.5], [0.0, 1.5]])
    mix = build_mhmm([random_hmm(rng, 2, [3]), random_hmm(rng, 2, [3])], design, gamma)
    data = random_dataset(rng, mix.clusters[0], N_SUBJECTS, N_TIME)
    return mix, data, design


CASES = [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry in ENTRY_POINTS
    for bad in BAD_DESIGNS
    if not (entry in DESIGN_ONLY and bad in NOT_APPLICABLE)
]


@pytest.mark.parametrize("entry, bad", CASES)
def test_bad_design_raises_one_class_at_every_entry_point(entry, bad):
    mix, data, _ = _covariate_mixture()
    make, error = BAD_DESIGNS[bad]
    with pytest.raises(error):
        ENTRY_POINTS[entry](mix, data, make())


@pytest.mark.parametrize("entry", sorted(DESIGN_ONLY))
def test_design_only_entry_points_reject_an_hmm(entry):
    mix, data, design = _covariate_mixture()
    with pytest.raises(InvalidParameter, match="takes a MixtureModel, got HmmModel"):
        ENTRY_POINTS[entry](mix.clusters[0], data, design)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_matching_design_is_accepted_at_every_entry_point(entry):
    mix, data, design = _covariate_mixture()
    ENTRY_POINTS[entry](mix, data, design)


class TestMixtureDesign:
    def test_an_hmm_has_no_design(self):
        hmm = random_hmm(np.random.default_rng(3), 2, [3])
        assert _mixture_design(hmm, 4, None) is None
        assert _mixture_design(hmm, 4, CovariateDesign.intercept(7)) is None

    def test_intercept_mixture_without_a_design_gets_the_intercept(self):
        mix = build_mhmm([random_hmm(np.random.default_rng(4), 2, [3])] * 2)
        design = _mixture_design(mix, 6, None)
        assert design.names == ("(Intercept)",)
        np.testing.assert_array_equal(design.X, np.ones((6, 1)))

    def test_matching_design_is_returned_as_given(self):
        mix, _, design = _covariate_mixture()
        assert _mixture_design(mix, N_SUBJECTS, design) is design
