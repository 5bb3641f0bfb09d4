import sys
import time

import numpy as np
import pytest

from markovseq import (
    Alphabet,
    Channel,
    CovariateDesign,
    SequenceDataset,
    build_hmm,
    build_mhmm,
    build_mm,
    cluster_posterior_probs,
    cluster_prior_probs,
    combine_clusters,
    forward_backward,
    information_criteria,
    log_likelihood,
    mixture_summary,
    posterior_state_probs,
    viterbi_paths,
)
from markovseq.errors import (
    AlphabetMismatch,
    DegenerateData,
    ImpossibleData,
    InvalidParameter,
    MarkovSeqError,
    NegativeProbability,
    NonInvertibleHessian,
    NumericalUnderflow,
    RowSumError,
)
from markovseq.estimation import expected_stats
from markovseq.inference import (
    _clusters_and_inits,
    _evaluate,
    _leading_group,
    _run_chunked,
    _scaled_pass,
    _Workspace,
    cluster_logliks,
)
from markovseq.seqdata import MISSING

from helpers import (
    make_alphabets,
    random_dataset,
    random_hmm,
    random_mixture,
    uneven_mixture,
    with_unchecked_emissions,
)
from oracles import enumerate_loglik, enumerate_posterior, enumerate_viterbi
from test_log_viterbi_reference import _ref_viterbi_paths


def _coin_model():
    return build_hmm(
        make_alphabets([2]), initial=[1.0], transition=[[1.0]], emissions=[[0.5, 0.5]]
    )


def _coin_data(tokens):
    a = Alphabet(("c0m0", "c0m1"))
    codes = np.array([[MISSING if t == "*" else int(t) for t in tokens]])
    return SequenceDataset((Channel("Channel 1", a, codes),), ("s1",))


def _deterministic_model():
    # state 0 emits symbol 0, state 1 emits symbol 1; 0 -> 1 -> 1 ...
    return build_hmm(
        make_alphabets([2]),
        initial=[1.0, 0.0],
        transition=[[0.0, 1.0], [0.0, 1.0]],
        emissions=[[1.0, 0.0], [0.0, 1.0]],
    )


class TestForwardBackward:
    def test_single_state_fully_observed(self):
        ll = log_likelihood(_coin_model(), _coin_data("01"))
        assert abs(ll - 2 * np.log(0.5)) < 1e-14

    def test_missing_cell_drops_one_factor(self):
        ll = log_likelihood(_coin_model(), _coin_data("0*"))
        assert abs(ll - np.log(0.5)) < 1e-14

    def test_all_missing_subject_contributes_zero(self):
        ll = log_likelihood(_coin_model(), _coin_data("**"))
        assert ll == 0.0

    def test_unknown_mode_is_a_typed_error(self):
        with pytest.raises(InvalidParameter, match="unknown mode 'bogus'") as info:
            log_likelihood(_coin_model(), _coin_data("01"), mode="bogus")
        assert isinstance(info.value, MarkovSeqError)
        for mode in ("bogus", None):
            with pytest.raises(InvalidParameter, match="unknown mode"):
                forward_backward(_coin_model(), _coin_data("01"), mode=mode)

    @pytest.mark.parametrize("mode", ["scaled", "log"])
    def test_matches_path_enumeration(self, mode):
        rng = np.random.default_rng(100)
        for _ in range(15):
            model = random_hmm(rng, 3, [3, 3])
            data = random_dataset(rng, model, 3, 5, missing_rate=0.1)
            got = log_likelihood(model, data, mode=mode)
            want = enumerate_loglik(model, data).sum()
            assert abs(got - want) / abs(want) < 1e-10

    def test_scaled_alpha_rows_normalized_and_scaling_recovers_loglik(self):
        rng = np.random.default_rng(101)
        model = random_hmm(rng, 4, [3])
        data = random_dataset(rng, model, 5, 12, missing_rate=0.2)
        fb = forward_backward(model, data)
        np.testing.assert_allclose(fb.alpha.sum(axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.log(fb.scaling).sum(axis=1), fb.loglik_per_subject, atol=1e-12
        )

    def test_alpha_beta_product_constant_over_time(self):
        rng = np.random.default_rng(102)
        model = random_hmm(rng, 3, [2, 2])
        data = random_dataset(rng, model, 4, 9, missing_rate=0.15)
        fb = forward_backward(model, data)
        totals = (fb.alpha * fb.beta).sum(axis=2)
        np.testing.assert_allclose(totals, 1.0, atol=1e-10)

    def test_modes_agree_up_to_s10_t200(self):
        rng = np.random.default_rng(103)
        for S in (2, 5, 10):
            model = random_hmm(rng, S, [4])
            data = random_dataset(rng, model, 8, 200, missing_rate=0.05)
            a = forward_backward(model, data, mode="scaled").loglik_per_subject
            b = forward_backward(model, data, mode="log").loglik_per_subject
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_deterministic_consistent_sequence_has_loglik_zero(self):
        data = _coin_data("011")
        assert log_likelihood(_deterministic_model(), data) == 0.0

    @pytest.mark.parametrize("mode", ["scaled", "log"])
    def test_impossible_data_gives_minus_inf_in_both_modes(self, mode):
        data = _coin_data("00")  # staying in state 0 is impossible
        assert log_likelihood(_deterministic_model(), data, mode=mode) == -np.inf
        fb = forward_backward(_deterministic_model(), data, mode=mode)
        assert (fb.alpha == (0.0 if mode == "scaled" else -np.inf)).all()
        assert (fb.beta == fb.alpha).all()
        with pytest.raises(ImpossibleData, match="^subject 's1' has zero probability"):
            posterior_state_probs(_deterministic_model(), data, mode=mode)

    @pytest.mark.parametrize("mode", ["scaled", "log"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_emission_raises_in_both_modes(self, bad, mode):
        from markovseq.estimation import expected_stats

        model = _deterministic_model()
        # state 1 emits symbol 1 with a non-finite "probability"; subject s1
        # enters state 1 at t=1 and shows symbol 1 there
        model = with_unchecked_emissions(model, [np.array([[1.0, 0.0], [0.0, bad]])])
        data = _coin_data("011")
        where = "^NaN log-likelihood for subject 's1'$"
        with pytest.raises(NumericalUnderflow, match=where):
            log_likelihood(model, data, mode=mode)
        with pytest.raises(NumericalUnderflow, match=where):
            posterior_state_probs(model, data, mode=mode)
        with pytest.raises(NumericalUnderflow, match=where):
            expected_stats(model, data)

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(104)
        model = random_hmm(rng, 3, [3])
        data = random_dataset(rng, model, 40, 25, missing_rate=0.1)
        one = forward_backward(model, data, threads=1)
        four = forward_backward(model, data, threads=4)
        np.testing.assert_array_equal(one.alpha, four.alpha)
        np.testing.assert_array_equal(one.loglik_per_subject, four.loglik_per_subject)

    def test_alphabet_mismatch_rejected(self):
        rng = np.random.default_rng(105)
        model = random_hmm(rng, 2, [2])
        other = random_dataset(rng, random_hmm(rng, 2, [3]), 2, 3)
        from markovseq.errors import AlphabetMismatch

        with pytest.raises(AlphabetMismatch):
            forward_backward(model, other)

    def test_channel_count_mismatch_rejected(self):
        rng = np.random.default_rng(106)
        model = random_hmm(rng, 2, [2])
        other = random_dataset(rng, random_hmm(rng, 2, [2, 2]), 2, 3)
        for mode in ("scaled", "log"):
            with pytest.raises(AlphabetMismatch, match="model has 1 channels, data has 2"):
                log_likelihood(model, other, mode=mode)


class TestPosterior:
    def test_single_state_posterior_is_one(self):
        post = posterior_state_probs(_coin_model(), _coin_data("01"))
        np.testing.assert_array_equal(post, np.ones((1, 2, 1)))

    def test_final_slice_equals_normalized_forward(self):
        rng = np.random.default_rng(110)
        model = random_hmm(rng, 3, [3])
        data = random_dataset(rng, model, 4, 6)
        fb = forward_backward(model, data)
        post = posterior_state_probs(model, data)
        np.testing.assert_allclose(post[:, -1, :], fb.alpha[:, -1, :], atol=1e-12)

    @pytest.mark.parametrize("mode", ["scaled", "log"])
    def test_matches_path_enumeration(self, mode):
        rng = np.random.default_rng(111)
        for _ in range(8):
            model = random_hmm(rng, 3, [2, 3])
            data = random_dataset(rng, model, 2, 5, missing_rate=0.1)
            got = posterior_state_probs(model, data, mode=mode)
            want = enumerate_posterior(model, data)
            np.testing.assert_allclose(got, want, atol=1e-9)
            np.testing.assert_allclose(got.sum(axis=2), 1.0, atol=1e-10)


class TestViterbi:
    def test_single_state_path_and_joint(self):
        model = _coin_model()
        data = _coin_data("01")
        res = viterbi_paths(model, data)
        np.testing.assert_array_equal(res.paths, [[0, 0]])
        assert abs(res.log_joint[0] - log_likelihood(model, data)) < 1e-14

    def test_markov_model_decodes_observations(self):
        a = Alphabet(("A", "B"))
        codes = np.array([[0, 0, 1], [0, 1, 1]])
        data = SequenceDataset((Channel("ch", a, codes),), ("s1", "s2"))
        mm = build_mm(data)
        res = viterbi_paths(mm, data)
        np.testing.assert_array_equal(res.paths, codes)

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(120)
        for _ in range(10):
            model = random_hmm(rng, 3, [3])
            data = random_dataset(rng, model, 2, 5, missing_rate=0.1)
            res = viterbi_paths(model, data)
            want_joint, maximizers = enumerate_viterbi(model, data)
            np.testing.assert_allclose(res.log_joint, want_joint, rtol=1e-10)
            for i in range(2):
                assert tuple(res.paths[i]) in maximizers[i]

    def test_ties_resolve_to_lowest_index(self):
        model = build_hmm(
            make_alphabets([2]),
            initial=[0.5, 0.5],
            transition=[[0.5, 0.5], [0.5, 0.5]],
            emissions=[[0.5, 0.5], [0.5, 0.5]],
        )
        data = _coin_data("0101")
        res = viterbi_paths(model, data)
        np.testing.assert_array_equal(res.paths, np.zeros((1, 4), dtype=int))

    def test_impossible_data_raises(self):
        with pytest.raises(ImpossibleData):
            viterbi_paths(_deterministic_model(), _coin_data("00"))

    def test_nan_emission_raises_naming_subject(self):
        # s1 never shows the NaN cell and decodes; s2 meets it at t=1
        model = with_unchecked_emissions(
            _deterministic_model(), [np.array([[1.0, 0.0], [0.0, np.nan]])]
        )
        a = Alphabet(("c0m0", "c0m1"))
        codes = np.array([[0, MISSING, MISSING], [0, 1, 1]])
        data = SequenceDataset((Channel("Channel 1", a, codes),), ("s1", "s2"))
        with pytest.raises(NumericalUnderflow, match="subject 's2'"):
            viterbi_paths(model, data)
        ok = SequenceDataset((Channel("Channel 1", a, codes[:1]),), ("s1",))
        assert viterbi_paths(model, ok).log_joint.tolist() == [0.0]

    def test_log_joint_never_exceeds_loglik(self):
        rng = np.random.default_rng(121)
        for _ in range(10):
            model = random_hmm(rng, 3, [2])
            data = random_dataset(rng, model, 3, 6)
            res = viterbi_paths(model, data)
            fb = forward_backward(model, data)
            assert (res.log_joint <= fb.loglik_per_subject + 1e-12).all()

    def test_mixture_cluster_allocation_follows_path_block(self):
        rng = np.random.default_rng(122)
        mix, design = random_mixture(rng, 2, 2, [3], n_subjects=6)
        data = random_dataset(rng, mix.clusters[0], 6, 5)
        res = viterbi_paths(mix, data, design=design)
        offsets = mix.state_offsets + (mix.n_states_total,)
        for i in range(6):
            k = res.clusters[i]
            assert (res.paths[i] >= offsets[k]).all()
            assert (res.paths[i] < offsets[k + 1]).all()


class TestInformationCriteria:
    def test_bic_hand_check_fully_observed(self):
        # loglik = 2 log(1/2), p = 1, nobs = 2 -> BIC = 4 log 2 + log 2
        ic = information_criteria(_coin_model(), _coin_data("01"))
        assert abs(ic.bic - 5 * np.log(2)) < 1e-12
        assert ic.p == 1
        assert ic.nobs == 2.0

    def test_bic_hand_check_with_missing(self):
        ic = information_criteria(_coin_model(), _coin_data("0*"))
        assert abs(ic.bic - 2 * np.log(2)) < 1e-12
        assert ic.nobs == 1.0

    def test_equal_p_bic_difference_is_loglik_difference(self):
        rng = np.random.default_rng(130)
        m1 = random_hmm(rng, 3, [3])
        m2 = random_hmm(rng, 3, [3])
        data = random_dataset(rng, m1, 4, 6)
        ic1 = information_criteria(m1, data)
        ic2 = information_criteria(m2, data)
        assert abs((ic1.bic - ic2.bic) - (-2 * (ic1.loglik - ic2.loglik))) < 1e-9

    def test_degenerate_data_rejected(self):
        a = Alphabet(("c0m0", "c0m1"))
        data = SequenceDataset(
            (Channel("Channel 1", a, np.full((1, 2), MISSING)),), ("s1",)
        )
        with pytest.raises(DegenerateData):
            information_criteria(_coin_model(), data)


class TestClusterProbs:
    def test_zero_gamma_gives_uniform_priors(self):
        rng = np.random.default_rng(140)
        mix = build_mhmm([random_hmm(rng, 2, [2]) for _ in range(3)])
        w = cluster_prior_probs(mix, CovariateDesign.intercept(5))
        np.testing.assert_allclose(w, np.full((5, 3), 1 / 3), atol=1e-15)

    def test_intercept_log3_gives_quarter_three_quarters(self):
        rng = np.random.default_rng(141)
        clusters = [random_hmm(rng, 2, [2]) for _ in range(2)]
        mix = build_mhmm(clusters, gamma=np.array([[0.0, np.log(3.0)]]))
        w = cluster_prior_probs(mix, CovariateDesign.intercept(3))
        np.testing.assert_allclose(w, np.tile([0.25, 0.75], (3, 1)), rtol=1e-14)

    def test_extreme_logit_saturates_without_overflow(self):
        rng = np.random.default_rng(142)
        clusters = [random_hmm(rng, 2, [2]) for _ in range(2)]
        mix = build_mhmm(clusters, gamma=np.array([[0.0, 700.0]]))
        with np.errstate(over="raise"):
            w = cluster_prior_probs(mix, CovariateDesign.intercept(2))
        np.testing.assert_allclose(w, np.tile([0.0, 1.0], (2, 1)), atol=1e-200)

    def test_identical_clusters_posterior_uniform(self):
        rng = np.random.default_rng(143)
        sub = random_hmm(rng, 2, [3])
        mix = build_mhmm([sub, sub])
        data = random_dataset(rng, sub, 4, 5)
        post = cluster_posterior_probs(mix, data)
        np.testing.assert_allclose(post, 0.5, atol=1e-12)

    def test_impossible_cluster_eliminated(self):
        a = make_alphabets([2])
        c1 = build_hmm(a, initial=[1.0], transition=[[1.0]], emissions=[[0.5, 0.5]])
        c2 = build_hmm(a, initial=[1.0], transition=[[1.0]], emissions=[[1.0, 0.0]])
        mix = build_mhmm([c1, c2])
        data = _coin_data("01")  # symbol 1 impossible under cluster 2
        post = cluster_posterior_probs(mix, data)
        np.testing.assert_array_equal(post, [[1.0, 0.0]])

    def test_matches_direct_bayes_evaluation(self):
        rng = np.random.default_rng(144)
        for _ in range(6):
            mix, design = random_mixture(rng, 3, 2, [2, 2], n_subjects=3, n_covariates=2)
            data = random_dataset(rng, mix.clusters[0], 3, 4, missing_rate=0.1)
            got = cluster_posterior_probs(mix, data, design)
            w = cluster_prior_probs(mix, design)
            liks = np.stack(
                [np.exp(enumerate_loglik(sub, data)) for sub in mix.clusters], axis=1
            )
            want = w * liks
            want /= want.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(got, want, atol=1e-9)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-10)

    def test_identical_clusters_any_gamma_collapse_to_single_loglik(self):
        rng = np.random.default_rng(145)
        sub = random_hmm(rng, 2, [3])
        mix = build_mhmm([sub, sub], gamma=np.array([[0.0, 1.7]]))
        data = random_dataset(rng, sub, 5, 6, missing_rate=0.1)
        ll_mix = log_likelihood(mix, data)
        ll_single = log_likelihood(sub, data)
        assert abs(ll_mix - ll_single) < 1e-10


class TestMixtureSummary:
    def test_identical_clusters_symmetric_report(self):
        rng = np.random.default_rng(150)
        sub = random_hmm(rng, 2, [2])
        mix = build_mhmm([sub, sub])
        data = random_dataset(rng, sub, 6, 4)
        report = mixture_summary(mix, data)
        np.testing.assert_allclose(report.prior_means, [0.5, 0.5], atol=1e-12)
        # ties go to the lowest cluster index
        np.testing.assert_array_equal(report.assigned_counts, [6.0, 0.0])
        np.testing.assert_allclose(report.classification_table[0], [0.5, 0.5], atol=1e-12)
        assert np.isnan(report.classification_table[1]).all()

    def test_separated_clusters_identity_table(self):
        a = make_alphabets([2])
        c1 = build_hmm(a, initial=[1.0], transition=[[1.0]], emissions=[[1.0, 0.0]])
        c2 = build_hmm(a, initial=[1.0], transition=[[1.0]], emissions=[[0.0, 1.0]])
        mix = build_mhmm([c1, c2])
        alpha = Alphabet(("c0m0", "c0m1"))
        codes = np.array([[0, 0], [1, 1], [0, 0]])
        data = SequenceDataset(
            (Channel("Channel 1", alpha, codes),), ("s1", "s2", "s3")
        )
        report = mixture_summary(mix, data)
        np.testing.assert_allclose(report.classification_table, np.eye(2), atol=1e-12)
        np.testing.assert_array_equal(report.assigned_counts, [2.0, 1.0])

    def test_report_carries_full_field_set(self):
        rng = np.random.default_rng(151)
        mix, design = random_mixture(rng, 2, 2, [2], n_subjects=8, n_covariates=2)
        data = random_dataset(rng, mix.clusters[0], 8, 5)
        report = mixture_summary(mix, data, design)
        d = report.to_dict()
        for key in (
            "gamma",
            "gamma_se",
            "loglik",
            "bic",
            "prior_means",
            "assigned_counts",
            "assigned_proportions",
            "classification_table",
        ):
            assert key in d
        text = report.to_text()
        assert "Log-likelihood" in text and "BIC" in text
        assert np.asarray(d["gamma_se"]).shape == (2, 2)

    def _raise_from_standard_errors(self, monkeypatch, err):
        def fail(*args, **kwargs):
            raise err

        monkeypatch.setattr("markovseq.inference.covariate_standard_errors", fail)
        rng = np.random.default_rng(152)
        mix, design = random_mixture(rng, 2, 2, [2], n_subjects=8, n_covariates=2)
        data = random_dataset(rng, mix.clusters[0], 8, 5)
        return mixture_summary(mix, data, design)

    def test_non_invertible_hessian_gives_nan_errors(self, monkeypatch):
        report = self._raise_from_standard_errors(monkeypatch, NonInvertibleHessian("singular"))
        assert (report.gamma_se[:, 0] == 0.0).all()
        assert np.isnan(report.gamma_se[:, 1:]).all()
        want = ["gamma_se: NonInvertibleHessian: singular"]
        assert report.diagnostics == want
        assert report.to_dict()["diagnostics"] == want

    def test_an_information_matrix_not_positive_definite_gives_nan_errors(self, monkeypatch):
        # near-collinear design columns reach this branch only as LAPACK
        # happens to round, so the inverse is given a negative diagonal
        monkeypatch.setattr(np.linalg, "inv", lambda a: -np.eye(len(a)))
        rng = np.random.default_rng(152)
        mix, design = random_mixture(rng, 2, 2, [2], n_subjects=8, n_covariates=2)
        data = random_dataset(rng, mix.clusters[0], 8, 5)
        report = mixture_summary(mix, data, design)
        assert (report.gamma_se[:, 0] == 0.0).all()
        assert np.isnan(report.gamma_se[:, 1:]).all()
        want = "gamma_se: NonInvertibleHessian: information matrix is not positive definite"
        assert report.diagnostics == [want]

    def test_other_standard_error_failures_propagate(self, monkeypatch):
        with pytest.raises(RuntimeError, match="boom"):
            self._raise_from_standard_errors(monkeypatch, RuntimeError("boom"))


def _mixed_markov_case(n_subjects=1100, n_time=8):
    """Three Markov-model clusters over symbols 0..2 with structural zeros:
    cluster 1 never moves 0 -> 2, cluster 2 never moves 2 -> 0, cluster 3
    never starts in 0.  Each subject is drawn from one cluster, so it is
    possible there; 5 % of the cells are missing."""
    rng = np.random.default_rng(160)
    alphabets = make_alphabets([3])
    specs = [
        ([0.25, 0.25, 0.5], [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]]),
        ([0.25, 0.25, 0.5], [[0.25, 0.25, 0.5], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]]),
        ([0.0, 0.5, 0.5], [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]),
    ]
    clusters = [
        build_hmm(alphabets, initial=pi, transition=A, emissions=np.eye(3))
        for pi, A in specs
    ]
    design = CovariateDesign(
        ("(Intercept)", "x1"), np.column_stack([np.ones(n_subjects), rng.normal(size=n_subjects)])
    )
    mix = build_mhmm(clusters, covariates=design, gamma=[[0.0, 0.3, -0.2], [0.0, 0.5, 1.0]])
    k = rng.integers(0, 3, size=n_subjects)
    cdf_init = np.cumsum([pi for pi, _ in specs], axis=1)
    cdf_trans = np.cumsum([A for _, A in specs], axis=2)
    codes = np.empty((n_subjects, n_time), dtype=np.int64)
    codes[:, 0] = (rng.random(n_subjects)[:, None] >= cdf_init[k]).sum(axis=1)
    for t in range(1, n_time):
        cdf = cdf_trans[k, codes[:, t - 1]]
        codes[:, t] = (rng.random(n_subjects)[:, None] >= cdf).sum(axis=1)
    codes = np.where(rng.random(codes.shape) < 0.05, MISSING, codes)
    ids = tuple(f"s{i + 1}" for i in range(n_subjects))
    return mix, design, SequenceDataset((Channel("Channel 1", alphabets[0], codes),), ids)


class TestMixturePath:
    """The per-cluster mixture path against the block-diagonal embedding."""

    @pytest.mark.parametrize("mode", ["scaled", "log"])
    def test_posterior_matches_combined_model(self, mode):
        rng = np.random.default_rng(161)
        for r in range(6):
            if r % 2:
                mix, design = random_mixture(rng, 3, 2, [3, 2], n_subjects=7, n_covariates=2)
            else:
                mix, design = uneven_mixture(rng, [3, 2], (2, 3, 1), n_subjects=7)
            data = random_dataset(rng, mix.clusters[0], 7, 6, missing_rate=0.1)
            combined, initials = combine_clusters(mix, design)
            fb = forward_backward(combined, data, mode, subject_initials=initials)
            if mode == "scaled":
                want = fb.alpha * fb.beta
            else:
                want = np.exp(fb.alpha + fb.beta - fb.loglik_per_subject[:, None, None])
            got = posterior_state_probs(mix, data, design, mode)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_viterbi_matches_combined_model(self):
        rng = np.random.default_rng(162)
        cases = [random_mixture(rng, 3, 2, [3], n_subjects=9, n_covariates=2) for _ in range(3)]
        cases += [uneven_mixture(rng, [3], (3, 1, 2), n_subjects=9) for _ in range(2)]
        sub = random_hmm(rng, 2, [3])
        cases.append((build_mhmm([sub, sub, sub]), CovariateDesign.intercept(9)))  # ties
        for mix, design in cases:
            data = random_dataset(rng, mix.clusters[0], 9, 6, missing_rate=0.1)
            combined, initials = combine_clusters(mix, design)
            want = viterbi_paths(combined, data, subject_initials=initials)
            got = viterbi_paths(mix, data, design=design)
            np.testing.assert_array_equal(got.paths, want.paths)
            np.testing.assert_array_equal(got.log_joint, want.log_joint)
            offsets = np.asarray(mix.state_offsets + (mix.n_states_total,))
            np.testing.assert_array_equal(
                got.clusters, np.searchsorted(offsets, want.paths[:, 0], side="right") - 1
            )
        assert (got.clusters == 0).all()

    @pytest.mark.parametrize(
        "row, error",
        [
            ([0.2, 0.2], RowSumError),
            ([1.2, -0.2], NegativeProbability),
            ([np.nan, 1.0], RowSumError),
        ],
    )
    def test_subject_initials_rows_checked(self, row, error):
        rng = np.random.default_rng(164)
        model = random_hmm(rng, 2, [3])
        data = random_dataset(rng, model, 3, 4)
        initials = np.full((3, 2), 0.5)
        initials[1] = row
        calls = [
            lambda: forward_backward(model, data, "scaled", subject_initials=initials),
            lambda: forward_backward(model, data, "log", subject_initials=initials),
            lambda: viterbi_paths(model, data, subject_initials=initials),
        ]
        for call in calls:
            with pytest.raises(error, match="subject_initials row 1"):
                call()

    @pytest.mark.parametrize("shape", [(3, 3), (2, 2), (6,)])
    def test_subject_initials_of_another_shape_rejected(self, shape):
        rng = np.random.default_rng(166)
        model = random_hmm(rng, 2, [3])
        data = random_dataset(rng, model, 3, 4)
        initials = np.full(shape, 0.5)
        for call in (
            lambda: forward_backward(model, data, subject_initials=initials),
            lambda: viterbi_paths(model, data, subject_initials=initials),
        ):
            with pytest.raises(AlphabetMismatch) as err:
                call()
            assert str(err.value) == f"subject_initials shape {shape}, expected (3, 2)"

    def test_subject_initials_renormalized_on_a_copy(self):
        # a row inside the tolerance is renormalized as a model's row is,
        # and the caller's array is left alone
        rng = np.random.default_rng(165)
        model = random_hmm(rng, 2, [3])
        data = random_dataset(rng, model, 3, 4)
        initials = np.full((3, 2), 0.5)
        initials[1, 0] += 5e-9
        given = initials.copy()
        got = forward_backward(model, data, subject_initials=initials)
        want = forward_backward(model, data, subject_initials=initials / initials.sum(1)[:, None])
        np.testing.assert_array_equal(initials, given)
        np.testing.assert_array_equal(got.loglik_per_subject, want.loglik_per_subject)

    def test_subject_initials_rejected_for_mixture(self):
        rng = np.random.default_rng(163)
        mix, design = random_mixture(rng, 2, 2, [3], n_subjects=4)
        data = random_dataset(rng, mix.clusters[0], 4, 5)
        _, initials = combine_clusters(mix, design)
        with pytest.raises(AlphabetMismatch, match="subject_initials"):
            viterbi_paths(mix, data, subject_initials=initials, design=design)
        with pytest.raises(AlphabetMismatch, match="subject_initials"):
            expected_stats(mix, data, initials, design=design)

    def test_impossible_pairs_over_three_chunks(self):
        mix, design, data = _mixed_markov_case()
        oracle = cluster_logliks(mix, data)
        impossible = np.isneginf(oracle)
        assert 100 < impossible.sum() and not impossible.all(axis=1).any()
        rho = cluster_posterior_probs(mix, data, design)
        assert (rho[impossible] == 0.0).all() and (rho[~impossible] > 0).all()
        with np.errstate(divide="ignore"):
            log_num = np.log(cluster_prior_probs(mix, design)) + oracle
        want = np.exp(log_num - np.logaddexp.reduce(log_num, axis=1, keepdims=True))
        np.testing.assert_allclose(rho, want, rtol=1e-12)
        combined, initials = combine_clusters(mix, design)
        fb = forward_backward(combined, data, subject_initials=initials)
        post = posterior_state_probs(mix, data, design)
        np.testing.assert_allclose(post, fb.alpha * fb.beta, rtol=1e-12, atol=1e-15)
        assert abs(log_likelihood(mix, data, design) - fb.loglik_per_subject.sum()) < 1e-9
        one, three = (expected_stats(mix, data, threads=n, design=design) for n in (1, 3))
        np.testing.assert_array_equal(one.rho, three.rho)
        for x, y in zip(one.counts, three.counts, strict=True):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(posterior_state_probs(mix, data, design, threads=3), post)
        np.testing.assert_array_equal(cluster_posterior_probs(mix, data, design, threads=3), rho)

    def test_subject_impossible_in_every_cluster_is_named(self):
        mix, design, data = _mixed_markov_case()
        codes = data.channels[0].codes.copy()
        # starts in 0 (cluster 3 out at t=0), 0 -> 2 (cluster 1 out at t=1),
        # 2 -> 0 (cluster 2 out at t=2)
        codes[700, :3] = [0, 2, 0]
        data = SequenceDataset((Channel("Channel 1", data.alphabets[0], codes),), data.subject_ids)
        combined, initials = combine_clusters(mix, design)
        fb = forward_backward(combined, data, subject_initials=initials)
        assert np.flatnonzero(np.isneginf(fb.loglik_per_subject)).tolist() == [700]
        assert not fb.alpha[700].any() and not fb.beta[700].any()
        for threads in (1, 3):
            for mode in ("scaled", "log"):
                assert log_likelihood(mix, data, design, mode, threads) == -np.inf
            with pytest.raises(ImpossibleData, match="^subject 's701' has zero probability"):
                cluster_posterior_probs(mix, data, design, threads=threads)


class TestLogsumexp:
    """The numpy log-sum-exp behind log mode against scipy's."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(140)
        random = rng.normal(scale=30.0, size=(7, 5, 6))
        all_neg_inf = random.copy()
        all_neg_inf[2, :, :] = -np.inf  # every slice along axes 1 and 2
        mixed = random.copy()
        mixed[rng.random(mixed.shape) < 0.4] = -np.inf
        pos_inf = mixed.copy()
        pos_inf[1, 2, 3] = np.inf
        pos_inf[4, 0, 0] = np.inf
        nan = mixed.copy()
        nan[3, 1, 4] = np.nan
        nan[5, 4, 2] = np.nan
        nan[5, 4, 3] = np.inf
        ties = np.round(random / 10.0)
        return [random, all_neg_inf, mixed, pos_inf, nan, ties]

    @pytest.mark.parametrize("axis", [1, 2])
    def test_matches_scipy(self, axis):
        import warnings

        from scipy.special import logsumexp

        from markovseq.inference import _logsumexp

        for a in self._cases():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = logsumexp(a, axis=axis)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _logsumexp(a, axis)
            assert got.shape == want.shape
            for pick in (np.isnan, np.isposinf, np.isneginf):
                np.testing.assert_array_equal(pick(got), pick(want))
            finite = np.isfinite(want)
            np.testing.assert_allclose(got[finite], want[finite], rtol=1e-15, atol=0)

    def test_all_neg_inf_rows_give_neg_inf(self):
        from markovseq.inference import _logsumexp

        a = np.full((3, 4, 4), -np.inf)
        a[1, 2, 2] = 0.5
        got = _logsumexp(a, 2)
        assert got[1, 2] == 0.5
        assert np.isneginf(np.delete(got.ravel(), 6)).all()


def _bits(result):
    """The bytes of every array and number in a (nested) kernel result."""
    if isinstance(result, (tuple, list)):
        return [b for item in result for b in _bits(item)]
    return [np.asarray(result).tobytes()]


class TestWorkspace:
    """One workspace serves every pass over its dataset, bit for bit."""

    def _case(self, n_subjects, n_time):
        rng = np.random.default_rng(171)
        hmms = [random_hmm(rng, s, [4, 3]) for s in (2, 5)]
        data = random_dataset(rng, hmms[0], n_subjects, n_time, missing_rate=0.15)
        mix, design = uneven_mixture(rng, [4, 3], (2, 4, 3), n_subjects)
        return hmms, mix, design, data

    def test_interleaved_models_match_fresh_passes(self):
        # 1100 subjects: two full chunks and a short one, whose arrays are
        # prefixes of the full chunks' scratch
        hmms, mix, design, data = self._case(1100, 13)
        models = [(hmms[0], None), (mix, design), (hmms[1], None), (mix, design)]
        workspace = _Workspace(data)
        for want in ("stats", "full", "loglik", "stats"):
            for model, d in models:
                clusters, inits = _clusters_and_inits(model, data, d)
                fresh = _scaled_pass(clusters, data, inits, 1, want, _Workspace(data))
                reused = _scaled_pass(clusters, data, inits, 1, want, workspace)
                assert _bits(reused) == _bits(fresh), (want, len(clusters))

    def test_expected_stats_with_workspace_match_without(self):
        hmms, mix, design, data = self._case(600, 9)
        workspace = _Workspace(data)
        for model, d in [(mix, design), (hmms[1], None), (mix, design)]:
            got = expected_stats(model, data, design=d, workspace=workspace)
            want = expected_stats(model, data, design=d)
            assert _bits([got.loglik, got.rho, got.counts]) == _bits(
                [want.loglik, want.rho, want.counts]
            )

    @pytest.mark.parametrize("mode", ["scaled", "log"])
    def test_workspace_of_another_dataset_rejected(self, mode):
        hmms, _, _, data = self._case(20, 4)
        other = random_dataset(np.random.default_rng(1), hmms[0], 20, 4)
        with pytest.raises(ValueError, match="another dataset"):
            _evaluate(hmms[0], data, "loglik", mode=mode, workspace=_Workspace(other))

    def test_four_threads_under_fast_switching_match_one(self):
        # 2600 subjects: five full chunks and a short sixth; four workers
        # on a small host, switching threads as often as the interpreter can
        hmms, mix, design, data = self._case(2600, 6)
        cases = [(hmms[1], None), (mix, design)]
        serial = [expected_stats(m, data, threads=1, design=d) for m, d in cases]
        workspace = _Workspace(data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            rounds = 0
            while rounds < 2 or (rounds < 6 and time.perf_counter() - start < 3.0):
                for (m, d), want in zip(cases, serial):
                    got = expected_stats(m, data, threads=4, design=d, workspace=workspace)
                    assert _bits([got.rho, got.counts]) == _bits([want.rho, want.counts])
                rounds += 1
        finally:
            sys.setswitchinterval(interval)
        assert len(workspace.scratch) == 4

    def test_emission_counts_are_per_state_bincounts_of_the_posteriors(self):
        # per chunk one bincount per state over the time-major codes, weighted
        # by the state posteriors, then the chunks added in order: to the bit
        hmms, mix, design, data = self._case(1100, 7)
        for model, d in [(hmms[1], None), (mix, design)]:
            post = posterior_state_probs(model, data, d)
            stats = expected_stats(model, data, design=d, workspace=_Workspace(data))
            n_blocks = 2 + data.n_channels  # per cluster: initial, transition, channels
            offset = 0
            for k in range(len(stats.counts) // n_blocks):
                _, xi, *emis_num = stats.counts[k * n_blocks : (k + 1) * n_blocks]
                s = xi.shape[0]
                for ch, got in zip(data.channels, emis_num):
                    m = ch.alphabet.size
                    codes = np.where(ch.codes == MISSING, m, ch.codes)
                    parts = []
                    for a, b in [(0, 512), (512, 1024), (1024, 1100)]:
                        chunk = codes[a:b].T.ravel()
                        weights = post[a:b, :, offset : offset + s].transpose(2, 1, 0)
                        rows = [np.bincount(chunk, w.ravel(), m + 1)[:-1] for w in weights]
                        parts.append(np.stack(rows))
                    assert got.tobytes() == sum(parts).tobytes()
                offset += s

    def test_lowest_failing_chunk_raises_for_any_thread_count(self):
        def fn(k, span, worker):
            if k in (1, 2):
                raise NumericalUnderflow(f"chunk {k}")

        for threads in (1, 2, 3):
            with pytest.raises(NumericalUnderflow, match="chunk 1"):
                _run_chunked(fn, 4 * 512, threads)


class TestLogTables:
    """Log mode's tables for a model whose channels do not all fit in the
    leading group: 41 * 31 joint codes exceed ``_JOINT_CODES``, so channel 0
    is looked up alone and channels 1 and 2 one by one after it."""

    SIZES = [40, 30, 3]

    def _case(self, n_subjects, n_time):
        rng = np.random.default_rng(172)
        model = random_hmm(rng, 3, self.SIZES)
        return model, random_dataset(rng, model, n_subjects, n_time, missing_rate=0.1)

    def test_channels_beyond_the_leading_group_are_looked_up_alone(self):
        assert _leading_group([m + 1 for m in self.SIZES]) == 1
        _, data = self._case(5, 4)
        assert len(_Workspace(data).lookup[0]) == 3

    def test_log_mode_matches_scaled_mode_and_path_enumeration(self):
        model, data = self._case(6, 4)
        log = _evaluate(model, data, "loglik", mode="log")[0]
        np.testing.assert_allclose(log, _evaluate(model, data, "loglik")[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(log, enumerate_loglik(model, data), rtol=1e-12, atol=0)
        joint, maximizers = enumerate_viterbi(model, data)
        res = viterbi_paths(model, data)
        np.testing.assert_allclose(res.log_joint, joint, rtol=1e-12, atol=0)
        assert all(tuple(p) in best for p, best in zip(res.paths.tolist(), maximizers))

    def test_paths_match_the_log_of_product_reference(self):
        # two chunks; the reference takes the log of the product over all channels
        model, data = self._case(700, 9)
        got, want = viterbi_paths(model, data), _ref_viterbi_paths(model, data)
        np.testing.assert_array_equal(got.paths, want.paths)
        np.testing.assert_allclose(got.log_joint, want.log_joint, rtol=1e-13, atol=0)
