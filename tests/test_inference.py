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
    forward_backward,
    information_criteria,
    log_likelihood,
    mixture_summary,
    posterior_state_probs,
    viterbi_paths,
)
from markovseq.errors import (
    DegenerateData,
    ImpossibleData,
    NonInvertibleHessian,
    NumericalUnderflow,
)
from markovseq.seqdata import MISSING

from helpers import make_alphabets, random_dataset, random_hmm, random_mixture
from oracles import enumerate_loglik, enumerate_posterior, enumerate_viterbi


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

    def test_impossible_data_scaled_underflows_log_gives_minus_inf(self):
        data = _coin_data("00")  # staying in state 0 is impossible
        with pytest.raises(NumericalUnderflow):
            log_likelihood(_deterministic_model(), data, mode="scaled")
        assert log_likelihood(_deterministic_model(), data, mode="log") == -np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_emission_raises_in_scaled_mode(self, bad):
        from markovseq.errors import NonFiniteLikelihood
        from markovseq.estimation import expected_stats

        model = _deterministic_model()
        # state 1 emits symbol 1 with a non-finite "probability"; subject s1
        # enters state 1 at t=1 and shows symbol 1 there
        model = model.with_params(emissions=[np.array([[1.0, 0.0], [0.0, bad]])])
        data = _coin_data("011")
        where = "subject 's1' at t=1"
        with pytest.raises(NumericalUnderflow, match=where):
            log_likelihood(model, data, mode="scaled")
        with pytest.raises(NumericalUnderflow, match=where):
            posterior_state_probs(model, data, mode="scaled")
        with pytest.raises(NonFiniteLikelihood, match=where) as err:
            expected_stats(model, data)
        assert isinstance(err.value.__cause__, NumericalUnderflow)

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

        monkeypatch.setattr("markovseq.estimation.covariate_standard_errors", fail)
        rng = np.random.default_rng(152)
        mix, design = random_mixture(rng, 2, 2, [2], n_subjects=8, n_covariates=2)
        data = random_dataset(rng, mix.clusters[0], 8, 5)
        return mixture_summary(mix, data, design)

    def test_non_invertible_hessian_gives_nan_errors(self, monkeypatch):
        report = self._raise_from_standard_errors(monkeypatch, NonInvertibleHessian("singular"))
        assert (report.gamma_se[:, 0] == 0.0).all()
        assert np.isnan(report.gamma_se[:, 1:]).all()

    def test_other_standard_error_failures_propagate(self, monkeypatch):
        with pytest.raises(RuntimeError, match="boom"):
            self._raise_from_standard_errors(monkeypatch, RuntimeError("boom"))
