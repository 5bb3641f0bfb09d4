import json

import numpy as np
import pytest

from markovseq import (
    Alphabet,
    Channel,
    CovariateDesign,
    HmmModel,
    MixtureModel,
    ParameterMap,
    SequenceDataset,
    build_hmm,
    build_mhmm,
    build_mm,
    build_restricted_mixture,
    combine_clusters,
    count_parameters,
    log_likelihood,
    model_from_json,
    model_to_json,
    separate_clusters,
    trim_model,
)
from markovseq.errors import (
    DimensionMismatch,
    DuplicateLabel,
    GammaReferenceNotZero,
    InvalidParameter,
    MultichannelNotAllowed,
    NegativeProbability,
    RowAnnihilated,
    RowSumError,
    ShapeMismatch,
)
from markovseq.estimation import EStats, _m_step
from markovseq.seqdata import MISSING

from helpers import (
    make_alphabets,
    random_dataset,
    random_hmm,
    random_mixture,
    with_unchecked_emissions,
)

FIVE_STATE_INIT = [0.9, 0.06, 0.02, 0.01, 0.01]
FIVE_STATE_TRANS = [
    [0.80, 0.10, 0.05, 0.03, 0.02],
    [0.02, 0.80, 0.10, 0.05, 0.03],
    [0.02, 0.03, 0.80, 0.10, 0.05],
    [0.02, 0.03, 0.05, 0.80, 0.10],
    [0.02, 0.03, 0.05, 0.05, 0.85],
]
UPPER_TRIANGULAR_TRANS = [
    [0.80, 0.10, 0.05, 0.03, 0.02],
    [0.00, 0.90, 0.05, 0.03, 0.02],
    [0.00, 0.00, 0.90, 0.07, 0.03],
    [0.00, 0.00, 0.00, 0.90, 0.10],
    [0.00, 0.00, 0.00, 0.00, 1.00],
]


def _emission(rng, S, M):
    return rng.dirichlet(np.ones(M), size=S)


class TestBuildHmm:
    def test_dense_five_state_start_accepted(self):
        rng = np.random.default_rng(0)
        alphabets = make_alphabets([8])
        m = build_hmm(
            alphabets,
            initial=FIVE_STATE_INIT,
            transition=FIVE_STATE_TRANS,
            emissions=_emission(rng, 5, 8),
        )
        assert not m.initial_mask.any()
        assert not m.transition_mask.any()
        np.testing.assert_allclose(m.transition.sum(axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(
            m.transition[0], [0.80, 0.10, 0.05, 0.03, 0.02], rtol=1e-12
        )

    def test_degenerate_single_state_single_symbol(self):
        m = build_hmm(make_alphabets([1]), initial=[1.0], transition=[[1.0]], emissions=[[1.0]])
        assert m.n_states == 1
        assert m.initial[0] == 1.0

    def test_row_sum_outside_tolerance_rejected(self):
        with pytest.raises(RowSumError) as err:
            build_hmm(
                make_alphabets([2]),
                initial=[1.0, 0.0],
                transition=[[0.5, 0.4], [0.5, 0.5]],
                emissions=_emission(np.random.default_rng(0), 2, 2),
            )
        assert err.value.row == 0
        assert abs(err.value.total - 0.9) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        with pytest.raises(RowSumError):
            build_hmm(
                make_alphabets([2]),
                initial=[1.0],
                transition=[[1.0]],
                emissions=[[bad, 0.3]],
            )

    def test_row_inside_tolerance_renormalized(self):
        m = build_hmm(
            make_alphabets([2]),
            initial=[0.5, 0.5 + 5e-9],
            transition=np.eye(2),
            emissions=[[0.5, 0.5], [0.5, 0.5]],
        )
        assert m.initial.sum() == 1.0

    def test_negative_probability_rejected(self):
        with pytest.raises(NegativeProbability):
            build_hmm(
                make_alphabets([2]),
                initial=[1.1, -0.1],
                transition=np.eye(2),
                emissions=[[0.5, 0.5], [0.5, 0.5]],
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_hmm(
                make_alphabets([2]),
                initial=[0.5, 0.5],
                transition=np.eye(3),
                emissions=[[0.5, 0.5], [0.5, 0.5]],
            )

    def test_zero_entries_become_structural(self):
        m = build_hmm(
            make_alphabets([2]),
            initial=[1.0, 0.0],
            transition=[[0.5, 0.5], [0.0, 1.0]],
            emissions=[[1.0, 0.0], [0.5, 0.5]],
        )
        assert m.initial_mask.tolist() == [False, True]
        assert m.transition_mask.tolist() == [[False, False], [True, False]]
        assert m.emission_masks[0].tolist() == [[False, True], [False, False]]

    def test_random_init_is_seeded_and_dense(self):
        alphabets = make_alphabets([3, 2])
        a = build_hmm(alphabets, n_states=4, rng_seed=11)
        b = build_hmm(alphabets, n_states=4, rng_seed=11)
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(a.emissions[1], b.emissions[1])
        assert (a.initial > 0).all() and (a.transition > 0).all()
        assert not a.transition_mask.any()

    def test_validation_idempotent(self):
        rng = np.random.default_rng(5)
        m = random_hmm(rng, 3, [3, 2])
        again = build_hmm(
            m.alphabets, initial=m.initial, transition=m.transition, emissions=list(m.emissions)
        )
        np.testing.assert_array_equal(m.initial, again.initial)
        np.testing.assert_array_equal(m.transition, again.transition)
        for x, y in zip(m.emissions, again.emissions):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(m.transition_mask, again.transition_mask)


def _single_channel_data(rows, labels=("A", "B")):
    a = Alphabet(tuple(labels))
    codes = np.array(
        [[MISSING if tok == "*" else labels.index(tok) for tok in row] for row in rows]
    )
    return SequenceDataset(
        (Channel("ch", a, codes),), tuple(f"s{i + 1}" for i in range(len(rows)))
    )


class TestBuildMm:
    def test_hand_counted_frequencies(self):
        data = _single_channel_data([["A", "A", "B"], ["A", "B", "B"]])
        m = build_mm(data)
        np.testing.assert_array_equal(m.initial, [1.0, 0.0])
        np.testing.assert_array_equal(m.transition[0], [1.0 / 3.0, 2.0 / 3.0])
        np.testing.assert_array_equal(m.transition[1], [0.0, 1.0])
        np.testing.assert_array_equal(m.emissions[0], np.eye(2))
        assert m.initial_mask.tolist() == [False, True]
        assert m.transition_mask[1].tolist() == [True, False]

    def test_no_transitions_fall_back_to_self_loop(self):
        data = _single_channel_data([["A"]])
        m = build_mm(data)
        np.testing.assert_array_equal(m.initial, [1.0, 0.0])
        np.testing.assert_array_equal(m.transition, np.eye(2))

    def test_transitions_across_missing_gap_skipped(self):
        data = _single_channel_data([["A", "*", "B", "B"]])
        m = build_mm(data)
        # only B->B observed; A row falls back to self-loop
        np.testing.assert_array_equal(m.transition[0], [1.0, 0.0])
        np.testing.assert_array_equal(m.transition[1], [0.0, 1.0])

    def test_multichannel_rejected(self):
        rng = np.random.default_rng(2)
        model = random_hmm(rng, 2, [2, 2])
        data = random_dataset(rng, model, 3, 4)
        with pytest.raises(MultichannelNotAllowed):
            build_mm(data)


class TestBuildMhmm:
    def test_two_clusters_with_covariates(self):
        rng = np.random.default_rng(1)
        alphabets = make_alphabets([3, 2, 2])
        c1 = random_hmm(rng, 5, [3, 2, 2])
        c2 = random_hmm(rng, 4, [3, 2, 2])
        design = CovariateDesign(
            ("(Intercept)", "sex", "cohort"), np.column_stack([np.ones(10), rng.normal(size=(10, 2))])
        )
        mix = build_mhmm([c1, c2], covariates=design)
        assert mix.n_clusters == 2
        assert [c.n_states for c in mix.clusters] == [5, 4]
        assert mix.gamma.shape == (3, 2)
        assert mix.design_names == ("(Intercept)", "sex", "cohort")
        assert c1.alphabets == alphabets

    def test_single_cluster_mixture_is_legal(self):
        rng = np.random.default_rng(4)
        mix = build_mhmm([random_hmm(rng, 2, [2])])
        assert mix.n_clusters == 1
        assert mix.gamma.shape == (1, 1)

    def test_nonzero_reference_column_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(GammaReferenceNotZero):
            build_mhmm([random_hmm(rng, 2, [2])], gamma=np.array([[0.5]]))

    def test_raw_triples_accepted_with_alphabets(self):
        alphabets = make_alphabets([2])
        triple = ([1.0, 0.0], [[0.7, 0.3], [0.4, 0.6]], [[[0.5, 0.5], [0.2, 0.8]]])
        mix = build_mhmm([triple, triple], alphabets=alphabets)
        assert mix.n_clusters == 2
        np.testing.assert_allclose(mix.clusters[0].transition[0], [0.7, 0.3])


class TestRestrictedMixtures:
    def test_lcm_shapes(self):
        mix = build_restricted_mixture("lcm", make_alphabets([3, 2]), 3, rng_seed=0)
        assert mix.n_clusters == 3
        for c in mix.clusters:
            assert c.n_states == 1
            assert c.transition.tolist() == [[1.0]]
            assert c.emissions[0].shape == (1, 3)
            assert c.emissions[1].shape == (1, 2)

    def test_mmm_shapes_and_fixed_identity(self):
        mix = build_restricted_mixture("mmm", make_alphabets([3]), 2, rng_seed=0)
        for c in mix.clusters:
            assert c.n_states == 3
            np.testing.assert_array_equal(c.emissions[0], np.eye(3))
            assert c.emission_masks[0].sum() == 6  # off-diagonal fixed
            assert not c.transition_mask.any()  # transitions free

    def test_mmm_multichannel_rejected(self):
        with pytest.raises(MultichannelNotAllowed):
            build_restricted_mixture("mmm", make_alphabets([2, 2]), 2)


class TestCombineClusters:
    def test_scalar_blocks(self):
        alphabets = make_alphabets([2])
        single = build_hmm(
            alphabets, initial=[1.0], transition=[[1.0]], emissions=[[0.5, 0.5]]
        )
        mix = build_mhmm([single, single])
        design = CovariateDesign.intercept(3)
        combined, initials = combine_clusters(mix, design)
        np.testing.assert_array_equal(combined.transition, np.eye(2))
        np.testing.assert_array_equal(initials, np.full((3, 2), 0.5))

    def test_uniform_gamma_splits_initials_evenly(self):
        rng = np.random.default_rng(8)
        c1, c2 = random_hmm(rng, 2, [2]), random_hmm(rng, 2, [2])
        mix = build_mhmm([c1, c2])
        design = CovariateDesign.intercept(4)
        _, initials = combine_clusters(mix, design)
        np.testing.assert_allclose(
            initials[:, :2], np.tile(0.5 * c1.initial, (4, 1)), rtol=1e-15
        )
        np.testing.assert_allclose(
            initials[:, 2:], np.tile(0.5 * c2.initial, (4, 1)), rtol=1e-15
        )

    def test_off_diagonal_blocks_exact_zero_and_masked(self):
        rng = np.random.default_rng(9)
        mix, design_t = random_mixture(rng, 3, 2, [2], n_subjects=5)
        combined, _ = combine_clusters(mix, design_t)
        A = combined.transition
        mask = combined.transition_mask
        for k in range(3):
            rows = slice(2 * k, 2 * k + 2)
            off = np.ones(6, dtype=bool)
            off[2 * k : 2 * k + 2] = False
            assert (A[rows][:, off] == 0.0).all()
            assert mask[rows][:, off].all()

    def test_combined_loglik_matches_per_cluster_sum_per_subject(self):
        rng = np.random.default_rng(10)
        from markovseq.inference import _evaluate, cluster_logliks, cluster_prior_probs
        from scipy.special import logsumexp

        for _ in range(10):
            mix, design = random_mixture(rng, 2, 2, [2, 3], n_subjects=4, n_covariates=2)
            data = random_dataset(rng, mix.clusters[0], 4, 5, missing_rate=0.1)
            w = cluster_prior_probs(mix, design)
            direct = logsumexp(np.log(w) + cluster_logliks(mix, data), axis=1)
            combined_model, initials = combine_clusters(mix, design)
            per_subject = _evaluate(combined_model, data, "loglik", subject_initials=initials)[0]
            rel = np.abs(per_subject - direct) / np.abs(direct)
            assert rel.max() < 1e-10
            assert abs(log_likelihood(mix, data, design) - direct.sum()) < 1e-9


class TestTrim:
    def test_tol_zero_is_identity(self):
        rng = np.random.default_rng(12)
        m = random_hmm(rng, 3, [3])
        out = trim_model(m, 0.0)
        assert out is m

    def test_small_entry_removed_and_row_renormalized(self):
        m = build_hmm(
            make_alphabets([2]),
            initial=[0.999, 0.001],
            transition=[[0.999, 0.001], [0.5, 0.5]],
            emissions=[[0.5, 0.5], [0.5, 0.5]],
        )
        out = trim_model(m, 0.01)
        np.testing.assert_array_equal(out.initial, [1.0, 0.0])
        assert out.initial_mask.tolist() == [False, True]
        np.testing.assert_array_equal(out.transition[0], [1.0, 0.0])
        assert out.transition_mask[0].tolist() == [False, True]
        np.testing.assert_array_equal(out.transition[1], [0.5, 0.5])

    def test_row_annihilated(self):
        rng = np.random.default_rng(13)
        uniform = np.full((1, 200), 1.0 / 200)
        m = build_hmm(
            make_alphabets([200]),
            initial=[1.0],
            transition=[[1.0]],
            emissions=[uniform],
        )
        with pytest.raises(RowAnnihilated):
            trim_model(m, 0.01)

    @pytest.mark.parametrize("tol", [np.nan, -0.01])
    def test_nan_or_negative_tol_rejected(self, tol):
        m = random_hmm(np.random.default_rng(14), 2, [3])
        with pytest.raises(InvalidParameter, match=r"tol must be a number in \[0, inf\]"):
            trim_model(m, tol)

    def test_trim_applies_to_every_cluster_of_a_mixture(self):
        a = make_alphabets([2])
        sub = build_hmm(
            a,
            initial=[0.995, 0.005],
            transition=[[0.9, 0.1], [0.2, 0.8]],
            emissions=[[0.5, 0.5], [0.5, 0.5]],
        )
        mix = build_mhmm([sub, sub])
        out = trim_model(mix, 0.01)
        for c in out.clusters:
            np.testing.assert_array_equal(c.initial, [1.0, 0.0])
            assert c.initial_mask.tolist() == [False, True]
        np.testing.assert_array_equal(out.gamma, mix.gamma)


class TestSeparate:
    def test_roundtrip_preserves_matrices(self):
        rng = np.random.default_rng(14)
        mix, _ = random_mixture(rng, 2, 3, [2, 2], n_subjects=3)
        parts = separate_clusters(mix)
        assert len(parts) == 2
        rebuilt = build_mhmm(parts, gamma=mix.gamma)
        for a, b in zip(mix.clusters, rebuilt.clusters):
            np.testing.assert_array_equal(a.transition, b.transition)
            np.testing.assert_array_equal(a.initial, b.initial)
            for x, y in zip(a.emissions, b.emissions):
                np.testing.assert_array_equal(x, y)

    def test_single_cluster(self):
        rng = np.random.default_rng(15)
        mix = build_mhmm([random_hmm(rng, 2, [2])])
        assert len(separate_clusters(mix)) == 1


class TestCountParameters:
    def test_dense_five_by_eight(self):
        rng = np.random.default_rng(16)
        m = build_hmm(
            make_alphabets([8]),
            initial=FIVE_STATE_INIT,
            transition=FIVE_STATE_TRANS,
            emissions=_emission(rng, 5, 8),
        )
        data = random_dataset(rng, m, 2, 3)
        assert count_parameters(m, data).p == 4 + 20 + 35

    def test_forced_single_state(self):
        m = build_hmm(make_alphabets([2]), initial=[1.0], transition=[[1.0]], emissions=[[0.5, 0.5]])
        data = random_dataset(np.random.default_rng(0), m, 1, 2)
        counts = count_parameters(m, data)
        assert counts.p == 1
        assert counts.nobs == 2.0

    def test_upper_triangular_transition_counts_ten(self):
        rng = np.random.default_rng(17)
        m = build_hmm(
            make_alphabets([8]),
            initial=[0.9, 0.05, 0.02, 0.02, 0.01],
            transition=UPPER_TRIANGULAR_TRANS,
            emissions=_emission(rng, 5, 8),
        )
        transition_contrib = sum(
            max(int((~m.transition_mask[s]).sum()) - 1, 0) for s in range(5)
        )
        assert transition_contrib == 10
        data = random_dataset(rng, m, 2, 3)
        assert count_parameters(m, data).p == 4 + 10 + 35

    def test_mixture_adds_gamma_block(self):
        rng = np.random.default_rng(18)
        mix, _ = random_mixture(rng, 3, 2, [2], n_subjects=4, n_covariates=2)
        data = random_dataset(rng, mix.clusters[0], 4, 3)
        per_cluster = 1 + 2 * 1 + 2 * 1  # pi + A rows + B rows for S=2, M=2
        assert count_parameters(mix, data).p == 3 * per_cluster + 2 * 2

    def test_restricted_mixtures_count_only_free_rows(self):
        lcm = build_restricted_mixture("lcm", make_alphabets([3, 2]), 3, rng_seed=0)
        data = random_dataset(np.random.default_rng(0), lcm.clusters[0], 4, 3)
        # per cluster: pi and the 1x1 transition are forced, emissions free
        assert count_parameters(lcm, data).p == 3 * ((3 - 1) + (2 - 1)) + 1 * 2
        mmm = build_restricted_mixture("mmm", make_alphabets([3]), 2, rng_seed=0)
        mdata = random_dataset(np.random.default_rng(1), mmm.clusters[0], 4, 3)
        # per cluster: free pi (2) + free transition rows (3 x 2); identity fixed
        assert count_parameters(mmm, mdata).p == 2 * (2 + 6) + 1 * 1

    def test_masked_zeros_never_counted(self):
        m = build_hmm(
            make_alphabets([2]),
            initial=[1.0, 0.0],
            transition=[[1.0, 0.0], [0.0, 1.0]],
            emissions=[[1.0, 0.0], [0.0, 1.0]],
        )
        data = random_dataset(np.random.default_rng(0), m, 2, 2)
        assert count_parameters(m, data).p == 0


class TestSerialization:
    def test_hmm_roundtrip_exact(self):
        rng = np.random.default_rng(19)
        m = random_hmm(rng, 3, [3, 2], left_to_right=True)
        doc = json.loads(json.dumps(model_to_json(m)))
        back = model_from_json(doc)
        np.testing.assert_array_equal(m.initial, back.initial)
        np.testing.assert_array_equal(m.transition, back.transition)
        for x, y in zip(m.emissions, back.emissions):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(m.transition_mask, back.transition_mask)
        assert m.state_names == back.state_names
        assert m.alphabets == back.alphabets

    def test_transition_row_off_sum_rejected_on_load(self):
        doc = model_to_json(random_hmm(np.random.default_rng(22), 2, [2]))
        doc["transition"][1] = ["0.9", "0.9"]
        with pytest.raises(RowSumError) as err:
            model_from_json(json.loads(json.dumps(doc)))
        assert err.value.where == "transition"
        assert err.value.row == 1

    def test_nan_emission_rejected_on_load(self):
        doc = model_to_json(random_hmm(np.random.default_rng(23), 2, [3]))
        doc["emissions"][0][0][1] = "nan"
        with pytest.raises(RowSumError) as err:
            model_from_json(json.loads(json.dumps(doc)))
        assert err.value.where == "emission[0]"

    @pytest.mark.parametrize("where", ["transition", "emissions", "gamma"])
    def test_ragged_rows_rejected_on_load(self, where):
        mix, _ = random_mixture(np.random.default_rng(24), 2, 2, [3], n_subjects=3, n_covariates=2)
        doc = json.loads(json.dumps(model_to_json(mix)))
        rows = {"gamma": doc["gamma"], "transition": doc["clusters"][1]["transition"],
                "emissions": doc["clusters"][1]["emissions"][0]}[where]
        rows[-1].pop()
        with pytest.raises(ShapeMismatch, match="rows of unequal length"):
            model_from_json(doc)

    @pytest.mark.parametrize("key", ["initial", "zero_mask"])
    def test_deeply_nested_array_rejected_on_load(self, key):
        doc = json.loads(json.dumps(model_to_json(_two_state_model())))
        deep = 1
        for _ in range(5000):
            deep = [deep]
        if key == "initial":
            doc["initial"] = deep
        else:
            doc["zero_mask"]["initial"] = deep
        with pytest.raises((InvalidParameter, DimensionMismatch), match="initial"):
            model_from_json(doc)

    @pytest.mark.parametrize("bad", ["x", "", None, {"p": 1}])
    def test_non_numeric_entry_rejected_on_load(self, bad):
        doc = json.loads(json.dumps(model_to_json(_two_state_model())))
        doc["emissions"][0][1][0] = bad
        error = RowSumError if bad is None else InvalidParameter  # None reads as NaN
        with pytest.raises(error, match=r"emission\[0\]"):
            model_from_json(doc)

    @pytest.mark.parametrize("bad", ["0", "1", 2, -1, 0.0, 1.0, None])
    def test_mask_entry_must_be_boolean_or_0_1(self, bad):
        doc = json.loads(json.dumps(model_to_json(_two_state_model())))
        doc["zero_mask"]["transition"][0][1] = bad
        with pytest.raises(InvalidParameter, match="transition mask entry"):
            model_from_json(doc)

    def test_mask_entries_read_as_booleans_or_integers(self):
        doc = json.loads(json.dumps(model_to_json(_two_state_model())))
        doc["transition"][1] = ["0", "1"]
        doc["zero_mask"]["transition"] = [[False, 0], [True, 0]]
        m = model_from_json(doc)
        assert m.transition_mask.tolist() == [[False, False], [True, False]]
        doc["zero_mask"]["transition"] = [[False, 0], [True]]
        with pytest.raises(ShapeMismatch, match="transition"):
            model_from_json(doc)

    def test_probabilities_serialized_as_text(self):
        rng = np.random.default_rng(20)
        m = random_hmm(rng, 2, [2])
        doc = model_to_json(m)
        assert isinstance(doc["initial"][0], str)

    def test_mixture_roundtrip_exact(self):
        rng = np.random.default_rng(21)
        mix, _ = random_mixture(rng, 2, 2, [2], n_subjects=3, n_covariates=2)
        back = model_from_json(json.loads(json.dumps(model_to_json(mix))))
        np.testing.assert_array_equal(mix.gamma, back.gamma)
        assert back.design_names == mix.design_names
        for a, b in zip(mix.clusters, back.clusters):
            np.testing.assert_array_equal(a.transition, b.transition)


# emission rows every construction path must reject, with the error build_hmm raises
BAD_ROWS = [
    pytest.param([0.5, np.nan], RowSumError, id="nan"),
    pytest.param([0.5, np.inf], RowSumError, id="inf"),
    pytest.param([1.1, -0.1], NegativeProbability, id="negative"),
    pytest.param([0.6, 0.6], RowSumError, id="off-sum"),
]


def _two_state_model():
    return build_hmm(
        make_alphabets([2]),
        initial=[0.6, 0.4],
        transition=[[0.7, 0.3], [0.2, 0.8]],
        emissions=[[0.9, 0.1], [0.3, 0.7]],
    )


def _with_bad_row(row):
    good = _two_state_model()
    return with_unchecked_emissions(good, [np.array([good.emissions[0][0], row])])


class TestOneValidationPoint:
    @pytest.mark.parametrize("row, error", BAD_ROWS)
    def test_build_hmm_and_with_params_raise_alike(self, row, error):
        good = _two_state_model()
        emissions = [np.array([[0.9, 0.1], row])]
        with pytest.raises(error) as built:
            build_hmm(good.alphabets, initial=good.initial, transition=good.transition,
                      emissions=emissions)
        with pytest.raises(error) as replaced:
            good.with_params(emissions=emissions)
        assert str(replaced.value) == str(built.value)
        assert "emission[0] row 1" in str(built.value)

    @pytest.mark.parametrize("row, error", BAD_ROWS)
    def test_combine_clusters_rejects_bad_cluster(self, row, error):
        mix = build_mhmm([_two_state_model(), _with_bad_row(row)])
        with pytest.raises(error, match=r"emission\[0\] row 3"):
            combine_clusters(mix, CovariateDesign.intercept(2))

    @pytest.mark.parametrize("row, error", BAD_ROWS)
    def test_trim_model_rejects_bad_row(self, row, error):
        # trimming zeroes a negative entry; the row then sums to 1.1
        error = RowSumError if error is NegativeProbability else error
        with pytest.raises(error, match=r"emission\[0\] row 1"):
            trim_model(_with_bad_row(row), 1e-6)

    def test_unpack_rejects_nan_coordinates(self):
        pmap = ParameterMap(_two_state_model())
        theta = pmap.pack()
        theta[0] = np.nan
        with pytest.raises(RowSumError) as err:
            pmap.unpack(theta)
        assert err.value.where == "initial"

    def test_m_step_rejects_negative_counts(self):
        m = _two_state_model()
        stats = EStats(
            loglik=0.0,
            rho=np.ones((1, 1)),
            counts=[np.array([[0.5, 0.5]]), np.array([[2.0, -1.0], [1.0, 1.0]]), np.ones((2, 2))],
        )
        with pytest.raises(NegativeProbability, match="transition row 0"):
            _m_step(m, stats, None, set())

    def test_direct_construction_checks_rows(self):
        m = _two_state_model()
        fields = dict(
            state_names=m.state_names,
            channel_names=m.channel_names,
            alphabets=m.alphabets,
            initial=[0.6, 0.6],
            transition=m.transition,
            emissions=m.emissions,
            initial_mask=m.initial_mask,
            transition_mask=m.transition_mask,
            emission_masks=m.emission_masks,
        )
        with pytest.raises(RowSumError) as err:
            HmmModel(**fields)
        assert (err.value.where, err.value.row) == ("initial", 0)

    def test_renormalization_leaves_caller_array_alone(self):
        m = _two_state_model()
        initial = np.array([0.5, 0.5 + 5e-9])
        out = m.with_params(initial=initial)
        assert out.initial.sum() == 1.0
        assert initial.tolist() == [0.5, 0.5 + 5e-9]
        assert initial.flags.writeable
        assert not out.initial.flags.writeable

    def test_empty_state_axis_rejected(self):
        alphabets = make_alphabets([2])
        with pytest.raises(DimensionMismatch, match="empty"):
            HmmModel(
                state_names=(),
                channel_names=("Channel 1",),
                alphabets=alphabets,
                initial=np.zeros(0),
                transition=np.zeros((0, 0)),
                emissions=(np.zeros((0, 2)),),
                initial_mask=np.zeros(0, dtype=bool),
                transition_mask=np.zeros((0, 0), dtype=bool),
                emission_masks=(np.zeros((0, 2), dtype=bool),),
            )

    def test_mask_count_must_match_channels(self):
        m = _two_state_model()
        with pytest.raises(DimensionMismatch, match="masks"):
            HmmModel(
                state_names=m.state_names,
                channel_names=m.channel_names,
                alphabets=m.alphabets,
                initial=m.initial,
                transition=m.transition,
                emissions=m.emissions,
                initial_mask=m.initial_mask,
                transition_mask=m.transition_mask,
                emission_masks=(),
            )


class TestStructuralZeros:
    def test_masked_nonzero_rejected_on_direct_construction(self):
        m = _two_state_model()
        with pytest.raises(InvalidParameter, match="transition row 1"):
            HmmModel(
                state_names=m.state_names,
                channel_names=m.channel_names,
                alphabets=m.alphabets,
                initial=m.initial,
                transition=m.transition,
                emissions=m.emissions,
                initial_mask=m.initial_mask,
                transition_mask=np.array([[False, False], [True, False]]),
                emission_masks=m.emission_masks,
            )

    def test_masked_nonzero_rejected_on_load(self):
        doc = model_to_json(random_hmm(np.random.default_rng(31), 2, [3]))
        doc["emissions"][0][1] = ["0.064", "0.5", "0.436"]
        doc["zero_mask"]["emissions"][0][1] = [1, 0, 0]
        with pytest.raises(InvalidParameter, match=r"emission\[0\] row 1"):
            model_from_json(json.loads(json.dumps(doc)))

    def test_masked_exact_zero_accepted_and_not_counted(self):
        doc = model_to_json(random_hmm(np.random.default_rng(32), 2, [3]))
        doc["emissions"][0][1] = ["0", "0.5", "0.5"]
        doc["zero_mask"]["emissions"][0][1] = [1, 0, 0]
        m = model_from_json(doc)
        data = random_dataset(np.random.default_rng(0), m, 2, 3)
        assert count_parameters(m, data).p == 1 + 2 + 2 + 1


class TestMixtureValues:
    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_non_finite_gamma_rejected_on_load(self, bad):
        mix, _ = random_mixture(np.random.default_rng(33), 2, 2, [2], n_subjects=3)
        doc = json.loads(json.dumps(model_to_json(mix)))
        doc["gamma"][0][1] = bad
        with pytest.raises(InvalidParameter, match="gamma"):
            model_from_json(doc)

    def test_combine_clusters_rejects_empty_design(self):
        mix, _ = random_mixture(np.random.default_rng(34), 2, 2, [2], n_subjects=3)
        empty = CovariateDesign(("(Intercept)",), np.ones((0, 1)))
        with pytest.raises(DimensionMismatch, match="covariate design has no rows"):
            combine_clusters(mix, empty)


class TestDuplicateNames:
    def test_build_hmm_rejects_duplicate_state_names(self):
        with pytest.raises(DuplicateLabel, match="state names"):
            build_hmm(
                make_alphabets([2]),
                initial=[0.5, 0.5],
                transition=[[0.5, 0.5], [0.5, 0.5]],
                emissions=[[0.5, 0.5], [0.5, 0.5]],
                state_names=["A", "A"],
            )

    def test_build_mhmm_rejects_duplicate_cluster_names(self):
        sub = random_hmm(np.random.default_rng(35), 2, [2])
        with pytest.raises(DuplicateLabel, match="cluster names"):
            build_mhmm([sub, sub], cluster_names=["C", "C"])

    def test_model_from_json_rejects_duplicate_state_names(self):
        doc = json.loads(json.dumps(model_to_json(random_hmm(np.random.default_rng(36), 2, [2]))))
        doc["state_names"] = ["A", "A"]
        with pytest.raises(DuplicateLabel, match="state names"):
            model_from_json(doc)

    def test_model_from_json_rejects_duplicate_cluster_names(self):
        mix, _ = random_mixture(np.random.default_rng(37), 2, 2, [2], n_subjects=3)
        doc = json.loads(json.dumps(model_to_json(mix)))
        doc["cluster_names"] = ["C", "C"]
        with pytest.raises(DuplicateLabel, match="cluster names"):
            model_from_json(doc)
        doc["cluster_names"] = ["C", "D"]
        doc["clusters"][1]["state_names"] = ["S", "S"]
        with pytest.raises(DuplicateLabel, match="state names"):
            model_from_json(doc)

    def test_covariate_design_rejects_duplicate_names(self):
        with pytest.raises(DuplicateLabel, match="covariate names"):
            CovariateDesign(("(Intercept)", "x", "x"), np.ones((3, 3)))

    def test_build_mhmm_rejects_duplicate_covariate_names(self):
        sub = random_hmm(np.random.default_rng(39), 2, [2])
        names = ("(Intercept)", "x", "x")
        with pytest.raises(DuplicateLabel, match="covariate names"):
            build_mhmm([sub, sub], covariates=CovariateDesign(names, np.ones((3, 3))))
        with pytest.raises(DuplicateLabel, match="covariate names"):
            MixtureModel((sub, sub), ("C", "D"), np.zeros((3, 2)), names)

    def test_model_from_json_rejects_duplicate_covariate_names(self):
        mix, _ = random_mixture(np.random.default_rng(40), 2, 2, [2], n_subjects=3, n_covariates=3)
        doc = json.loads(json.dumps(model_to_json(mix)))
        doc["covariate_names"] = ["(Intercept)", "x1", "x1"]
        with pytest.raises(DuplicateLabel, match="covariate names"):
            model_from_json(doc)

    def test_build_hmm_rejects_duplicate_channel_names(self):
        with pytest.raises(DuplicateLabel, match="channel names"):
            build_hmm(make_alphabets([2, 3]), n_states=2, channel_names=["x", "x"], rng_seed=1)

    def test_model_from_json_rejects_duplicate_channel_names(self):
        hmm = random_hmm(np.random.default_rng(38), 2, [2, 3])
        doc = json.loads(json.dumps(model_to_json(hmm)))
        doc["channel_names"] = ["x", "x"]
        with pytest.raises(DuplicateLabel, match="channel names"):
            model_from_json(doc)

    @staticmethod
    def _colliding_clusters():
        """Cluster ``a`` with state ``b:c`` and cluster ``a:b`` with state
        ``c``: both combine to ``a:b:c``."""
        alphabets = make_alphabets([2])
        one = dict(initial=[1.0], transition=[[1.0]], emissions=[[[0.5, 0.5]]])
        return [
            build_hmm(alphabets, state_names=["b:c"], **one),
            build_hmm(alphabets, state_names=["c"], **one),
        ]

    def test_build_mhmm_rejects_colliding_combined_state_names(self):
        clusters = self._colliding_clusters()
        with pytest.raises(DuplicateLabel, match="'a:b:c'"):
            build_mhmm(clusters, cluster_names=["a", "a:b"])
        # the same states under names that do not collide
        mix = build_mhmm(clusters, cluster_names=["a", "b"])
        assert combine_clusters(mix, CovariateDesign.intercept(1))[0].state_names == (
            "a:b:c",
            "b:c",
        )

    def test_model_from_json_rejects_colliding_combined_state_names(self):
        mix = build_mhmm(self._colliding_clusters(), cluster_names=["a", "b"])
        doc = json.loads(json.dumps(model_to_json(mix)))
        doc["cluster_names"] = ["a", "a:b"]
        with pytest.raises(DuplicateLabel, match="'a:b:c'"):
            model_from_json(doc)
