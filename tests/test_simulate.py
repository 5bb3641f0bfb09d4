import numpy as np
import pytest

from markovseq import (
    CovariateDesign,
    SimSpec,
    build_hmm,
    build_mhmm,
    log_likelihood,
    simulate_hmm_data,
    simulate_mhmm_data,
    simulate_parameters,
)
from markovseq.errors import (
    AlphabetMismatch,
    DegenerateData,
    InvalidParameter,
    ShapeMismatch,
)
from markovseq.seqdata import MISSING

from helpers import make_alphabets, random_hmm


class TestSimulateParameters:
    def test_single_state_forced(self):
        spec = SimSpec(n_subjects=1, n_time=1, seed=0, n_states=1, n_symbols=(3,))
        m = simulate_parameters(spec)
        assert m.initial.tolist() == [1.0]
        assert m.transition.tolist() == [[1.0]]

    def test_left_to_right_masks_lower_triangle(self):
        spec = SimSpec(
            n_subjects=1, n_time=1, seed=3, n_states=3, n_symbols=(2,), left_to_right=True
        )
        m = simulate_parameters(spec)
        ii, jj = np.tril_indices(3, k=-1)
        assert (m.transition[ii, jj] == 0.0).all()
        assert m.transition_mask[ii, jj].all()
        assert not m.transition_mask[np.triu_indices(3)].any()

    def test_seed_reproducible(self):
        spec = SimSpec(n_subjects=1, n_time=1, seed=17, n_states=3, n_symbols=(3, 2))
        a = simulate_parameters(spec)
        b = simulate_parameters(spec)
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(a.emissions[1], b.emissions[1])

    def test_mixture_spec_produces_k_clusters(self):
        spec = SimSpec(n_subjects=1, n_time=1, seed=5, n_states=2, n_symbols=(2,), n_clusters=3)
        mix = simulate_parameters(spec)
        assert mix.n_clusters == 3
        assert mix.gamma.shape == (1, 3)
        assert (mix.gamma[:, 0] == 0.0).all()


class TestSimulateHmm:
    def test_deterministic_model_fully_determined(self):
        m = build_hmm(
            make_alphabets([2]),
            initial=[1.0, 0.0],
            transition=[[0.0, 1.0], [0.0, 1.0]],
            emissions=[[1.0, 0.0], [0.0, 1.0]],
        )
        data, paths = simulate_hmm_data(m, 3, 4, seed=0)
        np.testing.assert_array_equal(paths, np.tile([0, 1, 1, 1], (3, 1)))
        np.testing.assert_array_equal(data.channels[0].codes, paths)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(1)
        m = random_hmm(rng, 3, [3])
        d1, p1 = simulate_hmm_data(m, 10, 20, seed=42)
        d2, p2 = simulate_hmm_data(m, 10, 20, seed=42)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(d1.channels[0].codes, d2.channels[0].codes)

    def test_initial_state_frequencies_converge(self):
        m = build_hmm(
            make_alphabets([2]),
            initial=[0.3, 0.7],
            transition=[[0.5, 0.5], [0.5, 0.5]],
            emissions=[[1.0, 0.0], [0.0, 1.0]],
        )
        _, paths = simulate_hmm_data(m, 50000, 1, seed=123)
        freq = np.bincount(paths[:, 0], minlength=2) / 50000
        np.testing.assert_allclose(freq, [0.3, 0.7], atol=0.01)

    def test_transition_frequencies_converge(self):
        m = build_hmm(
            make_alphabets([2]),
            initial=[0.5, 0.5],
            transition=[[0.8, 0.2], [0.35, 0.65]],
            emissions=[[1.0, 0.0], [0.0, 1.0]],
        )
        _, paths = simulate_hmm_data(m, 2500, 401, seed=7)  # 10^6 transitions
        counts = np.zeros((2, 2))
        src, dst = paths[:, :-1].ravel(), paths[:, 1:].ravel()
        np.add.at(counts, (src, dst), 1.0)
        est = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(est, m.transition, atol=0.01)

    def test_zero_mask_never_sampled(self):
        rng = np.random.default_rng(2)
        m = random_hmm(rng, 3, [2], left_to_right=True)
        _, paths = simulate_hmm_data(m, 300, 50, seed=9)
        diffs = np.diff(paths, axis=1)
        assert (diffs >= 0).all()  # no backward moves in a left-to-right model

    def test_missing_rate_injects_missing_cells(self):
        rng = np.random.default_rng(3)
        m = random_hmm(rng, 2, [3])
        data, _ = simulate_hmm_data(m, 200, 30, seed=5, missing_rate=0.2)
        rate = (data.channels[0].codes == MISSING).mean()
        assert 0.15 < rate < 0.25


class TestSimulateMhmm:
    def test_uniform_gamma_splits_clusters_evenly(self):
        rng = np.random.default_rng(4)
        mix = build_mhmm([random_hmm(rng, 2, [2]), random_hmm(rng, 2, [2])])
        design = CovariateDesign.intercept(50000)
        _, _, labels = simulate_mhmm_data(mix, design, 50000, 1, seed=21)
        freq = np.bincount(labels, minlength=2) / 50000
        np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.01)

    def test_single_cluster_identical_to_hmm_simulation(self):
        rng = np.random.default_rng(5)
        sub = random_hmm(rng, 2, [3, 2])
        mix = build_mhmm([sub])
        d_mix, p_mix, labels = simulate_mhmm_data(mix, None, 8, 6, seed=33)
        d_hmm, p_hmm = simulate_hmm_data(sub, 8, 6, seed=33)
        np.testing.assert_array_equal(p_mix, p_hmm)
        for a, b in zip(d_mix.channels, d_hmm.channels):
            np.testing.assert_array_equal(a.codes, b.codes)
        assert (labels == 0).all()

    def test_labels_valid_and_paths_inside_cluster_block(self):
        rng = np.random.default_rng(6)
        mix = build_mhmm([random_hmm(rng, 2, [2]), random_hmm(rng, 3, [2])])
        design = CovariateDesign.intercept(40)
        _, paths, labels = simulate_mhmm_data(mix, design, 40, 10, seed=2)
        offsets = mix.state_offsets + (mix.n_states_total,)
        assert ((labels >= 0) & (labels < 2)).all()
        for i in range(40):
            k = labels[i]
            assert (paths[i] >= offsets[k]).all()
            assert (paths[i] < offsets[k + 1]).all()


class TestMixtureDesign:
    """``simulate_mhmm_data`` checks a design as inference does."""

    @staticmethod
    def _covariate_mixture():
        rng = np.random.default_rng(7)
        covariates = CovariateDesign(("(Intercept)", "x"), np.ones((4, 2)))
        gamma = np.array([[0.0, 0.3], [0.0, -1.2]])
        mix = build_mhmm([random_hmm(rng, 2, [3]), random_hmm(rng, 2, [3])], covariates, gamma)
        data, _ = simulate_hmm_data(mix.clusters[0], 4, 3, 0)
        return mix, data

    @pytest.mark.parametrize(
        "names, error",
        [(None, DegenerateData), (("(Intercept)", "y"), AlphabetMismatch)],
        ids=["no design", "wrong columns"],
    )
    def test_design_not_matching_the_model_raises_as_inference_does(self, names, error):
        mix, data = self._covariate_mixture()
        design = None if names is None else CovariateDesign(names, np.ones((4, 2)))
        with pytest.raises(error):
            simulate_mhmm_data(mix, design, 4, 3, 0)
        with pytest.raises(error):
            log_likelihood(mix, data, design)

    def test_matching_design_simulates(self):
        mix, _ = self._covariate_mixture()
        X = np.column_stack([np.ones(6), np.linspace(-3, 3, 6)])
        data, paths, labels = simulate_mhmm_data(
            mix, CovariateDesign(("(Intercept)", "x"), X), 6, 3, 0
        )
        assert data.n_subjects == 6 and paths.shape == (6, 3) and labels.shape == (6,)


_SPEC = dict(n_subjects=4, n_time=3, seed=0, n_states=2, n_symbols=(3,))


def _simulate_with_design_rows(n_rows):
    mix = build_mhmm([random_hmm(np.random.default_rng(5), 2, [3])] * 2)
    return simulate_mhmm_data(mix, CovariateDesign.intercept(n_rows), 4, 3, 0)


class TestMissingRateRange:
    @pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
    def test_rate_outside_unit_interval_rejected(self, rate):
        model = random_hmm(np.random.default_rng(5), 2, [3])
        with pytest.raises(InvalidParameter, match="missing_rate"):
            simulate_hmm_data(model, 4, 3, 0, missing_rate=rate)
        with pytest.raises(InvalidParameter, match="missing_rate"):
            simulate_mhmm_data(build_mhmm([model, model]), None, 4, 3, 0, missing_rate=rate)

    @pytest.mark.parametrize("n_subjects, n_time", [(0, 3), (4, 0), (-1, 3)])
    def test_size_below_one_rejected(self, n_subjects, n_time):
        model = random_hmm(np.random.default_rng(5), 2, [3])
        with pytest.raises(InvalidParameter, match="n_subjects and n_time"):
            simulate_hmm_data(model, n_subjects, n_time, 0)
        with pytest.raises(InvalidParameter, match="n_subjects and n_time"):
            simulate_mhmm_data(build_mhmm([model, model]), None, n_subjects, n_time, 0)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: SimSpec(**{**_SPEC, "n_subjects": 0}), InvalidParameter),
            (lambda: SimSpec(**{**_SPEC, "n_states": 0}), InvalidParameter),
            (lambda: SimSpec(**{**_SPEC, "n_symbols": (3, 0)}), InvalidParameter),
            (lambda: _simulate_with_design_rows(3), ShapeMismatch),
        ],
        ids=["n_subjects", "n_states", "n_symbols", "design rows"],
    )
    def test_bad_request_raises_typed_error(self, call, error):
        with pytest.raises(error):
            call()

    def test_negative_spec_seed_rejected_before_drawing(self):
        with pytest.raises(InvalidParameter, match=r"seed must be >= 0, got -1"):
            SimSpec(10, 5, -1, 2, (3,))
        assert SimSpec(10, 5, 0, 2, (3,)).seed == 0

    def test_unit_interval_ends_accepted(self):
        model = random_hmm(np.random.default_rng(5), 2, [3, 2])
        none, _ = simulate_hmm_data(model, 4, 3, 0, missing_rate=0.0)
        every, _ = simulate_hmm_data(model, 4, 3, 0, missing_rate=1.0)
        assert all((ch.codes != MISSING).all() for ch in none.channels)
        assert all((ch.codes == MISSING).all() for ch in every.channels)
