import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovseq import (
    Alphabet,
    Channel,
    CovariateDesign,
    ParameterMap,
    SequenceDataset,
    build_hmm,
    build_mhmm,
    build_mm,
    combine_clusters,
    count_parameters,
    covariate_standard_errors,
    fit_em,
    fit_local,
    fit_model,
    forward_backward,
    gamma_m_step,
    log_likelihood,
    loglik_gradient,
    simulate_hmm_data,
    simulate_mhmm_data,
)
import markovseq.estimation as estimation
from markovseq.estimation import (
    FitControl,
    _em_vector,
    _gradient,
    _m_step,
    _perturb,
    expected_stats,
)
from markovseq.errors import (
    DimensionMismatch,
    InvalidParameter,
    NumericalUnderflow,
    RankDeficientDesign,
)
from markovseq.inference import _clusters_and_inits, _scaled_pass, _Workspace
from markovseq.model import _blocks, _gamma_hessian, mixture_weights
from markovseq.seqdata import MISSING

from helpers import (
    channel_sizes,
    make_alphabets,
    masked_hmms,
    random_dataset,
    random_hmm,
    random_mixture,
    uneven_mixture,
)
from oracles import central_difference_gradient, irls_multinomial


def _single_channel_data(rows, labels=("A", "B")):
    a = Alphabet(tuple(labels))
    codes = np.array([[labels.index(tok) for tok in row] for row in rows])
    return SequenceDataset(
        (Channel("ch", a, codes),), tuple(f"s{i + 1}" for i in range(len(rows)))
    )


def _multi_chunk_case():
    """1100 subjects x 30 times, 10 % missing cells, trailing-missing padding."""
    rng = np.random.default_rng(206)
    model = random_hmm(rng, 3, [4, 3])
    data = random_dataset(rng, model, 1100, 30, missing_rate=0.1)
    lengths = rng.integers(15, 31, size=1100)
    pad = np.arange(30)[None, :] >= lengths[:, None]
    channels = tuple(
        Channel(ch.name, ch.alphabet, np.where(pad, MISSING, ch.codes))
        for ch in data.channels
    )
    return model, SequenceDataset(channels, data.subject_ids)


def _reference_stats(model, data):
    """Per-subject scaled forward-backward with einsum and symbol-loop
    reductions, summed over subjects only at the end."""
    N, T, S = data.n_subjects, data.n_time, model.n_states
    A = model.transition
    E = np.ones((N, T, S))
    for b, ch in zip(model.emissions, data.channels):
        observed = ch.codes != MISSING
        vals = b[:, np.where(observed, ch.codes, 0)].transpose(1, 2, 0)
        E *= np.where(observed[:, :, None], vals, 1.0)
    alpha, beta, scaling = np.empty((N, T, S)), np.empty((N, T, S)), np.empty((N, T))
    x = model.initial * E[:, 0]
    for t in range(T):
        if t:
            x = (alpha[:, t - 1] @ A) * E[:, t]
        scaling[:, t] = x.sum(axis=1)
        alpha[:, t] = x / scaling[:, t, None]
    beta[:, T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[:, t] = ((E[:, t + 1] * beta[:, t + 1]) @ A.T) / scaling[:, t + 1, None]
    gamma = alpha * beta
    W = E[:, 1:] * beta[:, 1:] / scaling[:, 1:, None]
    xi = np.einsum("nts,ntr->nsr", alpha[:, :-1], W) * A[None]
    emis_num = []
    for b, ch in zip(model.emissions, data.channels):
        num = np.zeros((N, S, b.shape[1]))
        for m in range(b.shape[1]):
            num[:, :, m] = (gamma * (ch.codes == m)[:, :, None]).sum(axis=1)
        emis_num.append(num.sum(axis=0))
    return np.log(scaling).sum(axis=1), gamma[:, 0], xi.sum(axis=0), emis_num


class TestChunkedEStep:
    def test_multi_chunk_stats_match_per_subject_reference(self):
        model, data = _multi_chunk_case()
        loglik, gamma1, xi, emis_num = _reference_stats(model, data)
        for threads in (1, 3):
            got = expected_stats(model, data, threads=threads)
            assert abs(got.loglik - loglik.sum()) <= 1e-12 * abs(loglik.sum())
            want = [gamma1.sum(axis=0)[None], xi, *emis_num]
            for g, w in zip(got.counts, want, strict=True):
                np.testing.assert_allclose(g, w, rtol=1e-12)


class TestFitControl:
    @pytest.mark.parametrize("field", ["em_rel_tol", "local_grad_tol"])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -1e-8])
    def test_tolerance_must_be_positive(self, field, value):
        with pytest.raises(InvalidParameter, match=rf"{field} must be a number in \(0, inf\]"):
            FitControl(**{field: value})

    @pytest.mark.parametrize("field", ["em_max_iter", "local_max_iter"])
    def test_iteration_caps_must_be_non_negative(self, field):
        with pytest.raises(InvalidParameter, match=f"{field} must be >= 0, got -1"):
            FitControl(**{field: -1})
        assert getattr(FitControl(**{field: 0}), field) == 0

    @pytest.mark.parametrize("field", ["em_max_iter", "restarts", "local_max_iter", "seed"])
    @pytest.mark.parametrize("value", [0.5, 2.5, 3.0, np.float64(2.0), "2", None, True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(InvalidParameter, match=f"{field} must be an integer"):
            FitControl(**{field: value})

    @pytest.mark.parametrize("field", ["em_max_iter", "restarts", "local_max_iter", "seed"])
    def test_numpy_integer_counts_accepted(self, field):
        assert FitControl(**{field: np.int64(2)}) == FitControl(**{field: 2})

    def test_settings_round_trip_through_json(self):
        counts = dict(em_max_iter=np.int64(3), restarts=np.int32(2), local_max_iter=np.uint8(4))
        control = FitControl(**counts, seed=np.int16(5), em_rel_tol=np.float32(0.5), local_step=True)
        doc = json.loads(json.dumps(control.to_dict()))
        assert doc == {**FitControl().to_dict(), **counts, "seed": 5, "em_rel_tol": 0.5,
                       "local_step": True}
        assert all(type(v) in (int, float, bool) for v in control.to_dict().values())
        with pytest.raises(InvalidParameter, match="local_step takes a bool, got str"):
            FitControl(local_step="yes")

    @pytest.mark.parametrize("field, value", [("threads", 0), ("em_rel_tol", np.nan)])
    def test_settings_are_frozen_once_checked(self, field, value):
        control = FitControl()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(control, field, value)
        assert control == FitControl()

    def test_zero_caps_return_the_start(self):
        data, start = _left_to_right_case()
        control = FitControl(em_max_iter=0, local_step=True, local_max_iter=0)
        res = fit_model(start, data, control=control)
        assert _em_vector(res.model).tobytes() == _em_vector(start).tobytes()
        assert (res.em_iterations, res.local_iterations) == (0, 0)
        assert res.loglik_trace == [log_likelihood(start, data)]


class TestFitEm:
    def test_single_state_reaches_symbol_frequencies(self):
        data = _single_channel_data([["A", "A", "B", "A"]])
        m = build_hmm(
            (data.channels[0].alphabet,),
            initial=[1.0],
            transition=[[1.0]],
            emissions=[[0.5, 0.5]],
        )
        res = fit_em(m, data)
        np.testing.assert_allclose(res.model.emissions[0][0], [0.75, 0.25], atol=1e-12)
        assert res.converged_by == "em_tol"
        assert res.em_iterations <= 3

    def test_markov_model_estimates_are_stationary(self):
        data = _single_channel_data([["A", "A", "B"], ["A", "B", "B"]])
        mm = build_mm(data)
        res = fit_em(mm, data, control=FitControl(em_max_iter=5))
        # one EM pass does not move the log-likelihood
        assert abs(res.loglik_trace[1] - res.loglik_trace[0]) < 1e-10
        np.testing.assert_allclose(res.model.transition, mm.transition, atol=1e-12)
        np.testing.assert_allclose(res.model.initial, mm.initial, atol=1e-12)

    def test_loglik_trace_monotone(self):
        rng = np.random.default_rng(200)
        for _ in range(8):
            model = random_hmm(rng, 3, [3, 2])
            data = random_dataset(rng, model, 10, 15, missing_rate=0.1)
            start = random_hmm(rng, 3, [3, 2])
            res = fit_em(start, data, control=FitControl(em_max_iter=40))
            diffs = np.diff(res.loglik_trace)
            assert (diffs >= -1e-9).all()
            assert abs(res.loglik - log_likelihood(res.model, data)) < 1e-9

    def test_mixture_trace_monotone_and_consistent(self):
        rng = np.random.default_rng(201)
        for _ in range(4):
            mix, design = random_mixture(rng, 2, 2, [3], n_subjects=12, n_covariates=2)
            data = random_dataset(rng, mix.clusters[0], 12, 8, missing_rate=0.1)
            res = fit_em(mix, data, design, FitControl(em_max_iter=25))
            diffs = np.diff(res.loglik_trace)
            assert (diffs >= -1e-9).all()
            assert abs(res.loglik - log_likelihood(res.model, data, design)) < 1e-9

    @pytest.mark.parametrize("even", [True, False])
    def test_mixture_em_iteration_matches_combined_m_step(self, even):
        rng = np.random.default_rng(207)
        if even:
            mix, design = random_mixture(rng, 3, 2, [3, 2], n_subjects=30, n_covariates=2)
        else:
            mix, design = uneven_mixture(rng, [3, 2], (2, 3, 1), n_subjects=30)
        data = random_dataset(rng, mix.clusters[0], 30, 8, missing_rate=0.1)
        got = fit_em(mix, data, design, FitControl(em_max_iter=1)).model
        combined, initials = combine_clusters(mix, design)
        (pi_counts,), xi, *emis_num = expected_stats(combined, data, initials).counts
        fb = forward_backward(combined, data, subject_initials=initials)
        gamma1 = (fb.alpha * fb.beta)[:, 0]
        blocks = [slice(o, o + sub.n_states) for o, sub in zip(mix.state_offsets, mix.clusters)]

        def rows(counts):
            return counts / counts.sum(axis=-1, keepdims=True)

        for k, block in enumerate(blocks):
            new = got.clusters[k]
            np.testing.assert_allclose(new.initial, rows(pi_counts[block]), rtol=1e-12)
            np.testing.assert_allclose(new.transition, rows(xi[block, block]), rtol=1e-12)
            for b, num in zip(new.emissions, emis_num):
                np.testing.assert_allclose(b, rows(num[block]), rtol=1e-12)
        rho = np.stack([gamma1[:, block].sum(axis=1) for block in blocks], axis=1)
        want = gamma_m_step(design, rho, mix.gamma).gamma
        np.testing.assert_allclose(got.gamma, want, rtol=1e-12)

    def test_structural_zeros_survive_em(self):
        rng = np.random.default_rng(202)
        model = random_hmm(rng, 4, [3], left_to_right=True)
        data = random_dataset(rng, model, 12, 10)
        res = fit_em(model, data, control=FitControl(em_max_iter=30))
        fitted = res.model
        assert (fitted.transition[np.tril_indices(4, k=-1)] == 0.0).all()
        np.testing.assert_array_equal(fitted.transition_mask, model.transition_mask)

    def test_restart_dominance_and_trace(self):
        rng = np.random.default_rng(203)
        model = random_hmm(rng, 2, [3])
        data = random_dataset(rng, model, 15, 12)
        start = random_hmm(rng, 2, [3])
        res = fit_em(start, data, control=FitControl(em_max_iter=60, restarts=4, seed=7))
        assert len(res.restart_logliks) == 5
        assert res.loglik >= max(res.restart_logliks) - 1e-9

    def test_identical_control_reproduces_bitwise(self):
        rng = np.random.default_rng(204)
        model = random_hmm(rng, 2, [2])
        data = random_dataset(rng, model, 10, 8)
        start = random_hmm(rng, 2, [2])
        kwargs = dict(control=FitControl(em_max_iter=25, restarts=3, seed=5))
        r1 = fit_em(start, data, **kwargs)
        r2 = fit_em(start, data, **kwargs)
        assert r1.loglik == r2.loglik
        np.testing.assert_array_equal(r1.model.transition, r2.model.transition)

    def test_threads_do_not_change_fit(self):
        rng = np.random.default_rng(205)
        model = random_hmm(rng, 3, [3])
        data = random_dataset(rng, model, 50, 20, missing_rate=0.05)
        start = random_hmm(rng, 3, [3])
        r1 = fit_em(start, data, control=FitControl(em_max_iter=20, threads=1))
        r4 = fit_em(start, data, control=FitControl(em_max_iter=20, threads=4))
        assert r1.loglik == r4.loglik
        np.testing.assert_array_equal(r1.model.transition, r4.model.transition)
        np.testing.assert_array_equal(r1.model.emissions[0], r4.model.emissions[0])

    def test_threads_do_not_change_multi_chunk_fit(self):
        # 1100 subjects: two full 512-subject chunks and a ragged third
        model, data = _multi_chunk_case()
        start = random_hmm(np.random.default_rng(207), 3, [4, 3])
        r1 = fit_em(start, data, control=FitControl(em_max_iter=4, threads=1))
        r2 = fit_em(start, data, control=FitControl(em_max_iter=4, threads=2))
        assert r1.loglik == r2.loglik
        np.testing.assert_array_equal(r1.model.transition, r2.model.transition)
        for b1, b2 in zip(r1.model.emissions, r2.model.emissions):
            np.testing.assert_array_equal(b1, b2)

    def test_unreachable_state_flagged_and_left_alone(self):
        # state 1 can never be entered: initial and incoming transitions are 0
        m = build_hmm(
            make_alphabets([2]),
            initial=[1.0, 0.0],
            transition=[[1.0, 0.0], [0.0, 1.0]],
            emissions=[[0.7, 0.3], [0.5, 0.5]],
        )
        data = _single_channel_data([["A", "B", "A"]], labels=("A", "B"))
        data = SequenceDataset(
            (Channel("Channel 1", make_alphabets([2])[0], data.channels[0].codes),),
            data.subject_ids,
        )
        res = fit_em(m, data, control=FitControl(em_max_iter=10))
        assert any("empty_posterior" in d for d in res.diagnostics)
        np.testing.assert_array_equal(res.model.emissions[0][1], [0.5, 0.5])


def _plain_em(m, data, design, max_iter, rel_tol):
    """The plain EM loop the SQUAREM driver replaced, frozen: one E-step and
    one M-step per iteration until two consecutive log-likelihoods differ by
    less than ``rel_tol`` relative; at the iteration cap the last model is
    scored by a forward pass.  Returns (model, trace, E-steps)."""
    flagged = set()
    trace = []
    prev = None
    for it in range(max_iter):
        stats = expected_stats(m, data, design=design)
        ll = stats.loglik
        trace.append(ll)
        if prev is not None and abs(ll - prev) / (abs(ll) + 0.1) < rel_tol:
            return m, trace, it + 1
        m = _m_step(m, stats, design, flagged)
        prev = ll
    hmms, inits = _clusters_and_inits(m, data, design)
    trace.append(float(_scaled_pass(hmms, data, inits, 1, "loglik", _Workspace(data))[0].sum()))
    return m, trace, max_iter


def _hmm_arrays(m):
    """(values, mask) of every probability array of a model's clusters."""
    hmms = m.clusters if hasattr(m, "clusters") else (m,)
    return [
        pair
        for h in hmms
        for pair in [
            (h.initial, h.initial_mask),
            (h.transition, h.transition_mask),
            *zip(h.emissions, h.emission_masks),
        ]
    ]


def _left_to_right_case():
    """A 3-state left-to-right HMM with structural zeros in its initial
    vector, transitions and one emission row; 200 subjects drawn from it;
    and a start perturbed from it (the zeros kept)."""
    truth = build_hmm(
        make_alphabets([3, 2]),
        initial=[0.7, 0.3, 0.0],
        transition=[[0.8, 0.15, 0.05], [0.0, 0.85, 0.15], [0.0, 0.0, 1.0]],
        emissions=[
            [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]],
            [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]],
        ],
    )
    data, _ = simulate_hmm_data(truth, 200, 12, 3, missing_rate=0.1)
    return data, _perturb(truth, 0.5, np.random.default_rng(4))


def _covariate_mixture_case():
    """K = 3 two-state clusters with an intercept-plus-covariate design, 200
    subjects drawn from them, and a start perturbed from them."""
    clusters = []
    for k in range(3):
        e = np.full((2, 4), 0.1)
        e[0, k], e[1, k + 1] = 0.7, 0.7
        clusters.append(
            build_hmm(
                make_alphabets([4]),
                initial=[0.6, 0.4],
                transition=[[0.9, 0.1], [0.2, 0.8]],
                emissions=[e],
            )
        )
    X = np.column_stack([np.ones(200), np.random.default_rng(5).normal(size=200)])
    design = CovariateDesign(("(Intercept)", "x1"), X)
    truth = build_mhmm(clusters, covariates=design, gamma=[[0, 0.3, -0.2], [0, 1.0, -1.0]])
    data, _, _ = simulate_mhmm_data(truth, design, 200, 12, 6)
    return data, design, _perturb(truth, 0.3, np.random.default_rng(7))


class TestSquarem:
    """The SQUAREM EM driver against the frozen plain EM loop."""

    @staticmethod
    def _against_plain_em(start, data, design):
        """SQUAREM at em_rel_tol 1e-8 and 1e-11 against one plain EM run to
        1e-11; its prefix up to the first change below 1e-8 relative is the
        plain run at 1e-8.  Returns the SQUAREM fit at 1e-8."""
        _, trace, _ = _plain_em(start, data, design, 5000, 1e-11)
        ref = trace[-1]
        steps = next(
            i + 1
            for i in range(1, len(trace))
            if abs(trace[i] - trace[i - 1]) / (abs(trace[i]) + 0.1) < 1e-8
        )
        res = fit_em(start, data, design, FitControl(em_rel_tol=1e-8))
        tight = fit_em(start, data, design, FitControl(em_rel_tol=1e-11))
        assert res.converged_by == tight.converged_by == "em_tol"
        # nearer the maximum than plain EM stops under the same tolerance,
        # in fewer E-steps; the same maximum at the tight one
        assert abs(ref - res.loglik) < ref - trace[steps - 1]
        assert res.em_iterations < steps
        assert abs(ref - tight.loglik) <= 1e-10 * abs(ref)
        return res

    def test_hmm_with_structural_zeros_reaches_plain_em_maximum(self):
        data, start = _left_to_right_case()
        res = self._against_plain_em(start, data, None)
        arrays = _hmm_arrays(res.model)
        assert sum(int(mask.sum()) for _, mask in arrays) == 5
        for values, mask in arrays:
            assert (values[mask] == 0.0).all()

    def test_covariate_mixture_reaches_plain_em_maximum(self):
        data, design, start = _covariate_mixture_case()
        res = self._against_plain_em(start, data, design)
        assert (res.model.gamma[:, 0] == 0.0).all()
        assert (res.model.gamma[:, 1:] != start.gamma[:, 1:]).all()

    @pytest.mark.parametrize("max_iter", [7, 500])
    def test_invalid_proposals_leave_plain_em(self, monkeypatch, max_iter):
        # every proposal gets a negative entry, which costs no E-step, so the
        # driver must take exactly plain EM's steps, E-step count included
        real = estimation._em_model
        proposals = []

        def negative(template, x):
            proposals.append(x)
            return real(template, np.concatenate([[-1e-3], x[1:]]))

        monkeypatch.setattr(estimation, "_em_model", negative)
        data, start = _left_to_right_case()
        res = fit_em(start, data, control=FitControl(em_max_iter=max_iter, em_rel_tol=1e-8))
        model, trace, steps = _plain_em(start, data, None, max_iter, 1e-8)
        assert proposals
        assert res.converged_by == ("max_iter" if max_iter == 7 else "em_tol")
        assert res.em_iterations == steps
        assert res.loglik_trace == trace
        for (got, _), (want, _) in zip(_hmm_arrays(res.model), _hmm_arrays(model)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind", ["nonfinite", "lower"])
    @pytest.mark.parametrize("max_iter", [3, 500])
    def test_rejected_proposals_never_enter_trace(self, monkeypatch, kind, max_iter):
        # every proposal is a model whose E-step raises ImpossibleData or
        # scores below theta1; each costs an E-step and the cycle falls back
        # to theta2, so the accepted points are plain EM's.  With max_iter 3
        # the budget runs out on the first proposal: theta2 is then scored,
        # as plain EM capped at 2 iterations scores its last model.
        data, start = _left_to_right_case()
        if kind == "nonfinite":  # channel 0's symbol 0 made impossible
            b = start.emissions[0] * [0.0, 1.0, 1.0]
            b /= b.sum(axis=1, keepdims=True)
            poison = start.with_params(emissions=[b, start.emissions[1]])
        else:  # emissions flat over their free entries
            poison = start.with_params(
                emissions=[(~m) / (~m).sum(axis=1, keepdims=True) for m in start.emission_masks]
            )
        real_stats = estimation.expected_stats
        rejected = []  # the proposals' log-likelihoods, None where the E-step raised

        def counting(model, *args, **kwargs):
            if model is not poison:
                return real_stats(model, *args, **kwargs)
            rejected.append(None)
            stats = real_stats(model, *args, **kwargs)
            rejected[-1] = stats.loglik
            return stats

        monkeypatch.setattr(estimation, "_em_model", lambda template, x: poison)
        monkeypatch.setattr(estimation, "expected_stats", counting)
        res = fit_em(start, data, control=FitControl(em_max_iter=max_iter, em_rel_tol=1e-8))
        monkeypatch.undo()
        model, trace, steps = _plain_em(start, data, None, 2 if max_iter == 3 else max_iter, 1e-8)
        if max_iter == 3:
            assert len(rejected) == 1
        else:
            assert len(rejected) > 1
        assert (None in rejected) == (kind == "nonfinite")
        assert res.converged_by == ("max_iter" if max_iter == 3 else "em_tol")
        assert res.em_iterations == steps + len(rejected)
        assert res.loglik_trace == trace
        assert not set(rejected) & set(res.loglik_trace)
        for (got, _), (want, _) in zip(_hmm_arrays(res.model), _hmm_arrays(model)):
            np.testing.assert_array_equal(got, want)
        assert abs(res.loglik - log_likelihood(res.model, data)) < 1e-9


def _fit_hmm_like_case():
    """Four sticky states, two channels of 6 and 4 symbols, 5 % missing cells
    and trailing-missing padding, as in perfbench's ``fit_hmm``, with a start
    halfway between the truth and a random model."""
    rng = np.random.default_rng(17)
    truth = random_hmm(rng, 4, [6, 4])
    truth = truth.with_params(transition=0.8 * np.eye(4) + 0.2 * truth.transition)
    data = random_dataset(rng, truth, 150, 20, missing_rate=0.05)
    pad = np.arange(20)[None, :] >= rng.integers(12, 21, size=150)[:, None]
    channels = tuple(
        Channel(ch.name, ch.alphabet, np.where(pad, MISSING, ch.codes)) for ch in data.channels
    )
    rand = random_hmm(rng, 4, [6, 4])
    start = truth.with_params(
        initial=(truth.initial + rand.initial) / 2,
        transition=(truth.transition + rand.transition) / 2,
        emissions=[(a + b) / 2 for a, b in zip(truth.emissions, rand.emissions)],
    )
    return SequenceDataset(channels, data.subject_ids), start


class TestFitModel:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("case", ["hmm_tol_restarts", "hmm_capped", "mixture_capped"])
    def test_equals_fit_em_then_fit_local(self, monkeypatch, case, threads):
        design = None
        if case == "hmm_tol_restarts":
            data, start = _fit_hmm_like_case()
            settings = dict(restarts=1, em_rel_tol=1e-6)
        elif case == "hmm_capped":
            data, start = _left_to_right_case()
            settings = dict(em_max_iter=5)
        else:
            data, design, start = _covariate_mixture_case()
            settings = dict(em_max_iter=5)
        control = FitControl(**settings, local_step=True, local_max_iter=5, threads=threads)
        real_stats = estimation.expected_stats
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real_stats(*args, **kwargs)

        monkeypatch.setattr(estimation, "expected_stats", counting)
        joint = fit_model(start, data, design, control)
        n_joint = len(calls)
        em = fit_em(start, data, design, control)
        n_em = len(calls) - n_joint
        loc = fit_local(em.model, data, design, control)
        n_local = len(calls) - n_joint - n_em
        assert em.converged_by == ("max_iter" if "capped" in case else "em_tol")
        assert loc.local_iterations > 0
        assert n_joint == n_em + n_local
        assert _em_vector(joint.model).tobytes() == _em_vector(loc.model).tobytes()
        assert joint.loglik == loc.loglik
        assert joint.restart_logliks == em.restart_logliks
        assert joint.em_iterations == em.em_iterations
        assert joint.local_iterations == loc.local_iterations
        assert joint.converged_by == loc.converged_by
        # the local step's first point is EM's model, so its first value is EM's last
        assert loc.loglik_trace[0] == em.loglik
        assert joint.loglik_trace == em.loglik_trace + loc.loglik_trace[1:]
        assert joint.diagnostics == em.diagnostics + loc.diagnostics


class TestGradientOfARecord:
    @pytest.mark.parametrize("case", ["hmm", "mixture"])
    def test_equals_loglik_gradient_to_the_bit(self, case):
        """``_gradient`` of an E-step record, taken in a fit's workspace at
        three threads, is ``loglik_gradient`` at the start and at a moved
        point."""
        if case == "hmm":
            (data, start), design = _left_to_right_case(), None
        else:
            data, design, start = _covariate_mixture_case()
        pmap = ParameterMap(start)
        theta = pmap.pack() + np.random.default_rng(5).normal(scale=0.3, size=pmap.n_params)
        workspace = _Workspace(data)
        for m, at in [(start, None), (pmap.unpack(theta), theta)]:
            stats = expected_stats(m, data, threads=3, design=design, workspace=workspace)
            got = _gradient(m, stats, pmap, design)
            assert got.tobytes() == loglik_gradient(start, data, design, theta=at).tobytes()


class TestFitLocal:
    def test_binomial_mle_recovered(self):
        data = _single_channel_data([["A", "A", "B", "A"]])
        m = build_hmm(
            (data.channels[0].alphabet,),
            initial=[1.0],
            transition=[[1.0]],
            emissions=[[0.5, 0.5]],
        )
        res = fit_local(m, data, control=FitControl(local_max_iter=500, local_grad_tol=1e-9))
        np.testing.assert_allclose(res.model.emissions[0][0], [0.75, 0.25], atol=1e-6)
        assert res.converged_by == "grad_tol"

    def test_stationary_start_returns_immediately(self):
        data = _single_channel_data([["A", "A", "B", "A"]])
        m = build_hmm(
            (data.channels[0].alphabet,),
            initial=[1.0],
            transition=[[1.0]],
            emissions=[[0.75, 0.25]],
        )
        res = fit_local(m, data, control=FitControl(local_grad_tol=1e-8))
        assert res.local_iterations == 0
        assert res.converged_by == "grad_tol"

    def test_first_point_is_the_given_model(self, monkeypatch):
        # not its round trip through the coordinates, which can move the
        # last bits and so the whole path of the ascent
        data, start = _left_to_right_case()
        real_stats = estimation.expected_stats
        seen = []

        def recording(model, *args, **kwargs):
            seen.append(model)
            return real_stats(model, *args, **kwargs)

        monkeypatch.setattr(estimation, "expected_stats", recording)
        res = fit_local(start, data, control=FitControl(local_max_iter=0))
        assert len(seen) == 1 and seen[0] is start
        assert res.loglik_trace == [real_stats(start, data).loglik]

    def test_trial_points_whose_e_step_raises_score_inf(self, monkeypatch):
        # every trial after the start fails, so the line search finds no step
        data, start = _left_to_right_case()
        real_stats = estimation.expected_stats
        calls = []

        def failing_after(first_ok):
            def stats(model, *args, **kwargs):
                calls.append(model)
                if len(calls) > first_ok:
                    raise NumericalUnderflow("trial point underflows")
                return real_stats(model, *args, **kwargs)

            return stats

        monkeypatch.setattr(estimation, "expected_stats", failing_after(1))
        res = fit_local(start, data, control=FitControl(local_max_iter=5))
        assert len(calls) > 1 and res.model is start
        assert (res.converged_by, res.local_iterations) == ("line_search", 0)
        assert res.loglik_trace == [real_stats(start, data).loglik]
        # a failure at the start itself stands
        calls.clear()
        monkeypatch.setattr(estimation, "expected_stats", failing_after(0))
        with pytest.raises(NumericalUnderflow, match="trial point underflows"):
            fit_local(start, data, control=FitControl(local_max_iter=5))
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["hmm", "mixture"])
    def test_one_e_step_per_objective_evaluation(self, monkeypatch, case):
        if case == "hmm":
            (data, start), design = _left_to_right_case(), None
        else:
            data, design, start = _covariate_mixture_case()
        real_stats, real_lbfgs = estimation.expected_stats, estimation._lbfgs
        e_steps, evaluations = [], []

        def counting(*args, **kwargs):
            e_steps.append(None)
            return real_stats(*args, **kwargs)

        def counted_lbfgs(fun, *args):
            def counted(theta):
                evaluations.append(None)
                return fun(theta)

            return real_lbfgs(counted, *args)

        monkeypatch.setattr(estimation, "expected_stats", counting)
        monkeypatch.setattr(estimation, "_lbfgs", counted_lbfgs)
        res = fit_local(start, data, design, FitControl(local_max_iter=5))
        assert res.local_iterations > 0
        # the start is evaluated by fit_local itself, every later point by the objective
        assert len(e_steps) == len(evaluations) + 1
        assert len(evaluations) >= res.local_iterations
        e_steps.clear()
        loglik_gradient(start, data, design)
        assert len(e_steps) == 1

    def test_never_decreases_after_em(self):
        rng = np.random.default_rng(210)
        for _ in range(5):
            model = random_hmm(rng, 2, [3])
            data = random_dataset(rng, model, 8, 10, missing_rate=0.1)
            em = fit_em(random_hmm(rng, 2, [3]), data, control=FitControl(em_max_iter=15))
            loc = fit_local(em.model, data, control=FitControl(local_max_iter=50))
            assert loc.loglik >= em.loglik - 1e-12
            assert (np.diff(loc.loglik_trace) >= 0).all()
            assert loc.loglik_trace[-1] == loc.loglik
            assert abs(loc.loglik - log_likelihood(loc.model, data)) < 1e-9

    def test_mixture_local_step_improves(self):
        rng = np.random.default_rng(211)
        mix, design = random_mixture(rng, 2, 2, [2], n_subjects=10)
        data = random_dataset(rng, mix.clusters[0], 10, 6)
        res = fit_model(
            mix, data, design, FitControl(em_max_iter=5, local_step=True, local_max_iter=40)
        )
        assert res.local_iterations >= 0
        assert res.loglik >= res.restart_logliks[0] - 1e-9


def _dense_h0(model, data, design=None):
    """The local step's initial inverse Hessian at ``model`` as a matrix,
    with the E-step record it was built from."""
    pmap = ParameterMap(model)
    stats = expected_stats(model, data, design=design)
    h0 = estimation._inverse_hessian(model, stats, pmap, design)
    P = pmap.n_params
    return np.array([h0(e) for e in np.eye(P)]).reshape(P, P), stats


def _coordinate_numbers(model):
    """Per ``_blocks`` block, each entry's ParameterMap coordinate, or -1."""
    pmap, numbers, start = ParameterMap(model), [], 0
    for coord in pmap.coords:
        idx = np.full(coord.shape, -1)
        idx[coord] = np.arange(start, start + coord.sum())
        numbers.append(idx)
        start += int(coord.sum())
    return numbers


def _assert_positive_definite(H):
    assert np.isfinite(H).all()
    assert (np.diag(H) > 0).all()
    np.testing.assert_allclose(H, H.T, rtol=1e-12, atol=0)
    np.linalg.cholesky(H)


def _unvisited_state_case():
    """Three states; state 3's initial entry and the transitions into it are
    free but 0, so no subject visits it and its rows have no expected count.
    State 1's first symbol, its emission row's anchor, is free but 0 too."""
    # with_params keeps the mask of a model without zeros, so the zeros stay free
    start = random_hmm(np.random.default_rng(31), 3, [3]).with_params(
        initial=[0.6, 0.4, 0.0],
        transition=[[0.8, 0.2, 0.0], [0.3, 0.7, 0.0], [0.3, 0.3, 0.4]],
        emissions=[[[0.0, 0.5, 0.5], [0.6, 0.3, 0.1], [0.2, 0.3, 0.5]]],
    )
    data, _ = simulate_hmm_data(start, 40, 8, 2)
    return start, data


class TestInitialInverseHessian:
    """H0, the complete-data information's inverse that preconditions
    ``fit_local``, against dense inverses of each row's information."""

    @pytest.mark.parametrize("case", ["hmm", "mixture"])
    def test_equals_inverse_of_the_complete_data_information(self, case):
        from scipy.linalg import block_diag

        if case == "hmm":
            (data, start), design = _left_to_right_case(), None
        else:
            data, design, start = _covariate_mixture_case()
        H, stats = _dense_h0(start, data, design)
        pmap, parts = ParameterMap(start), []
        for b, counts, coord in zip(_blocks(start), stats.counts, pmap.coords):
            for p, c, mask, cd in zip(b.values, counts, b.mask, coord):
                if cd.any():
                    n = c[~mask].sum()
                    info = n * (np.diag(p[cd]) - np.outer(p[cd], p[cd]))
                    parts.append(np.linalg.inv(info))
        if design is not None:
            w = mixture_weights(start.gamma, design.X)
            parts.append(np.linalg.inv(-_gamma_hessian(design.X, w)))
        np.testing.assert_allclose(H, block_diag(*parts), rtol=1e-9, atol=1e-12)
        _assert_positive_definite(H)

    def test_unvisited_state_and_clamped_entries_fall_back_to_the_identity(self):
        start, data = _unvisited_state_case()
        H, stats = _dense_h0(start, data)
        _assert_positive_definite(H)
        initial, transition, emission = _coordinate_numbers(start)
        # state 3's own rows have no expected count
        assert stats.counts[1][2].sum() == 0 and stats.counts[2][2].sum() == 0
        # entries at the floor: the initial and transition entries into state
        # 3, and state 1's first emission, which anchors its row
        fallback = [initial[0, 2], *transition[:, 2], *transition[2], *emission[2], *emission[0]]
        fallback = sorted(i for i in fallback if i >= 0)
        np.testing.assert_array_equal(H[fallback], np.eye(len(H))[fallback])
        kept = np.setdiff1d(np.arange(len(H)), fallback)
        assert (H[kept] != np.eye(len(H))[kept]).any(axis=1).all()

    def test_clamped_coordinate_alone_falls_back(self):
        start = random_hmm(np.random.default_rng(32), 2, [4]).with_params(
            initial=[0.5, 0.5],
            transition=[[0.9, 0.1], [0.2, 0.8]],
            emissions=[[[0.5, 0.3, 0.0, 0.2], [0.1, 0.2, 0.3, 0.4]]],
        )
        data, _ = simulate_hmm_data(start, 60, 10, 3)
        H, stats = _dense_h0(start, data)
        _assert_positive_definite(H)
        emission = _coordinate_numbers(start)[2]
        clamped, others = emission[0, 2], emission[0, [1, 3]]
        np.testing.assert_array_equal(H[clamped], np.eye(len(H))[clamped])
        # the row's other coordinates keep the closed form, anchored at 0.5
        n = stats.counts[2][0].sum()
        p = start.emissions[0][0, [1, 3]]
        want = (np.diag(1 / p) + 1 / 0.5) / n
        np.testing.assert_allclose(H[np.ix_(others, others)], want, rtol=1e-12)

    def test_singular_gamma_information_falls_back_to_the_identity(self):
        # prior weights exactly 0, 1 and 0 for every subject: the logit
        # information is zero, so its Cholesky factorization fails
        data, design, start = _covariate_mixture_case()
        saturated = dataclasses.replace(start, gamma=[[0.0, 800.0, 0.0], [0.0, 0.0, 0.0]])
        w = mixture_weights(saturated.gamma, design.X)
        assert set(np.unique(w)) == {0.0, 1.0}
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(-_gamma_hessian(design.X, w))
        pmap = ParameterMap(saturated)
        stats = expected_stats(saturated, data, design=design)

        def dense(model):
            h0 = estimation._inverse_hessian(model, stats, pmap, design)
            return np.array([h0(e) for e in np.eye(pmap.n_params)])

        H, split = dense(saturated), pmap.n_params - 4  # gamma's Q x (K - 1) = 2 x 2 coordinates
        np.testing.assert_array_equal(H[split:, split:], np.eye(4))
        np.testing.assert_array_equal(H[:split, split:], 0.0)
        # the probability rows' blocks are those of a model that differs only
        # in gamma, whose logit information is positive definite
        H_start = dense(start)
        assert not np.array_equal(H_start[split:, split:], np.eye(4))
        np.testing.assert_array_equal(H[:split, :split], H_start[:split, :split])

    @pytest.mark.parametrize("case", ["unvisited", "masked"])
    def test_fit_local_never_ends_below_its_start(self, case):
        if case == "unvisited":
            start, data = _unvisited_state_case()
        else:
            data, start = _left_to_right_case()
        res = fit_local(start, data, control=FitControl(local_max_iter=10))
        assert res.local_iterations > 0
        assert (np.diff(res.loglik_trace) >= 0).all()
        assert res.loglik >= expected_stats(start, data).loglik

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(channel_sizes.flatmap(masked_hmms), st.integers(0, 2**16), st.integers(1, 4))
    def test_masked_models(self, model, seed, n_subjects):
        # few subjects, so some rows have no expected count
        data, _ = simulate_hmm_data(model, n_subjects, 5, seed, missing_rate=0.2)
        H, _ = _dense_h0(model, data)
        _assert_positive_definite(H)
        res = fit_local(model, data, control=FitControl(local_max_iter=3))
        assert (np.diff(res.loglik_trace) >= 0).all()
        assert res.loglik == res.loglik_trace[-1] >= res.loglik_trace[0]


def _scipy_local_step(m, data, design, control):
    """scipy's L-BFGS-B on the same objective; returns (loglik, max |gradient|)."""
    from scipy.optimize import minimize

    pmap = ParameterMap(m)

    def objective(theta):
        return (
            -log_likelihood(pmap.unpack(theta), data, design),
            -loglik_gradient(m, data, design, theta),
        )

    res = minimize(
        objective,
        pmap.pack(m),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": control.local_max_iter,
            "gtol": control.local_grad_tol,
            "ftol": 0.0,
        },
    )
    return -res.fun, np.abs(res.jac).max()


def _local_step_case(name):
    """Start model, data and design for the optimizer oracle.  Past the
    binomial, the start is an EM fit, so both optimizers polish toward the
    same maximum."""
    if name == "binomial":
        data = _single_channel_data([["A", "A", "B", "A"]])
        m = build_hmm(
            (data.channels[0].alphabet,),
            initial=[1.0],
            transition=[[1.0]],
            emissions=[[0.5, 0.5]],
        )
        return m, data, None
    rng = np.random.default_rng(300)
    ctl = FitControl(em_max_iter=500, em_rel_tol=1e-10)
    if name == "hmm_zeros_missing":
        truth = random_hmm(rng, 3, [3, 2], left_to_right=True)
        data, _ = simulate_hmm_data(truth, 150, 10, 0, missing_rate=0.1)
        start = random_hmm(rng, 3, [3, 2], left_to_right=True)
        return fit_em(start, data, control=ctl).model, data, None
    truth, design = random_mixture(rng, 2, 2, [3], n_subjects=150, n_covariates=2)
    data, _, _ = simulate_mhmm_data(truth, design, 150, 10, 1)
    start, _ = random_mixture(rng, 2, 2, [3], n_subjects=150, n_covariates=2)
    return fit_em(start, data, design, control=ctl).model, data, design


class TestLbfgsAgainstScipy:
    """The numpy L-BFGS behind ``fit_local`` against scipy's L-BFGS-B."""

    @pytest.mark.parametrize("case", ["binomial", "hmm_zeros_missing", "mixture_covariate"])
    def test_reaches_same_maximum_as_scipy(self, case):
        m, data, design = _local_step_case(case)
        control = FitControl(local_max_iter=5000, local_grad_tol=1e-5)
        res = fit_local(m, data, design, control)
        oracle_ll, oracle_grad = _scipy_local_step(m, data, design, control)
        assert oracle_grad < control.local_grad_tol
        assert res.converged_by == "grad_tol"
        assert res.diagnostics == []
        assert np.abs(loglik_gradient(res.model, data, design)).max() < control.local_grad_tol
        assert abs(res.loglik - oracle_ll) <= 1e-9 * abs(oracle_ll)

    def test_unreachable_tolerance_ends_in_line_search_failure(self):
        # FitControl requires a positive tolerance; |g| < 5e-324 means g == 0
        rng = np.random.default_rng(400)
        truth = random_hmm(rng, 2, [3])
        data, _ = simulate_hmm_data(truth, 200, 5, 0, missing_rate=0.1)
        em = fit_em(truth, data, control=FitControl(em_max_iter=300, em_rel_tol=1e-10))
        control = FitControl(local_max_iter=100_000, local_grad_tol=5e-324)
        res = fit_local(em.model, data, control=control)
        assert res.diagnostics == ["line_search_failure: returning best point found"]
        assert res.converged_by == "line_search"
        assert 0 < res.local_iterations < control.local_max_iter
        assert len(res.loglik_trace) == res.local_iterations + 1
        assert (np.diff(res.loglik_trace) >= 0).all()
        assert res.loglik == res.loglik_trace[-1] >= em.loglik
        assert abs(res.loglik - log_likelihood(res.model, data)) < 1e-9
        # the cap, reached before the line search fails, is a "max_iter" stop
        capped = FitControl(local_max_iter=2, local_grad_tol=5e-324)
        res = fit_local(em.model, data, control=capped)
        assert (res.converged_by, res.local_iterations, res.diagnostics) == ("max_iter", 2, [])


class TestGradient:
    def test_dimension_matches_parameter_count(self):
        rng = np.random.default_rng(220)
        model = random_hmm(rng, 3, [3, 2], left_to_right=True)
        data = random_dataset(rng, model, 4, 6)
        g = loglik_gradient(model, data)
        assert g.shape == (count_parameters(model, data).p,)
        mix, design = random_mixture(rng, 2, 2, [3], n_subjects=4, n_covariates=2)
        mdata = random_dataset(rng, mix.clusters[0], 4, 5)
        g = loglik_gradient(mix, mdata, design)
        assert g.shape == (count_parameters(mix, mdata).p,)

    def test_zero_gradient_at_closed_form_mle(self):
        data = _single_channel_data([["A", "A", "B", "A"]])
        m = build_hmm(
            (data.channels[0].alphabet,),
            initial=[1.0],
            transition=[[1.0]],
            emissions=[[0.75, 0.25]],
        )
        g = loglik_gradient(m, data)
        assert np.max(np.abs(g)) < 1e-8

    def _check_fd(self, m, data, design, rng):
        pmap = ParameterMap(m)
        theta = pmap.pack(m) + rng.normal(scale=0.3, size=pmap.n_params)
        analytic = loglik_gradient(m, data, design, theta=theta)

        def f(th):
            return log_likelihood(pmap.unpack(th), data, design)

        fd = central_difference_gradient(f, theta, h=1e-6)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
        assert np.max(np.abs(analytic - fd) / denom) < 1e-5

    def test_matches_finite_differences_hmm(self):
        rng = np.random.default_rng(221)
        for _ in range(6):
            model = random_hmm(rng, 2, [2, 3])
            data = random_dataset(rng, model, 3, 4, missing_rate=0.1)
            self._check_fd(model, data, None, rng)

    def test_matches_finite_differences_mixture_including_gamma(self):
        rng = np.random.default_rng(222)
        for _ in range(4):
            mix, design = random_mixture(rng, 2, 2, [2], n_subjects=3, n_covariates=2)
            data = random_dataset(rng, mix.clusters[0], 3, 4, missing_rate=0.1)
            self._check_fd(mix, data, design, rng)

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(223)
        mix, _ = random_mixture(rng, 2, 3, [2, 2], n_subjects=3, n_covariates=2)
        pmap = ParameterMap(mix)
        theta = pmap.pack(mix)
        back = pmap.unpack(theta)
        for a, b in zip(mix.clusters, back.clusters):
            np.testing.assert_allclose(a.transition, b.transition, atol=1e-14)
            np.testing.assert_allclose(a.initial, b.initial, atol=1e-14)
        np.testing.assert_allclose(mix.gamma, back.gamma, atol=1e-15)

    def test_unpack_of_a_wrong_length_raises(self):
        mix, _ = random_mixture(np.random.default_rng(224), 2, 2, [2], n_subjects=3)
        pmap = ParameterMap(mix)
        for theta in (np.zeros(pmap.n_params - 1), np.zeros((1, pmap.n_params))):
            with pytest.raises(DimensionMismatch, match=rf"expected \({pmap.n_params},\)"):
                pmap.unpack(theta)


class TestGammaMStep:
    def test_one_cluster_returns_the_zero_reference_at_once(self):
        design = CovariateDesign(("a", "x"), np.column_stack([np.ones(4), np.arange(4.0)]))
        fit = gamma_m_step(design, np.ones((4, 1)), [[0.5], [2.0]])
        assert fit.gamma.tolist() == [[0.0], [0.0]]
        assert (fit.converged, fit.iterations, fit.grad_max, fit.diagnostics) == (True, 0, 0.0, [])

    def test_intercept_only_closed_form(self):
        design = CovariateDesign.intercept(8)
        weights = np.tile([0.25, 0.75], (8, 1))
        fit = gamma_m_step(design, weights, np.zeros((1, 2)))
        assert fit.converged
        assert abs(fit.gamma[0, 1] - np.log(3.0)) < 1e-10

    def test_three_cluster_intercept_closed_form(self):
        design = CovariateDesign.intercept(10)
        weights = np.tile([0.5, 0.3, 0.2], (10, 1))
        fit = gamma_m_step(design, weights, np.zeros((1, 3)))
        np.testing.assert_allclose(
            fit.gamma[0, 1:], [np.log(0.3 / 0.5), np.log(0.2 / 0.5)], atol=1e-10
        )

    def test_separated_weights_return_large_negative_intercept(self):
        # the optimum is at -inf; the run must end (gradient underflows the
        # tolerance or the cap is hit) with a large negative coefficient
        design = CovariateDesign.intercept(6)
        weights = np.tile([1.0, 0.0], (6, 1))
        fit = gamma_m_step(design, weights, np.zeros((1, 2)))
        assert fit.gamma[0, 1] < -20.0
        assert np.isfinite(fit.gamma).all()
        assert fit.iterations <= 100

    def test_separating_covariate_saturates_and_stops_by_grad_tol(self):
        # x = -1 / +1 picks the cluster: the weights saturate within rounding,
        # so the gradient test ends the run well before the iteration cap
        x = np.repeat([-1.0, 1.0], 200)
        design = CovariateDesign(("(Intercept)", "x"), np.column_stack([np.ones(400), x]))
        weights = np.column_stack([x < 0, x > 0]).astype(float)
        fit = gamma_m_step(design, weights, np.zeros((2, 2)))
        assert fit.converged and fit.iterations < 100 and fit.diagnostics == []
        assert fit.grad_max < 1e-10 and 20.0 < fit.gamma[1, 1] < np.inf

    def test_covariate_case_matches_irls_oracle(self):
        rng = np.random.default_rng(230)
        n = 400
        X = np.column_stack([np.ones(n), (rng.random(n) < 0.5).astype(float)])
        design = CovariateDesign(("(Intercept)", "group"), X)
        gamma_true = np.array([[0.0, -0.4], [0.0, 1.1]])
        logits = X @ gamma_true
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        # fractional targets drawn around the true probabilities
        noise = rng.random((n, 1))
        weights = np.column_stack(
            [probs[:, 0] * (0.8 + 0.4 * noise[:, 0]), probs[:, 1]]
        )
        weights /= weights.sum(axis=1, keepdims=True)
        fit = gamma_m_step(design, weights, np.zeros((2, 2)))
        oracle = irls_multinomial(X, weights)
        np.testing.assert_allclose(fit.gamma, oracle, atol=1e-6)

    def test_rank_deficient_design_rejected(self):
        X = np.ones((5, 2))  # second column duplicates the intercept
        design = CovariateDesign(("(Intercept)", "dup"), X)
        with pytest.raises(RankDeficientDesign):
            gamma_m_step(design, np.tile([0.5, 0.5], (5, 1)), np.zeros((2, 2)))


class TestStandardErrors:
    def test_single_cluster_has_no_free_gamma(self):
        rng = np.random.default_rng(240)
        mix = build_mhmm([random_hmm(rng, 2, [2])])
        data = random_dataset(rng, mix.clusters[0], 4, 3)
        se = covariate_standard_errors(mix, data)
        np.testing.assert_array_equal(se, np.zeros((1, 1)))

    def test_identical_clusters_binomial_information(self):
        rng = np.random.default_rng(241)
        sub = random_hmm(rng, 2, [2])
        gamma = np.array([[0.0, np.log(3.0)]])  # w2 = 0.75
        mix = build_mhmm([sub, sub], gamma=gamma)
        n = 20
        data = random_dataset(rng, sub, n, 4)
        se = covariate_standard_errors(mix, data)
        w = 0.75
        assert abs(se[0, 1] - np.sqrt(1.0 / (n * w * (1 - w)))) < 1e-12

    def test_hessian_matches_finite_differences_of_gamma_gradient(self):
        rng = np.random.default_rng(242)
        n, Q, K = 30, 2, 3
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        gamma = rng.normal(size=(Q, K))
        gamma[:, 0] = 0.0
        from markovseq.model import mixture_weights

        def grad_free(gvec):
            g = gamma.copy()
            g[:, 1:] = gvec.reshape(Q, K - 1, order="F")
            w = mixture_weights(g, X)
            # weights held fixed: this is the gradient the Newton step uses
            return (X.T @ (np.tile([0.2, 0.5, 0.3], (n, 1)) - w))[:, 1:].ravel(order="F")

        gvec = gamma[:, 1:].ravel(order="F")
        H = _gamma_hessian(X, mixture_weights(gamma, X))
        fd = np.empty_like(H)
        h = 1e-6
        for j in range(gvec.size):
            up, down = gvec.copy(), gvec.copy()
            up[j] += h
            down[j] -= h
            fd[:, j] = (grad_free(up) - grad_free(down)) / (2 * h)
        denom = np.maximum(1.0, np.abs(H))
        assert np.max(np.abs(H - fd) / denom) < 1e-4
