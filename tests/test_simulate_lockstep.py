"""The lockstep simulator against a frozen per-subject reference.

``_reference_hmm`` and ``_reference_mhmm`` are the per-subject loop the
lockstep simulator replaced, frozen here (they return the code arrays
instead of a dataset): every subject makes separate ``random`` calls in
the documented draw order and steps through time with ``searchsorted``.
Paths, codes and labels must be exactly equal.
"""

import numpy as np
import pytest

from markovseq import (
    CovariateDesign,
    build_hmm,
    build_mhmm,
    simulate_hmm_data,
    simulate_mhmm_data,
)
from markovseq.model import mixture_weights
from markovseq.seqdata import MISSING
from markovseq.simulate import _BLOCK, _count_at_most, _cumulative_rows

from helpers import make_alphabets, random_hmm


def _reference_cumulative_rows(p):
    p = np.atleast_2d(p)
    c = np.cumsum(p, axis=1)
    for row, probs in zip(c, p):
        last = np.nonzero(probs)[0][-1]
        row[last:] = 1.0
    return c


def _draw(cum_row, u):
    return np.searchsorted(cum_row, u, side="right")


def _simulate_subject(rng, cum_init, cum_trans, cum_emis, n_time, missing_rate):
    u = rng.random(n_time)
    z = np.empty(n_time, dtype=np.int64)
    z[0] = _draw(cum_init[0], u[0])
    for t in range(1, n_time):
        z[t] = _draw(cum_trans[z[t - 1]], u[t])
    obs = []
    for cum_b in cum_emis:
        v = rng.random(n_time)
        rows = cum_b[z]  # (T, M)
        codes = (v[:, None] >= rows).sum(axis=1)
        if missing_rate > 0:
            gap = rng.random(n_time) < missing_rate
            codes = np.where(gap, MISSING, codes)
        obs.append(codes)
    return z, obs


def _tables(model):
    return (
        _reference_cumulative_rows(model.initial),
        _reference_cumulative_rows(model.transition),
        [_reference_cumulative_rows(b) for b in model.emissions],
    )


def _reference_hmm(model, n_subjects, n_time, seed, missing_rate=0.0):
    cum_init, cum_trans, cum_emis = _tables(model)
    paths = np.empty((n_subjects, n_time), dtype=np.int64)
    all_obs = []
    for i in range(n_subjects):
        rng = np.random.default_rng([seed, i])
        z, obs = _simulate_subject(rng, cum_init, cum_trans, cum_emis, n_time, missing_rate)
        paths[i] = z
        all_obs.append(obs)
    codes = [np.vstack([obs[c] for obs in all_obs]) for c in range(model.n_channels)]
    return paths, codes


def _reference_mhmm(mix, design, n_subjects, n_time, seed, missing_rate=0.0):
    if design is None:
        design = CovariateDesign.intercept(n_subjects)
    K = mix.n_clusters
    cum_w = _reference_cumulative_rows(mixture_weights(mix.gamma, design.X))
    offsets = mix.state_offsets
    tables = [_tables(sub) for sub in mix.clusters]
    paths = np.empty((n_subjects, n_time), dtype=np.int64)
    labels = np.empty(n_subjects, dtype=np.int64)
    all_obs = []
    for i in range(n_subjects):
        rng = np.random.default_rng([seed, i])
        k = 0 if K == 1 else int(_draw(cum_w[i], rng.random()))
        labels[i] = k
        cum_init, cum_trans, cum_emis = tables[k]
        z, obs = _simulate_subject(rng, cum_init, cum_trans, cum_emis, n_time, missing_rate)
        paths[i] = z + offsets[k]
        all_obs.append(obs)
    codes = [np.vstack([obs[c] for obs in all_obs]) for c in range(mix.clusters[0].n_channels)]
    return paths, codes, labels


def _assert_hmm_matches(model, n, t, seed, missing_rate=0.0):
    data, paths = simulate_hmm_data(model, n, t, seed, missing_rate)
    want_paths, want_codes = _reference_hmm(model, n, t, seed, missing_rate)
    np.testing.assert_array_equal(paths, want_paths)
    for ch, want in zip(data.channels, want_codes):
        np.testing.assert_array_equal(ch.codes, want)
    return paths


def _assert_mhmm_matches(mix, design, n, t, seed, missing_rate=0.0):
    data, paths, labels = simulate_mhmm_data(mix, design, n, t, seed, missing_rate)
    want_paths, want_codes, want_labels = _reference_mhmm(mix, design, n, t, seed, missing_rate)
    np.testing.assert_array_equal(labels, want_labels)
    np.testing.assert_array_equal(paths, want_paths)
    for ch, want in zip(data.channels, want_codes):
        np.testing.assert_array_equal(ch.codes, want)
    return labels


def _ten_tenths():
    """Every row ten 0.1 entries: their cumulative sum ends below 1."""
    row = [0.1] * 10
    return build_hmm(
        make_alphabets([10]), initial=row, transition=[row] * 10, emissions=[row] * 10
    )


class TestLockstepEqualsPerSubjectLoop:
    def test_left_to_right_with_missing_cells(self):
        rng = np.random.default_rng(11)
        model = random_hmm(rng, 4, [3, 5], left_to_right=True)
        assert model.transition_mask.any()
        paths = _assert_hmm_matches(model, 300, 40, seed=8, missing_rate=0.2)
        assert (np.diff(paths, axis=1) >= 0).all()

    def test_mixture_with_covariate(self):
        rng = np.random.default_rng(12)
        n = 700
        design = CovariateDesign(
            ("(Intercept)", "x1"), np.column_stack([np.ones(n), rng.normal(size=n)])
        )
        gamma = np.column_stack([np.zeros(2), rng.normal(size=(2, 2)) * 2.0])
        clusters = [random_hmm(rng, s, [4, 2]) for s in (2, 3, 4)]
        mix = build_mhmm(clusters, covariates=design, gamma=gamma)
        labels = _assert_mhmm_matches(mix, design, n, 25, seed=5, missing_rate=0.1)
        assert set(labels.tolist()) == {0, 1, 2}

    def test_single_cluster_mixture(self):
        rng = np.random.default_rng(13)
        mix = build_mhmm([random_hmm(rng, 3, [2, 3])])
        labels = _assert_mhmm_matches(mix, None, 40, 12, seed=9)
        assert (labels == 0).all()

    @pytest.mark.parametrize("n_time", [1, 7])
    def test_across_block_boundaries(self, n_time):
        n = 1100
        assert n > 2 * _BLOCK
        rng = np.random.default_rng(14)
        _assert_hmm_matches(random_hmm(rng, 3, [4]), n, n_time, seed=3, missing_rate=0.3)
        mix = build_mhmm(
            [random_hmm(rng, 2, [4]), random_hmm(rng, 3, [4])], gamma=[[0.0, 0.4]]
        )
        _assert_mhmm_matches(mix, None, n, n_time, seed=4)

    def test_tail_pinning_on_drifting_rows(self):
        model = _ten_tenths()
        assert np.cumsum(model.initial)[-1] < 1.0
        cum = _cumulative_rows(model.transition)
        assert (cum[:, -1] == 1.0).all()
        np.testing.assert_array_equal(cum, _reference_cumulative_rows(model.transition))
        _assert_hmm_matches(model, 600, 30, seed=21)

    def test_pinned_rows_match_reference_with_zeros(self):
        p = np.zeros((4, 11))
        p[0, :4] = [0.2, 0.0, 0.8, 0.0]
        p[1, -1] = 1.0
        p[2, 0] = 1.0
        p[3, :10] = 0.1  # cumulative sum drifts below 1 before a trailing zero
        cum = _cumulative_rows(p)
        np.testing.assert_array_equal(cum, _reference_cumulative_rows(p))
        # the largest uniform below 1 selects each row's last positive entry
        top = np.full(4, np.nextafter(1.0, 0.0))
        assert _count_at_most(cum, top).tolist() == [2, 10, 0, 9]
