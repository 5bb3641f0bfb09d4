"""The support pass that decides which (cluster, subject) pairs are impossible.

``inference._possible`` runs a boolean forward pass over the supports of a
model's initial arrays, transitions and emissions.  A pair it calls
impossible must be exactly a pair the log pass puts at -inf, so the scaled
kernel's underflow rescue can skip it: on hypothesis models with structural
zeros, on mixtures, and on a long sequence where a normalised 0/1 forward
would lose the one path that reaches the last symbol.
"""

import numpy as np
from hypothesis import given, settings

import markovseq as mq
from markovseq import inference
from markovseq.estimation import expected_stats
from markovseq.inference import (
    _clusters_and_inits,
    _log_pass,
    _pack,
    _possible,
    _Workspace,
)

from helpers import hmm_and_data, mixture_and_data

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _support_and_log_pairs(m, data, design=None):
    hmms, inits = _clusters_and_inits(m, data, design)
    _, A, init, _ = _pack(hmms, inits, data.n_subjects)
    workspace = _Workspace(data)
    subjects = np.arange(data.n_subjects)
    possible = _possible(hmms, A, init, workspace, subjects)
    return possible, _log_pass(hmms, data, inits, 1, "pairs", workspace)


@SETTINGS
@given(case=hmm_and_data())
def test_impossible_pairs_are_the_log_passs_on_masked_hmms(case):
    model, data = case
    possible, ll = _support_and_log_pairs(model, data)
    assert np.array_equal(~possible, np.isneginf(ll))


@SETTINGS
@given(case=mixture_and_data())
def test_impossible_pairs_are_the_log_passs_on_mixtures(case):
    mix, design, data = case
    possible, ll = _support_and_log_pairs(mix, data, design)
    assert np.array_equal(~possible, np.isneginf(ll))


def test_subsets_of_subjects_across_chunks_read_their_own_codes():
    # 1100 subjects span three 512-subject chunks; every other subject is
    # impossible, and any subset gives the rows of the whole
    ab = mq.Alphabet(("a", "b"))
    hmm = mq.build_hmm([ab], initial=[1.0, 0.0], transition=[[0.5, 0.5], [0.0, 1.0]],
                       emissions=[[[1.0, 0.0], [0.5, 0.5]]], channel_names=("ch",))
    codes = np.zeros((1100, 3), dtype=int)
    codes[1::2] = [1, 0, 0]  # state 1 emits b, but no path leaves state 0 first
    data = mq.SequenceDataset((mq.Channel("ch", ab, codes),), tuple(f"s{i}" for i in range(1100)))
    possible, ll = _support_and_log_pairs(hmm, data)
    assert possible[0].tolist() == [i % 2 == 0 for i in range(1100)]
    assert np.array_equal(~possible, np.isneginf(ll))
    hmms, inits = _clusters_and_inits(hmm, data)
    _, A, init, _ = _pack(hmms, inits, 1100)
    subset = np.array([1, 2, 511, 512, 700, 1023, 1024, 1099])
    assert np.array_equal(_possible(hmms, A, init, _Workspace(data), subset), possible[:, subset])


def test_a_path_a_normalised_forward_would_lose_stays_possible(monkeypatch):
    # states 0 and 1 pass freely between each other, so their 0/1 path counts
    # double each step, while state 2 keeps to itself: after T steps a
    # normalised 0/1 forward holds state 2 at 2**-T, 0 for T = 1500.  Only
    # state 2 emits c, so ``a...ac`` has one path; ``a...acb`` has none.
    abc = mq.Alphabet(("a", "b", "c"))
    hmm = mq.build_hmm(
        [abc],
        initial=[0.4, 0.4, 0.2],
        transition=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
        emissions=[[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.01, 0.0, 0.99]]],
        channel_names=("ch",),
    )
    T = 1500
    codes = np.zeros((2, T), dtype=int)
    codes[0, -1] = 2
    codes[1, -2:] = [2, 1]
    data = mq.SequenceDataset((mq.Channel("ch", abc, codes),), ("s1", "s2"))
    # the normalised 0/1 forward, which the support pass must not be
    to_from, x = (hmm.transition > 0).T.astype(float), (hmm.initial > 0).astype(float)
    for t in range(1, T - 1):
        x = to_from @ x * (hmm.emissions[0][:, codes[0, t]] > 0)
        x /= x.sum()
    assert x[2] == 0.0
    possible, ll = _support_and_log_pairs(hmm, data)
    assert possible.tolist() == [[True, False]]
    assert np.isfinite(ll[0, 0]) and np.isneginf(ll[0, 1])
    # the scaled pass underflows on s1 (0.01**1499 of the mass), and the
    # rescue scores s1 alone again, as the log pass does
    rescored = []

    def log_pass(hmms, data, inits, threads, want, workspace):
        rescored.extend(data.subject_ids)
        return _log_pass(hmms, data, inits, threads, want, workspace)

    monkeypatch.setattr(inference, "_log_pass", log_pass)
    scaled, _ = inference._evaluate(hmm, data, "loglik")
    assert rescored == ["s1"]
    assert scaled[0] == ll[0, 0] and np.isneginf(scaled[1])


def test_the_rescue_rescores_no_impossible_pair(monkeypatch):
    # a mixture whose clusters forbid a -> b and b -> a: every subject with
    # both moves is impossible in two clusters, and none needs the log pass
    ab = mq.Alphabet(("a", "b"))
    free = mq.build_hmm([ab], initial=[0.5, 0.5], transition=[[0.5, 0.5], [0.5, 0.5]],
                        emissions=[np.eye(2)], channel_names=("ch",))
    stay_a = mq.build_hmm([ab], initial=[0.5, 0.5], transition=[[1.0, 0.0], [0.5, 0.5]],
                          emissions=[np.eye(2)], channel_names=("ch",))
    stay_b = mq.build_hmm([ab], initial=[0.5, 0.5], transition=[[0.5, 0.5], [0.0, 1.0]],
                          emissions=[np.eye(2)], channel_names=("ch",))
    mix = mq.build_mhmm([free, stay_a, stay_b])
    codes = np.random.default_rng(5).integers(0, 2, size=(600, 12))
    data = mq.SequenceDataset((mq.Channel("ch", ab, codes),), tuple(f"s{i}" for i in range(600)))
    calls = []
    monkeypatch.setattr(inference, "_log_pass", lambda *args: calls.append(args))
    stats = expected_stats(mix, data)
    loglik, rho = inference._evaluate(mix, data, "loglik")
    assert calls == []
    assert np.isfinite(loglik).all() and np.isfinite(stats.loglik)
    assert (rho == 0).any()
