"""Log mode and Viterbi against frozen whole-dataset references.

``_ref_fb_log``, ``_ref_log_pass``, ``_ref_viterbi_cluster`` and
``_ref_viterbi_paths`` are the passes that chunked log mode and Viterbi
replaced, frozen here: each cluster in turn, over a whole (N, T, S)
log-emission array walked subject-major.  On N = 1100 subjects (three
chunks) the library must give bit-identical paths, path log-probabilities,
log alpha and beta, log-likelihoods, rho and posteriors, at one thread and
at three, and the same error message where the reference raises.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from markovseq import (
    CovariateDesign,
    build_hmm,
    build_mhmm,
    forward_backward,
    posterior_state_probs,
    viterbi_paths,
)
from markovseq.errors import ImpossibleData, MarkovSeqError, NumericalUnderflow
from markovseq.inference import (
    ViterbiResult,
    _clusters_and_inits,
    _forward_pass,
    _logsumexp,
    _require_possible,
    _run_chunked,
    cluster_logliks,
)
from markovseq.model import MixtureModel
from markovseq.seqdata import MISSING, Channel, SequenceDataset

from helpers import (
    make_alphabets,
    random_dataset,
    random_hmm,
    uneven_mixture,
    with_unchecked_emissions,
)

N, T = 1100, 9


# ----------------------------------------------------------------------
# the frozen references
# ----------------------------------------------------------------------


def _ref_log_emission_probs(model, data):
    tables = [np.vstack([b.T, np.ones(model.n_states)]) for b in model.emissions]
    out = np.take(tables[0], data.channels[0].codes, axis=0)
    for table, ch in zip(tables[1:], data.channels[1:]):
        out *= np.take(table, ch.codes, axis=0)
    with np.errstate(divide="ignore"):
        return np.log(out)


def _ref_fb_log(model, data, init, logE, threads, want_beta=True):
    N, T, S = logE.shape
    with np.errstate(divide="ignore"):
        logA = np.log(model.transition)
        log_init = np.log(init)
    la = np.empty((N, T, S))
    lb = np.empty((N, T, S)) if want_beta else None
    loglik = np.empty(N)

    def work(k, span, _worker):
        a, b = span
        e = logE[a:b]
        la[a:b, 0] = log_init[a:b] + e[:, 0]
        for t in range(1, T):
            la[a:b, t] = (
                _logsumexp(la[a:b, t - 1, :, None] + logA[None, :, :], axis=1) + e[:, t]
            )
        loglik[a:b] = _logsumexp(la[a:b, T - 1], axis=1)
        if want_beta:
            lb[a:b, T - 1] = 0.0
            for t in range(T - 2, -1, -1):
                lb[a:b, t] = _logsumexp(
                    logA[None, :, :] + (e[:, t + 1] + lb[a:b, t + 1])[:, None, :],
                    axis=2,
                )

    with np.errstate(invalid="ignore"):
        _run_chunked(work, N, threads)
    if np.any(np.isnan(loglik)):
        i = int(np.argmax(np.isnan(loglik)))
        raise NumericalUnderflow(
            f"NaN log-likelihood for subject {data.subject_ids[i]!r}"
        )
    return la, lb, loglik


def _ref_log_pass(hmms, data, inits, threads, want_beta=True):
    runs = [
        _ref_fb_log(h, data, init, _ref_log_emission_probs(h, data), threads, want_beta)
        for h, init in zip(hmms, inits)
    ]
    ll = np.stack([run[2] for run in runs])
    return [run[0] for run in runs], [run[1] for run in runs], ll, _logsumexp(ll, axis=0)


def _ref_forward_pass(m, data, design):
    hmms, inits = _clusters_and_inits(m, data, design)
    _, _, ll, loglik = _ref_log_pass(hmms, data, inits, 1, want_beta=False)
    with np.errstate(invalid="ignore"):
        return loglik, np.exp(ll - loglik).T


def _ref_posterior(m, data, design):
    hmms, inits = _clusters_and_inits(m, data, design)
    las, lbs, _, loglik = _ref_log_pass(hmms, data, inits, 1)
    _require_possible(loglik, data, "posterior")
    return np.concatenate(
        [np.exp(la + lb - loglik[:, None, None]) for la, lb in zip(las, lbs)], axis=2
    )


def _ref_forward_backward(model, data):
    las, lbs, _, loglik = _ref_log_pass([model], data, _clusters_and_inits(model, data)[1], 1)
    return "log", las[0], lbs[0], None, loglik


def _ref_cluster_logliks(mix, data):
    runs = [
        _ref_log_pass([sub], data, _clusters_and_inits(sub, data)[1], 1, False)
        for sub in mix.clusters
    ]
    return np.column_stack([run[2][0] for run in runs])


def _ref_viterbi_cluster(model, data, init):
    logE = _ref_log_emission_probs(model, data)
    N, T, S = logE.shape
    with np.errstate(divide="ignore"):
        logA = np.log(model.transition)
        log_init = np.log(init)
    paths = np.empty((N, T), dtype=np.int64)
    back = np.empty((N, T, S), dtype=np.int64)
    delta = log_init + logE[:, 0]
    with np.errstate(invalid="ignore"):
        for t in range(1, T):
            cand = delta[:, :, None] + logA[None, :, :]  # (N, from, to)
            back[:, t] = np.argmax(cand, axis=1)  # first max = lowest index
            delta = np.max(cand, axis=1) + logE[:, t]
    last = np.argmax(delta, axis=1)
    paths[:, T - 1] = last
    for t in range(T - 1, 0, -1):
        paths[:, t - 1] = back[np.arange(N), t, paths[:, t]]
    return paths, delta[np.arange(N), last]


def _ref_viterbi_paths(m, data, design=None):
    hmms, inits = _clusters_and_inits(m, data, design)
    runs = [_ref_viterbi_cluster(h, data, init) for h, init in zip(hmms, inits)]
    joints = np.stack([joint for _, joint in runs], axis=1)  # (N, K)
    if np.any(np.isnan(joints)):
        i = int(np.argmax(np.isnan(joints).any(axis=1)))
        raise NumericalUnderflow(
            f"NaN path log-probability for subject {data.subject_ids[i]!r}"
        )
    best = np.argmax(joints, axis=1)  # first max = lowest cluster
    subjects = np.arange(data.n_subjects)
    log_joint = joints[subjects, best]
    if np.any(np.isneginf(log_joint)):
        i = int(np.argmax(np.isneginf(log_joint)))
        raise ImpossibleData(
            f"subject {data.subject_ids[i]!r} has zero probability under the model"
        )
    offsets = np.cumsum([0] + [h.n_states for h in hmms])
    paths = np.stack([p for p, _ in runs])[best, subjects] + offsets[best, None]
    clusters = best if isinstance(m, MixtureModel) else None
    return ViterbiResult(paths=paths, log_joint=log_joint, clusters=clusters)


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------


def _left_to_right_padded():
    """A left-to-right HMM (structural zeros below the diagonal) on data
    with 10% missing cells and lengths 3..T padded with trailing missing."""
    rng = np.random.default_rng(1)
    model = random_hmm(rng, 4, [3, 2], left_to_right=True)
    data = random_dataset(rng, model, N, T, missing_rate=0.1)
    padding = np.arange(T) >= rng.integers(3, T + 1, size=(N, 1))
    channels = [
        Channel(ch.name, ch.alphabet, np.where(padding, MISSING, ch.codes))
        for ch in data.channels
    ]
    return model, SequenceDataset(tuple(channels), data.subject_ids), None


def _uneven_mixture():
    """K = 3 clusters of 2, 4 and 3 states with a covariate."""
    rng = np.random.default_rng(2)
    mix, design = uneven_mixture(rng, [3, 2], [2, 4, 3], N)
    return mix, random_dataset(rng, mix.clusters[0], N, T, missing_rate=0.2), design


def _tied_hmm(alphabets):
    """States 0 and 1 emit alike and are entered alike, so paths tie."""
    return build_hmm(
        alphabets,
        initial=[0.25, 0.25, 0.5],
        transition=[[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]],
        emissions=[[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]],
    )


def _tied_mixture():
    """Two equal clusters of the tied HMM: cluster and state ties."""
    hmm = _tied_hmm(make_alphabets([3]))
    rng = np.random.default_rng(3)
    mix = build_mhmm([hmm, hmm])
    return mix, random_dataset(rng, hmm, N, T, missing_rate=0.1), None


def _tied_plain():
    """The tied HMM alone: ties between states only."""
    hmm = _tied_hmm(make_alphabets([3]))
    return hmm, random_dataset(np.random.default_rng(4), hmm, N, T, missing_rate=0.1), None


def _excluding(alphabets, symbol):
    """An HMM that never emits ``symbol`` of its one channel."""
    b = np.full((2, 3), 0.5)
    b[:, symbol] = 0.0
    return build_hmm(
        alphabets, initial=[0.6, 0.4], transition=[[0.7, 0.3], [0.2, 0.8]], emissions=[b]
    )


def _exclusive_mixture(both_at=None):
    """Cluster 0 never emits symbol 1, cluster 1 never symbol 0: a subject
    that shows one of them is impossible in one cluster.  Subject
    ``both_at`` shows both, so it is impossible in every cluster."""
    alphabets = make_alphabets([3])
    rng = np.random.default_rng(5)
    codes = np.full((N, T), 2)
    shows = rng.integers(0, 3, size=N)  # 0: symbol 0, 1: symbol 1, 2: neither
    for i in np.flatnonzero(shows < 2):
        codes[i, rng.integers(0, T)] = shows[i]
    if both_at is not None:
        codes[both_at, :2] = [0, 1]
    codes[rng.random((N, T)) < 0.1] = MISSING
    data = SequenceDataset(
        (Channel("Channel 1", alphabets[0], codes),), tuple(f"s{i + 1}" for i in range(N))
    )
    X = np.column_stack([np.ones(N), rng.normal(size=N)])
    design = CovariateDesign(("(Intercept)", "x1"), X)
    mix = build_mhmm(
        [_excluding(alphabets, 1), _excluding(alphabets, 0)],
        covariates=design,
        gamma=[[0.0, 0.4], [0.0, -0.7]],
    )
    return mix, data, design


def _nan_in_two_clusters():
    """Cluster 0 meets a NaN emission in subject 901, cluster 1 in subject
    101: log mode names the lowest cluster's subject, Viterbi the first."""
    mix, data, design = _exclusive_mixture()
    codes = np.full((N, T), 2)
    codes[900, 3], codes[100, 5] = 0, 1
    channel = Channel(data.channels[0].name, data.alphabets[0], codes)
    data = SequenceDataset((channel,), data.subject_ids)
    b0, b1 = (np.array(h.emissions[0]) for h in mix.clusters)
    b0[0, 0] = b1[1, 1] = np.nan
    clusters = [with_unchecked_emissions(h, [b]) for h, b in zip(mix.clusters, (b0, b1))]
    return replace(mix, clusters=tuple(clusters)), data, design


CASES = {
    "left_to_right_padded": _left_to_right_padded,
    "uneven_mixture": _uneven_mixture,
    "tied_plain": _tied_plain,
    "tied_mixture": _tied_mixture,
    "impossible_in_one_cluster": _exclusive_mixture,
    "impossible_everywhere": lambda: _exclusive_mixture(both_at=700),
    "nan_in_two_clusters": _nan_in_two_clusters,
}


def _same(got, want):
    if want is None:
        assert got is None
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _outcome(call):
    """(result, None) or (None, (error type, message))."""
    try:
        return call(), None
    except MarkovSeqError as err:
        return None, (type(err), str(err))


def _agree(got_call, want_call):
    """Both calls return the same arrays bit for bit, or raise the same error."""
    got, got_err = _outcome(got_call)
    want, want_err = _outcome(want_call)
    assert got_err == want_err
    if want_err is None:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_log_mode_and_viterbi_match_reference(case, threads):
    m, data, design = CASES[case]()
    _agree(
        lambda: astuple(viterbi_paths(m, data, design=design)),
        lambda: astuple(_ref_viterbi_paths(m, data, design)),
    )
    _agree(
        lambda: _forward_pass(m, data, design, "log", threads),
        lambda: _ref_forward_pass(m, data, design),
    )
    _agree(
        lambda: [posterior_state_probs(m, data, design, "log", threads)],
        lambda: [_ref_posterior(m, data, design)],
    )
    if isinstance(m, MixtureModel):
        _agree(lambda: [cluster_logliks(m, data, threads)], lambda: [_ref_cluster_logliks(m, data)])
    else:
        _agree(
            lambda: astuple(forward_backward(m, data, mode="log", threads=threads)),
            lambda: _ref_forward_backward(m, data),
        )


def test_cases_reach_what_they_name():
    """The tie and impossibility cases hold ties and -inf pairs where claimed,
    and the data span three chunks."""
    assert N > 2 * 512
    mix, data, design = CASES["tied_mixture"]()
    assert (viterbi_paths(mix, data).clusters == 0).all()
    mix, data, design = CASES["impossible_in_one_cluster"]()
    ll = cluster_logliks(mix, data)
    assert np.isneginf(ll[:, 0]).any() and np.isneginf(ll[:, 1]).any()
    assert not np.isneginf(ll).all(axis=1).any()
    mix, data, design = CASES["impossible_everywhere"]()
    assert np.flatnonzero(np.isneginf(cluster_logliks(mix, data)).all(axis=1)).tolist() == [700]
    with pytest.raises(ImpossibleData, match="'s701'"):
        viterbi_paths(mix, data, design=design)
    mix, data, design = CASES["nan_in_two_clusters"]()
    with pytest.raises(NumericalUnderflow, match="NaN log-likelihood for subject 's901'"):
        _forward_pass(mix, data, design, "log", 1)
    with pytest.raises(NumericalUnderflow, match="NaN path log-probability for subject 's101'"):
        viterbi_paths(mix, data, design=design)
