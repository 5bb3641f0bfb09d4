"""Model builders against frozen copies of their direct-constructor versions.

The ``_ref_*`` code below is ``build_mm``, the MMM and LCM cluster
construction of ``build_restricted_mixture`` and ``simulate_parameters``
(with its ``_random_hmm``) as they were when each called the ``HmmModel``
constructor itself, with masks spelled out by hand, frozen here.  Every
builder now goes through ``build_hmm``, whose rule is that a zero entry is
a structural zero.

Over a range of seeds, each builder's ``model_to_json`` document, masks
included, must equal the frozen builder's: the same draws in the same
order, the same names and the same structural zeros.  The frozen restricted
and simulated builders marked no drawn entry as structural, so the two
could differ only where a Dirichlet(1) draw is exactly 0.0, which has
probability about 2**-53 per entry.
"""

import numpy as np
import pytest

from markovseq import (
    CovariateDesign,
    HmmModel,
    SimSpec,
    build_mhmm,
    build_mm,
    build_restricted_mixture,
    model_to_json,
    simulate_hmm_data,
    simulate_parameters,
)
from markovseq.model import _data_meta
from markovseq.seqdata import MISSING
from markovseq.simulate import _default_alphabets

from helpers import make_alphabets, random_dataset, random_hmm

SEEDS = range(40)


# ----------------------------------------------------------------------
# the frozen references
# ----------------------------------------------------------------------


def _ref_build_mm(data):
    ch = data.channels[0]
    M = ch.alphabet.size
    codes = ch.codes

    first_counts = np.zeros(M)
    for i in range(data.n_subjects):
        observed = codes[i][codes[i] != MISSING]
        if observed.size:
            first_counts[observed[0]] += 1.0
    if first_counts.sum() > 0:
        initial = first_counts / first_counts.sum()
    else:
        initial = np.full(M, 1.0 / M)

    trans_counts = np.zeros((M, M))
    src, dst = codes[:, :-1], codes[:, 1:]
    both = (src != MISSING) & (dst != MISSING)
    np.add.at(trans_counts, (src[both], dst[both]), 1.0)
    transition = np.zeros((M, M))
    for s in range(M):
        total = trans_counts[s].sum()
        if total > 0:
            transition[s] = trans_counts[s] / total
        else:
            transition[s, s] = 1.0

    identity = np.eye(M)
    return HmmModel(
        state_names=ch.alphabet.labels,
        channel_names=(ch.name,),
        alphabets=(ch.alphabet,),
        initial=initial,
        transition=transition,
        emissions=(identity,),
        initial_mask=initial == 0.0,
        transition_mask=transition == 0.0,
        emission_masks=(identity == 0.0,),
    )


def _ref_restricted_mixture(kind, data_meta, n_clusters, covariates=None, rng_seed=None):
    alphabets, channel_names = _data_meta(data_meta)
    rng = np.random.default_rng(rng_seed)
    clusters = []
    if kind == "mmm":
        M = alphabets[0].size
        identity = np.eye(M)
        for _ in range(n_clusters):
            clusters.append(
                HmmModel(
                    state_names=alphabets[0].labels,
                    channel_names=channel_names,
                    alphabets=alphabets,
                    initial=rng.dirichlet(np.ones(M)),
                    transition=rng.dirichlet(np.ones(M), size=M),
                    emissions=(identity,),
                    initial_mask=np.zeros(M, dtype=bool),
                    transition_mask=np.zeros((M, M), dtype=bool),
                    emission_masks=(identity == 0.0,),
                )
            )
    else:
        for _ in range(n_clusters):
            clusters.append(
                HmmModel(
                    state_names=("State 1",),
                    channel_names=channel_names,
                    alphabets=alphabets,
                    initial=np.ones(1),
                    transition=np.ones((1, 1)),
                    emissions=tuple(
                        rng.dirichlet(np.ones(a.size), size=1) for a in alphabets
                    ),
                    initial_mask=np.zeros(1, dtype=bool),
                    transition_mask=np.zeros((1, 1), dtype=bool),
                    emission_masks=tuple(
                        np.zeros((1, a.size), dtype=bool) for a in alphabets
                    ),
                )
            )
    return build_mhmm(clusters, covariates=covariates)


def _ref_random_transition(rng, S, left_to_right):
    if not left_to_right:
        A = rng.dirichlet(np.ones(S), size=S)
        return A, A == 0.0
    A = np.zeros((S, S))
    mask = np.ones((S, S), dtype=bool)
    for s in range(S):
        A[s, s:] = rng.dirichlet(np.ones(S - s))
        mask[s, s:] = False
    return A, mask


def _ref_random_hmm(rng, spec, alphabets):
    S = spec.n_states
    initial = rng.dirichlet(np.ones(S))
    transition, tmask = _ref_random_transition(rng, S, spec.left_to_right)
    emissions = tuple(rng.dirichlet(np.ones(a.size), size=S) for a in alphabets)
    return HmmModel(
        state_names=tuple(f"State {s + 1}" for s in range(S)),
        channel_names=tuple(f"Channel {c + 1}" for c in range(len(alphabets))),
        alphabets=alphabets,
        initial=initial,
        transition=transition,
        emissions=emissions,
        initial_mask=np.zeros(S, dtype=bool),
        transition_mask=tmask,
        emission_masks=tuple(np.zeros((S, a.size), dtype=bool) for a in alphabets),
    )


def _ref_simulate_parameters(spec):
    rng = np.random.default_rng(spec.seed)
    alphabets = _default_alphabets(spec.n_symbols)
    if spec.n_clusters == 1:
        return _ref_random_hmm(rng, spec, alphabets)
    clusters = [_ref_random_hmm(rng, spec, alphabets) for _ in range(spec.n_clusters)]
    gamma = rng.normal(size=(1, spec.n_clusters))
    gamma[:, 0] = 0.0
    return build_mhmm(clusters, gamma=gamma)


# ----------------------------------------------------------------------
# the comparisons
# ----------------------------------------------------------------------


def _assert_same(got, want):
    assert model_to_json(got) == model_to_json(want)


def _mm_data(seed):
    """Single-channel data with zero counts: a sparse generating chain, few
    subjects and missing cells, so initial and transition rows hold zeros
    and some states have no outgoing pair (the self-loop fallback)."""
    rng = np.random.default_rng(seed)
    model = random_hmm(rng, 3, [5], left_to_right=True)
    if seed % 2:
        return random_dataset(rng, model, 4, 5, missing_rate=0.4)
    data, _ = simulate_hmm_data(model, 6, 4, seed, missing_rate=0.2)
    return data


def test_build_mm_matches_frozen():
    for seed in SEEDS:
        data = _mm_data(seed)
        want = _ref_build_mm(data)
        assert want.transition_mask.any()  # the data does give structural zeros
        _assert_same(build_mm(data), want)


def test_build_mm_all_missing_start_matches_frozen():
    model = random_hmm(np.random.default_rng(3), 2, [3])
    data = random_dataset(np.random.default_rng(4), model, 3, 4, missing_rate=1.0)
    _assert_same(build_mm(data), _ref_build_mm(data))


_COVARIATES = CovariateDesign(("(Intercept)", "x"), np.array([[1.0, 0.5], [1.0, -1.0]]))


@pytest.mark.parametrize(
    "kind, sizes",
    [("mmm", [4]), ("mmm", [1]), ("lcm", [3]), ("lcm", [3, 2, 4])],
    ids=["mmm", "mmm-one-symbol", "lcm", "lcm-multichannel"],
)
@pytest.mark.parametrize("n_clusters, covariates", [(1, None), (3, _COVARIATES)], ids=["K1", "K3"])
def test_restricted_mixture_matches_frozen(kind, sizes, n_clusters, covariates):
    alphabets = make_alphabets(sizes)
    for seed in SEEDS:
        got = build_restricted_mixture(kind, alphabets, n_clusters, covariates, rng_seed=seed)
        want = _ref_restricted_mixture(kind, alphabets, n_clusters, covariates, rng_seed=seed)
        _assert_same(got, want)


@pytest.mark.parametrize("left_to_right", [False, True], ids=["dense", "left-to-right"])
@pytest.mark.parametrize("n_clusters", [1, 3], ids=["K1", "K3"])
@pytest.mark.parametrize("n_symbols", [(3,), (4, 2)], ids=["one-channel", "two-channel"])
def test_simulate_parameters_matches_frozen(left_to_right, n_clusters, n_symbols):
    for seed in SEEDS:
        spec = SimSpec(
            n_subjects=1,
            n_time=1,
            seed=seed,
            n_states=3,
            n_symbols=n_symbols,
            n_clusters=n_clusters,
            left_to_right=left_to_right,
        )
        _assert_same(simulate_parameters(spec), _ref_simulate_parameters(spec))
