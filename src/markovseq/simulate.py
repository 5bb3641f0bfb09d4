"""Random model parameters and synthetic datasets for recovery studies.

Reproducibility rule: subject i draws from ``default_rng([seed, i])``, an
independent substream, so per-subject simulation can be parallelized or
reordered without changing output.  Each subject makes one ``random(width)``
call, whose uniforms are used in this order: the cluster label (mixtures
with K > 1 only), one per time point for the hidden path, then per channel
one per time point for the emission and, when a missing rate is set, one
more per time point for the missingness mask.  PCG64 doubles concatenate,
so this is the stream that one call per item would give.

All subjects of a block advance together over t: the state at t is the
number of entries of the pinned cumulative row (initial, or the transition
row of each subject's state at t-1) that are <= that subject's uniform,
one vector operation per t.  A mixture labels each subject from its leading
uniform, then steps each cluster's subjects with that cluster's tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import check_count, check_instance, check_real
from .model import HmmModel, MixtureModel, _mixture_design, _state_space
from .model import build_hmm, build_mhmm, mixture_weights
from .seqdata import (
    MISSING,
    Alphabet,
    Channel,
    CovariateDesign,
    SequenceDataset,
)

# subjects simulated together; keeps the (n, T, M) emission comparison a
# few MB at any N
_BLOCK = 512


@dataclass(frozen=True)
class SimSpec:
    """Dimensions and seed for a simulated model/dataset pair."""

    n_subjects: int
    n_time: int
    seed: int
    n_states: int
    n_symbols: tuple[int, ...]
    n_clusters: int = 1
    left_to_right: bool = False

    def __post_init__(self):
        for name in ("n_subjects", "n_time", "n_states", "n_clusters"):
            object.__setattr__(self, name, check_count(getattr(self, name), name, 1))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        symbols = check_instance(self.n_symbols, Sequence, "SimSpec.n_symbols")
        object.__setattr__(self, "n_symbols", tuple(check_count(m, "n_symbols", 1) for m in symbols))


def _default_alphabets(n_symbols) -> tuple[Alphabet, ...]:
    return tuple(
        Alphabet(tuple(f"m{j + 1}" for j in range(m))) for m in n_symbols
    )


def _random_transition(rng, S: int, left_to_right: bool) -> np.ndarray:
    if not left_to_right:
        return rng.dirichlet(np.ones(S), size=S)
    A = np.zeros((S, S))
    for s in range(S):
        A[s, s:] = rng.dirichlet(np.ones(S - s))
    return A


def _random_hmm(rng, spec: SimSpec, alphabets) -> HmmModel:
    S = spec.n_states
    initial = rng.dirichlet(np.ones(S))
    transition = _random_transition(rng, S, spec.left_to_right)
    emissions = tuple(rng.dirichlet(np.ones(a.size), size=S) for a in alphabets)
    return build_hmm(alphabets, initial, transition, emissions)


def simulate_parameters(spec: SimSpec):
    """Draw a random model: Dirichlet(1) rows, seeded, honoring structure.

    With ``left_to_right`` the strict lower triangle of every transition
    matrix is a structural zero.  ``n_clusters > 1`` produces a mixture
    with an intercept-only design and standard-normal gamma coefficients
    (reference column zero).
    """
    rng = np.random.default_rng(check_instance(spec, SimSpec, "simulate_parameters").seed)
    alphabets = _default_alphabets(spec.n_symbols)
    if spec.n_clusters == 1:
        return _random_hmm(rng, spec, alphabets)
    clusters = [_random_hmm(rng, spec, alphabets) for _ in range(spec.n_clusters)]
    gamma = rng.normal(size=(1, spec.n_clusters))
    gamma[:, 0] = 0.0
    return build_mhmm(clusters, gamma=gamma)


def _cumulative_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise CDF with the tail pinned to 1 from the last positive entry on.

    Keeps zero-probability entries exactly unreachable under inverse-CDF
    sampling and guards against cumulative-sum drift below 1.  Every row
    must have a positive entry.
    """
    p = np.atleast_2d(p)
    c = np.cumsum(p, axis=1)
    last = p.shape[1] - 1 - np.argmax(p[:, ::-1] > 0, axis=1)
    c[np.arange(p.shape[1]) >= last[:, None]] = 1.0
    return c


def _count_at_most(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each uniform in ``u``, how many entries of its CDF row are <= it;
    ``cum`` is one row shared by all, or one row per uniform.

    A pinned CDF row is non-decreasing up to its last positive entry and 1
    from there on, and u < 1, so the entries <= u form a prefix: the count
    is the index the inverse-CDF draw selects (``searchsorted``, side
    "right"), and a zero-probability entry is never selected.
    """
    return (cum <= u[:, None]).sum(axis=1)


def _lockstep(u, cum_init, cum_trans, cum_emis, n_time, missing_rate):
    """Paths and per-channel codes for the subjects whose uniforms are the
    rows of ``u``, all advanced together over t."""
    n = len(u)
    z = np.empty((n, n_time), dtype=np.int64)
    z[:, 0] = _count_at_most(cum_init[0], u[:, 0])
    for t in range(1, n_time):
        z[:, t] = _count_at_most(cum_trans[z[:, t - 1]], u[:, t])
    codes = []
    col = n_time
    for cum_b in cum_emis:
        v = u[:, col : col + n_time]
        col += n_time
        c = (v[:, :, None] >= cum_b[z]).sum(axis=2)  # (n, T) symbol indices
        if missing_rate > 0:
            c[u[:, col : col + n_time] < missing_rate] = MISSING
            col += n_time
        codes.append(c)
    return z, codes


def _simulate(model, design, n_subjects, n_time, seed, missing_rate):
    """Dataset, paths and labels drawn from an HMM or a mixture; both public
    functions check their arguments here.

    A mixture of K > 1 clusters labels each subject from its cumulative
    cluster weights; a single cluster (an HMM is one) draws no label.
    Subjects go in blocks of ``_BLOCK``: each subject fills one row with its
    whole stream in one call, then the block's subjects of each cluster step
    in lockstep with that cluster's CDF tables.
    """
    n_subjects = check_count(n_subjects, "n_subjects", 1)
    n_time = check_count(n_time, "n_time", 1)
    seed = check_count(seed, "seed", 0)
    missing_rate = check_real(missing_rate, "missing_rate", 0, 1)
    design = _mixture_design(model, n_subjects, design)
    space = _state_space(model)
    cum_w = None if len(space.hmms) == 1 else _cumulative_rows(mixture_weights(model.gamma, design.X))
    tables = [_tables(h) for h in space.hmms]
    n_channels = len(tables[0][2])
    lead = 0 if cum_w is None else 1
    width = lead + n_time * (1 + n_channels * (2 if missing_rate > 0 else 1))
    paths = np.empty((n_subjects, n_time), dtype=np.int64)
    labels = np.zeros(n_subjects, dtype=np.int64)
    codes = [np.empty((n_subjects, n_time), dtype=np.int64) for _ in range(n_channels)]
    u = np.empty((min(n_subjects, _BLOCK), width))
    for start in range(0, n_subjects, _BLOCK):
        block = slice(start, min(start + _BLOCK, n_subjects))
        ub = u[: block.stop - start]
        for i, row in enumerate(ub, start):
            np.random.default_rng([seed, i]).random(out=row)
        if cum_w is not None:
            labels[block] = _count_at_most(cum_w[block], ub[:, 0])
        for k, (cum_init, cum_trans, cum_emis) in enumerate(tables):
            members = slice(None) if cum_w is None else np.flatnonzero(labels[block] == k)
            z, obs = _lockstep(
                ub[members, lead:], cum_init, cum_trans, cum_emis, n_time, missing_rate
            )
            paths[block][members] = z + space.bounds[k]
            for out, c in zip(codes, obs):
                out[block][members] = c
    channels = zip(space.hmms[0].channel_names, space.hmms[0].alphabets, codes)
    ids = tuple(f"s{i + 1}" for i in range(n_subjects))
    return SequenceDataset(tuple(Channel(*c) for c in channels), ids), paths, labels


def _tables(model: HmmModel):
    return (
        _cumulative_rows(model.initial),
        _cumulative_rows(model.transition),
        [_cumulative_rows(b) for b in model.emissions],
    )


def simulate_hmm_data(
    model: HmmModel,
    n_subjects: int,
    n_time: int,
    seed: int,
    missing_rate: float = 0.0,
) -> tuple[SequenceDataset, np.ndarray]:
    """Sample observations and hidden paths from a fixed HMM."""
    check_instance(model, HmmModel, "simulate_hmm_data")
    return _simulate(model, None, n_subjects, n_time, seed, missing_rate)[:2]


def simulate_mhmm_data(
    mix: MixtureModel,
    design: Optional[CovariateDesign],
    n_subjects: int,
    n_time: int,
    seed: int,
    missing_rate: float = 0.0,
) -> tuple[SequenceDataset, np.ndarray, np.ndarray]:
    """Sample from a mixture: cluster by covariate prior, then that cluster's HMM.

    Returns the dataset, hidden paths in the combined state space (cluster
    blocks stacked), and 0-based cluster labels.  With a single cluster the
    output is identical to ``simulate_hmm_data`` on that cluster.  A design
    is checked as for inference; ``None`` stands for the intercept, so a
    mixture with covariates needs one.
    """
    check_instance(mix, MixtureModel, "simulate_mhmm_data")
    return _simulate(mix, design, n_subjects, n_time, seed, missing_rate)
