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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameter, ShapeMismatch
from .model import HmmModel, MixtureModel, build_mhmm, mixture_weights
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
        _check_seed(self.seed)
        if min(self.n_subjects, self.n_time, self.n_states, self.n_clusters) < 1:
            raise InvalidParameter("all dimensions must be positive")
        if any(m < 1 for m in self.n_symbols):
            raise InvalidParameter("every channel needs at least one symbol")


def _default_alphabets(n_symbols) -> tuple[Alphabet, ...]:
    return tuple(
        Alphabet(tuple(f"m{j + 1}" for j in range(m))) for m in n_symbols
    )


def _random_transition(rng, S: int, left_to_right: bool):
    if not left_to_right:
        A = rng.dirichlet(np.ones(S), size=S)
        return A, A == 0.0
    A = np.zeros((S, S))
    mask = np.ones((S, S), dtype=bool)
    for s in range(S):
        A[s, s:] = rng.dirichlet(np.ones(S - s))
        mask[s, s:] = False
    return A, mask


def _random_hmm(rng, spec: SimSpec, alphabets) -> HmmModel:
    S = spec.n_states
    initial = rng.dirichlet(np.ones(S))
    transition, tmask = _random_transition(rng, S, spec.left_to_right)
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


def simulate_parameters(spec: SimSpec):
    """Draw a random model: Dirichlet(1) rows, seeded, honoring structure.

    With ``left_to_right`` the strict lower triangle of every transition
    matrix is a structural zero.  ``n_clusters > 1`` produces a mixture
    with an intercept-only design and standard-normal gamma coefficients
    (reference column zero).
    """
    rng = np.random.default_rng(spec.seed)
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


def _check_seed(seed) -> None:
    if seed < 0:  # numpy seeds only from integers >= 0
        raise InvalidParameter(f"seed must be >= 0, got {seed!r}")


def _check_request(n_subjects, n_time, seed, missing_rate) -> None:
    _check_seed(seed)
    if n_subjects < 1 or n_time < 1:
        raise InvalidParameter(
            f"n_subjects and n_time must be positive, got {n_subjects!r} and {n_time!r}"
        )
    if not 0.0 <= missing_rate <= 1.0:  # also rejects NaN
        raise InvalidParameter(f"missing_rate must be in [0, 1], got {missing_rate!r}")


def _simulate(tables, offsets, cum_w, n_subjects, n_time, seed, missing_rate):
    """Paths, per-channel codes and labels for clusters given as CDF tables.

    ``cum_w`` holds each subject's cumulative cluster weights, or is None
    for a single cluster, which draws no label.  Subjects go in blocks of
    ``_BLOCK``: each subject fills one row with its whole stream in one
    call, then the block's subjects of each cluster step in lockstep with
    that cluster's tables.
    """
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
            paths[block][members] = z + offsets[k]
            for out, c in zip(codes, obs):
                out[block][members] = c
    return paths, codes, labels


def _assemble_dataset(model: HmmModel, codes) -> SequenceDataset:
    channels = tuple(
        Channel(name, alpha, c)
        for name, alpha, c in zip(model.channel_names, model.alphabets, codes)
    )
    ids = tuple(f"s{i + 1}" for i in range(len(codes[0])))
    return SequenceDataset(channels, ids)


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
    _check_request(n_subjects, n_time, seed, missing_rate)
    paths, codes, _ = _simulate(
        [_tables(model)], (0,), None, n_subjects, n_time, seed, missing_rate
    )
    return _assemble_dataset(model, codes), paths


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
    output is identical to ``simulate_hmm_data`` on that cluster.
    """
    _check_request(n_subjects, n_time, seed, missing_rate)
    if design is None:
        design = CovariateDesign.intercept(n_subjects)
    if design.n_subjects != n_subjects:
        raise ShapeMismatch(f"{design.n_subjects} design rows for {n_subjects} subjects")
    w = mixture_weights(mix.gamma, design.X)
    cum_w = _cumulative_rows(w) if mix.n_clusters > 1 else None
    paths, codes, labels = _simulate(
        [_tables(sub) for sub in mix.clusters],
        mix.state_offsets,
        cum_w,
        n_subjects,
        n_time,
        seed,
        missing_rate,
    )
    return _assemble_dataset(mix.clusters[0], codes), paths, labels
