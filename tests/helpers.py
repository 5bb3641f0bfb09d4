"""Shared generators for randomized tests."""

import copy
import json

import numpy as np
from hypothesis import strategies as st

from markovseq import (
    Alphabet,
    Channel,
    CovariateDesign,
    SequenceDataset,
    HmmModel,
    build_hmm,
    build_mhmm,
)
from markovseq.seqdata import MISSING


def make_alphabets(sizes):
    return tuple(
        Alphabet(tuple(f"c{c}m{j}" for j in range(m))) for c, m in enumerate(sizes)
    )


def random_hmm(rng, n_states, sizes, left_to_right=False):
    alphabets = make_alphabets(sizes)
    S = n_states
    initial = rng.dirichlet(np.ones(S))
    if left_to_right:
        transition = np.zeros((S, S))
        for s in range(S):
            transition[s, s:] = rng.dirichlet(np.ones(S - s))
    else:
        transition = rng.dirichlet(np.ones(S), size=S)
    emissions = [rng.dirichlet(np.ones(m), size=S) for m in sizes]
    return build_hmm(alphabets, initial=initial, transition=transition, emissions=emissions)


@st.composite
def masked_rows(draw, n_rows, width):
    """A (n_rows, width) row-stochastic matrix and its structural-zero mask;
    each row keeps at least one free entry."""
    values = np.zeros((n_rows, width))
    mask = np.zeros((n_rows, width), dtype=bool)
    for s in range(n_rows):
        free = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        free[draw(st.integers(0, width - 1))] = True
        weights = draw(
            st.lists(st.floats(0.05, 1.0), min_size=width, max_size=width)
        )
        row = np.where(free, weights, 0.0)
        values[s] = row / row.sum()
        mask[s] = ~np.asarray(free)
    return values, mask


@st.composite
def masked_hmms(draw, sizes):
    """An HMM of 1-3 states whose every row has random structural zeros."""
    S = draw(st.integers(1, 3))
    initial, imask = draw(masked_rows(1, S))
    transition, tmask = draw(masked_rows(S, S))
    emissions = [draw(masked_rows(S, m)) for m in sizes]
    return HmmModel(
        state_names=tuple(f"State {s + 1}" for s in range(S)),
        channel_names=tuple(f"Channel {c + 1}" for c in range(len(sizes))),
        alphabets=make_alphabets(sizes),
        initial=initial[0],
        transition=transition,
        emissions=tuple(b for b, _ in emissions),
        initial_mask=imask[0],
        transition_mask=tmask,
        emission_masks=tuple(m for _, m in emissions),
    )


channel_sizes = st.lists(st.integers(1, 3), min_size=1, max_size=2)


@st.composite
def hmm_and_data(draw):
    """A masked HMM and a small dataset for it."""
    sizes = draw(channel_sizes)
    model = draw(masked_hmms(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, t = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return model, random_dataset(rng, model, n, t, missing_rate=draw(st.sampled_from([0.0, 0.3])))


@st.composite
def mixture_and_data(draw):
    """A mixture of 1-3 masked HMMs with a covariate, its design and a small
    dataset."""
    sizes = draw(channel_sizes)
    K = draw(st.integers(1, 3))
    clusters = [draw(masked_hmms(sizes)) for _ in range(K)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    design = CovariateDesign(("(Intercept)", "x1"), X)
    gamma = rng.normal(size=(2, K))
    gamma[:, 0] = 0.0
    mix = build_mhmm(clusters, covariates=design, gamma=gamma)
    data = random_dataset(rng, clusters[0], n, t, missing_rate=draw(st.sampled_from([0.0, 0.3])))
    return mix, design, data


def with_unchecked_emissions(model, emissions):
    """A copy of ``model`` holding ``emissions`` as given.

    Construction rejects non-finite rows, so this is the only way to reach
    the inference kernels' own guards against them.
    """
    bad = copy.copy(model)
    object.__setattr__(bad, "emissions", tuple(np.asarray(b, dtype=float) for b in emissions))
    return bad


def random_dataset(rng, model, n_subjects, n_time, missing_rate=0.0):
    """Codes drawn uniformly over each alphabet; independent of the model."""
    channels = []
    for name, alpha in zip(model.channel_names, model.alphabets):
        codes = rng.integers(0, alpha.size, size=(n_subjects, n_time))
        if missing_rate > 0:
            gaps = rng.random((n_subjects, n_time)) < missing_rate
            codes = np.where(gaps, MISSING, codes)
        channels.append(Channel(name, alpha, codes))
    ids = tuple(f"s{i + 1}" for i in range(n_subjects))
    return SequenceDataset(tuple(channels), ids)


def random_mixture(rng, n_clusters, n_states, sizes, n_subjects, n_covariates=1):
    """A random mixture plus a matching covariate design for n_subjects."""
    clusters = [random_hmm(rng, n_states, sizes) for _ in range(n_clusters)]
    names = ("(Intercept)",) + tuple(f"x{q}" for q in range(1, n_covariates))
    X = np.ones((n_subjects, n_covariates))
    if n_covariates > 1:
        X[:, 1:] = rng.normal(size=(n_subjects, n_covariates - 1))
    design = CovariateDesign(names, X)
    gamma = rng.normal(scale=0.8, size=(n_covariates, n_clusters))
    gamma[:, 0] = 0.0
    mix = build_mhmm(clusters, covariates=design, gamma=gamma)
    return mix, design


def uneven_mixture(rng, sizes, n_states, n_subjects):
    """A mixture whose clusters have ``n_states[k]`` states, with an
    intercept-plus-one-covariate design for n_subjects."""
    clusters = [random_hmm(rng, s, sizes) for s in n_states]
    X = np.column_stack([np.ones(n_subjects), rng.normal(size=n_subjects)])
    design = CovariateDesign(("(Intercept)", "x1"), X)
    gamma = rng.normal(scale=0.8, size=(2, len(n_states)))
    gamma[:, 0] = 0.0
    return build_mhmm(clusters, covariates=design, gamma=gamma), design


def write_manifest(tmp_path, channels, covariate_rows=None, covariate_names=None):
    """Write wide CSVs plus a manifest; channels are (name, labels, rows-of-tokens)."""
    entries = []
    n_time = len(channels[0][2][0])
    for name, labels, rows in channels:
        csv_path = tmp_path / f"{name}.csv"
        lines = ["id," + ",".join(f"t{t + 1}" for t in range(n_time))]
        for i, row in enumerate(rows):
            lines.append(f"s{i + 1}," + ",".join(row))
        csv_path.write_text("\n".join(lines) + "\n")
        entries.append(
            {"name": name, "csv": f"{name}.csv", "alphabet": list(labels), "missing_token": "*"}
        )
    manifest = {"id_column": "id", "channels": entries}
    if covariate_rows is not None:
        lines = ["id," + ",".join(covariate_names)]
        for i, row in enumerate(covariate_rows):
            lines.append(f"s{i + 1}," + ",".join(str(v) for v in row))
        (tmp_path / "covariates.csv").write_text("\n".join(lines) + "\n")
        manifest["covariates_csv"] = "covariates.csv"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path
