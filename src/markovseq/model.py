"""HMM and mixture-HMM construction, validation, and transformation.

Every model is checked in one place, ``HmmModel.__post_init__``, whichever
path built it: the builders, the JSON loader, ``with_params``,
``_with_blocks`` (so the M-step and the local step), trimming and
``combine_clusters``.  Each probability row must be non-negative and sum
to one within ``ROW_TOL``; rows inside the tolerance are silently
renormalized, rows outside it are rejected.  Entries marked in a
``*_mask`` are structural zeros: they must hold exactly 0, are never
touched by estimation and do not count as free parameters.  Every builder of a fresh model goes through ``build_hmm``,
which marks every zero entry it is given.  State names, and a mixture's
cluster names, must be distinct.

Every operation that walks a model's probability rows (trimming, the
parameter count, and in ``estimation`` the M-step, the restart
perturbation, SQUAREM's vector and the local step's parameter map and
gradient) reads them through one layout, ``_blocks``: per cluster the
initial vector as one row, the transition matrix, then each channel's
emission matrix, each a 2-D block of rows with its mask.  ``_with_blocks``
builds the model back from per-block arrays.  ``_state_space`` describes
the combined state space for every module: clusters side by side in blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    AlphabetMismatch,
    DegenerateData,
    DimensionMismatch,
    DuplicateLabel,
    GammaReferenceNotZero,
    InvalidParameter,
    MultichannelNotAllowed,
    NegativeProbability,
    RowAnnihilated,
    RowSumError,
    ShapeMismatch,
    check_count,
    check_instance,
    check_real,
    check_text,
)
from .seqdata import (
    Alphabet,
    CovariateDesign,
    SequenceDataset,
    _alphabet,
    _list,
    _object,
    _strings,
    effective_size,
)

ROW_TOL = 1e-8


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _checked_rows(a: np.ndarray, mask: np.ndarray, where: str) -> np.ndarray:
    """Check the probability rows of ``a`` (a vector is one row) and freeze it.

    Reports the first faulty row.  ``a`` must be the caller's own copy: a
    row more than 1e-12 from 1 is renormalized in place.  Sums within float
    roundoff of 1 stay untouched, so revalidating a model reproduces it.
    """
    if mask.shape != a.shape:
        raise DimensionMismatch(f"{where} mask shape {mask.shape}, expected {a.shape}")
    if a.size == 0:
        raise DimensionMismatch(f"{where} has an empty state or symbol axis")
    rows = a.reshape(-1, a.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):  # inf or huge entries fail below
        totals = rows.sum(axis=1)
    off = np.abs(totals - 1.0)
    worst = off.max()
    # written so that a NaN entry or total fails too
    if not (rows.min() >= 0.0 and worst <= ROW_TOL):
        negative = (rows < 0).any(axis=1)
        r = int(np.argmax(negative | ~(off <= ROW_TOL)))
        if negative[r]:
            raise NegativeProbability(f"{where} row {r} has a negative entry")
        raise RowSumError(where, r, float(totals[r]))
    pinned = mask.reshape(rows.shape)
    if rows.any(where=pinned):
        r = int(np.nonzero(pinned & (rows != 0.0))[0][0])
        raise InvalidParameter(f"{where} row {r} has a non-zero value at a structural zero")
    if worst > 1e-12:
        renorm = off > 1e-12
        rows[renorm] /= totals[renorm, None]
    return _freeze(a)


@dataclass(frozen=True)
class HmmModel:
    """Hidden Markov model for C-channel categorical observations.

    ``*_mask`` arrays mark structural zeros (True = fixed at exactly 0).
    """

    state_names: tuple[str, ...]
    channel_names: tuple[str, ...]
    alphabets: tuple[Alphabet, ...]
    initial: np.ndarray = field(repr=False)
    transition: np.ndarray = field(repr=False)
    emissions: tuple[np.ndarray, ...] = field(repr=False)
    initial_mask: np.ndarray = field(repr=False)
    transition_mask: np.ndarray = field(repr=False)
    emission_masks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        S = len(self.state_names)
        # copies, so no caller keeps a writable handle on a model's arrays
        initial = np.array(self.initial, dtype=float)
        transition = np.array(self.transition, dtype=float)
        emissions = tuple(np.array(b, dtype=float) for b in self.emissions)
        imask = _freeze(np.array(self.initial_mask, dtype=bool))
        tmask = _freeze(np.array(self.transition_mask, dtype=bool))
        emasks = tuple(_freeze(np.array(m, dtype=bool)) for m in self.emission_masks)
        if initial.shape != (S,) or transition.shape != (S, S):
            raise DimensionMismatch(
                f"initial/transition shapes {initial.shape}/{transition.shape} "
                f"inconsistent with {S} states"
            )
        if not len(emissions) == len(emasks) == len(self.alphabets) == len(self.channel_names):
            raise DimensionMismatch(
                f"{len(emissions)} emission matrices, {len(emasks)} masks, {len(self.alphabets)} "
                f"alphabets and {len(self.channel_names)} channel names; need one per channel"
            )
        if len(set(self.state_names)) != S:
            raise DuplicateLabel(f"duplicate state names: {tuple(self.state_names)}")
        if len(set(self.channel_names)) != len(self.channel_names):
            # simulate writes one dataset_<name>.csv per channel
            raise DuplicateLabel(f"duplicate channel names: {tuple(self.channel_names)}")
        for c, (b, a) in enumerate(zip(emissions, self.alphabets)):
            if b.shape != (S, a.size):
                raise DimensionMismatch(
                    f"emission[{c}] shape {b.shape}, expected ({S}, {a.size})"
                )
        initial = _checked_rows(initial, imask, "initial")
        transition = _checked_rows(transition, tmask, "transition")
        emissions = tuple(
            _checked_rows(b, m, f"emission[{c}]")
            for c, (b, m) in enumerate(zip(emissions, emasks))
        )
        object.__setattr__(self, "state_names", tuple(self.state_names))
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        object.__setattr__(self, "alphabets", tuple(self.alphabets))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "emissions", emissions)
        object.__setattr__(self, "initial_mask", imask)
        object.__setattr__(self, "transition_mask", tmask)
        object.__setattr__(self, "emission_masks", emasks)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    def with_params(self, initial=None, transition=None, emissions=None) -> "HmmModel":
        """Copy with updated parameter values, checked like any new model;
        masks are preserved."""
        return replace(
            self,
            initial=self.initial if initial is None else initial,
            transition=self.transition if transition is None else transition,
            emissions=self.emissions if emissions is None else tuple(emissions),
        )


@dataclass(frozen=True)
class MixtureModel:
    """K cluster HMMs plus multinomial-logit coefficients for cluster priors.

    ``gamma`` is Q x K; the first column is the reference and fixed at zero.
    """

    clusters: tuple[HmmModel, ...]
    cluster_names: tuple[str, ...]
    gamma: np.ndarray = field(repr=False)
    design_names: tuple[str, ...] = ("(Intercept)",)

    def __post_init__(self):
        clusters = tuple(self.clusters)
        gamma = _freeze(np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "cluster_names", tuple(self.cluster_names))
        object.__setattr__(self, "design_names", tuple(self.design_names))
        object.__setattr__(self, "gamma", gamma)
        if not clusters:
            raise DimensionMismatch("mixture needs at least one cluster")
        if len(self.cluster_names) != len(clusters):
            raise DimensionMismatch("one name per cluster required")
        if len(set(self.cluster_names)) != len(clusters):
            raise DuplicateLabel(f"duplicate cluster names: {self.cluster_names}")
        if len(set(self.design_names)) != len(self.design_names):
            raise DuplicateLabel(f"duplicate covariate names: {self.design_names}")
        combined = _state_space(self).names
        if len(set(combined)) != len(combined):
            twice = sorted({name for name in combined if combined.count(name) > 1})
            raise DuplicateLabel(f"combined state names {twice} name more than one state")
        ref = clusters[0]
        for m in clusters[1:]:
            if m.channel_names != ref.channel_names or m.alphabets != ref.alphabets:
                raise DimensionMismatch("clusters must share channels and alphabets")
        if gamma.shape != (len(self.design_names), len(clusters)):
            raise DimensionMismatch(
                f"gamma shape {gamma.shape}, expected "
                f"({len(self.design_names)}, {len(clusters)})"
            )
        if not np.all(np.isfinite(gamma)):
            raise InvalidParameter("gamma has a non-finite coefficient")
        if np.any(gamma[:, 0] != 0.0):
            raise GammaReferenceNotZero("first gamma column is the reference; must be 0")

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_states_total(self) -> int:
        return _state_space(self).bounds[-1]

    @property
    def state_offsets(self) -> tuple[int, ...]:
        """Start index of each cluster's block in the combined state space."""
        return _state_space(self).bounds[:-1]


@dataclass(frozen=True)
class ParamCount:
    p: int
    nobs: float


Model = Union[HmmModel, MixtureModel]


class _StateSpace(NamedTuple):
    hmms: tuple[HmmModel, ...]  # the cluster HMMs; a plain HMM is one cluster
    names: tuple[str, ...]  # "cluster:state" for a mixture; an HMM's own names
    owners: tuple[int, ...]  # the index of the cluster each state belongs to
    bounds: tuple[int, ...]  # cluster k's states are bounds[k]:bounds[k + 1]


def _bounds(hmms) -> tuple[int, ...]:
    """The K + 1 block bounds of clusters ``hmms`` side by side."""
    return tuple(np.cumsum([0, *(h.n_states for h in hmms)]).tolist())


def _state_space(m: Model) -> _StateSpace:
    """A model's states side by side: state s of cluster k is ``bounds[k] + s``."""
    if not isinstance(m, MixtureModel):
        return _StateSpace((m,), m.state_names, (0,) * m.n_states, (0, m.n_states))
    names = tuple(f"{c}:{s}" for c, h in zip(m.cluster_names, m.clusters) for s in h.state_names)
    owners = tuple(k for k, h in enumerate(m.clusters) for _ in h.state_names)
    return _StateSpace(m.clusters, names, owners, _bounds(m.clusters))


def _subject_initials(mix: MixtureModel, w: np.ndarray) -> list[np.ndarray]:
    """Per cluster k the (N, S_k) initial array w_ik * pi^k, for weights ``w`` (N, K)."""
    return [w[:, k : k + 1] * h.initial for k, h in enumerate(mix.clusters)]


# ----------------------------------------------------------------------
# probability rows: the one layout every row-wise operation walks
# ----------------------------------------------------------------------


class _Block(NamedTuple):
    cluster: int  # 0 for a plain HMM
    where: str  # "initial", "transition" or "emission[c]", as errors name it
    values: np.ndarray  # (rows, width); the initial vector is one row
    mask: np.ndarray  # structural zeros, same shape


def _blocks(m: Model) -> list[_Block]:
    """A model's probability arrays in layout order: per cluster the initial
    vector, the transition matrix, then each channel's emission matrix.
    Values and masks are read-only views of the model's arrays."""
    blocks = []
    for k, h in enumerate(_state_space(m).hmms):
        blocks.append(_Block(k, "initial", h.initial[None], h.initial_mask[None]))
        blocks.append(_Block(k, "transition", h.transition, h.transition_mask))
        blocks += [
            _Block(k, f"emission[{c}]", b, mk)
            for c, (b, mk) in enumerate(zip(h.emissions, h.emission_masks))
        ]
    return blocks


def _with_blocks(m: Model, values, masks=None, gamma=None) -> Model:
    """``m`` with new per-block values in ``_blocks`` order, and new masks or
    a mixture's new ``gamma`` when given; checked like any new model."""
    hmms = _state_space(m).hmms
    n = 2 + hmms[0].n_channels
    rebuilt = []
    for k, h in enumerate(hmms):
        (initial,), transition, *emissions = values[k * n : (k + 1) * n]
        fields = dict(initial=initial, transition=transition, emissions=tuple(emissions))
        if masks is not None:
            (imask,), tmask, *emasks = masks[k * n : (k + 1) * n]
            fields.update(initial_mask=imask, transition_mask=tmask, emission_masks=tuple(emasks))
        rebuilt.append(replace(h, **fields))
    if not isinstance(m, MixtureModel):
        return rebuilt[0]
    return replace(m, clusters=tuple(rebuilt), gamma=m.gamma if gamma is None else gamma)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def _data_meta(data_meta) -> tuple[tuple[Alphabet, ...], tuple[str, ...]]:
    """The alphabets and channel names a builder reads from ``data_meta``: a
    dataset's, one alphabet's, or a list or tuple of alphabets'; anything
    else raises InvalidParameter."""
    if isinstance(data_meta, SequenceDataset):
        return data_meta.alphabets, data_meta.channel_names
    if isinstance(data_meta, Alphabet):
        return (data_meta,), ("Channel 1",)
    if isinstance(data_meta, (list, tuple)) and all(isinstance(a, Alphabet) for a in data_meta):
        return tuple(data_meta), tuple(f"Channel {c + 1}" for c in range(len(data_meta)))
    raise InvalidParameter(
        "data_meta must be a SequenceDataset, an Alphabet or a list or tuple of Alphabets, "
        f"got {data_meta!r:.40}"
    )


def build_hmm(
    data_meta,
    initial=None,
    transition=None,
    emissions=None,
    n_states: Optional[int] = None,
    state_names: Optional[Sequence[str]] = None,
    channel_names: Optional[Sequence[str]] = None,
    rng_seed: Optional[int] = None,
) -> HmmModel:
    """Construct a validated HMM from explicit parameters or a random start.

    Either pass the full (initial, transition, emissions) set, or pass
    ``n_states`` alone to draw every row from a symmetric Dirichlet(1)
    seeded by ``rng_seed``.  Zero entries in supplied parameters become
    structural zeros; random initialization generates dense rows.

    Parameters
    ----------
    data_meta : SequenceDataset, Alphabet, or list or tuple of Alphabet
        Channel alphabets (and names, when a dataset is given); a bare
        Alphabet is one channel, named "Channel 1".  Anything else raises
        InvalidParameter.
    emissions : matrix or list of matrices
        One S x M_c row-stochastic matrix per channel; a bare matrix is
        accepted for single-channel models.
    """
    alphabets, default_channels = _data_meta(data_meta)
    have_params = initial is not None or transition is not None or emissions is not None
    if have_params:
        if initial is None or transition is None or emissions is None:
            raise DimensionMismatch(
                "initial, transition, and emissions must be given together"
            )
        if isinstance(emissions, np.ndarray) and emissions.ndim == 2:
            emissions = [emissions]
        elif isinstance(emissions, (list, tuple)) and emissions and np.ndim(emissions[0]) != 2:
            emissions = [np.asarray(emissions)]
        initial = np.asarray(initial, dtype=float)
        transition = np.asarray(transition, dtype=float)
        emissions = [np.asarray(b, dtype=float) for b in emissions]
    else:
        S = check_count(n_states, "n_states", 1)
        rng = np.random.default_rng(check_count(rng_seed, "rng_seed", 0, optional=True))
        initial = rng.dirichlet(np.ones(S))
        transition = rng.dirichlet(np.ones(S), size=S)
        emissions = [rng.dirichlet(np.ones(a.size), size=S) for a in alphabets]

    if state_names is None:
        state_names = tuple(f"State {s + 1}" for s in range(initial.shape[0]))
    return HmmModel(
        state_names=tuple(state_names),
        channel_names=tuple(default_channels if channel_names is None else channel_names),
        alphabets=alphabets,
        initial=initial,
        transition=transition,
        emissions=tuple(emissions),
        initial_mask=initial == 0.0,
        transition_mask=transition == 0.0,
        emission_masks=tuple(b == 0.0 for b in emissions),
    )


def build_mm(data: SequenceDataset) -> HmmModel:
    """Markov model: states mirror the observed alphabet, emissions are identity.

    Initial probabilities are the relative frequencies of each subject's
    first observed state; transition probabilities are normalized counts of
    adjacent observed pairs (pairs spanning a missing gap are skipped).
    States without outgoing transitions fall back to a self-loop.
    """
    if check_instance(data, SequenceDataset, "build_mm").n_channels != 1:
        raise MultichannelNotAllowed("the data must be in a single-channel format")
    ch = data.channels[0]
    M = ch.alphabet.size
    codes, observed = ch.codes, ch.observed

    seen = observed.any(axis=1)
    first_counts = np.bincount(codes[seen, observed[seen].argmax(axis=1)], minlength=M)
    total = first_counts.sum()
    initial = first_counts / total if total > 0 else np.full(M, 1.0 / M)

    trans_counts = np.zeros((M, M))
    both = observed[:, :-1] & observed[:, 1:]
    np.add.at(trans_counts, (codes[:, :-1][both], codes[:, 1:][both]), 1.0)
    totals = trans_counts.sum(axis=1, keepdims=True)
    transition = np.divide(trans_counts, totals, out=np.eye(M), where=totals > 0)

    return build_hmm(data, initial, transition, [np.eye(M)], state_names=ch.alphabet.labels)


def build_mhmm(
    clusters: Sequence,
    covariates: Optional[CovariateDesign] = None,
    gamma=None,
    cluster_names: Optional[Sequence[str]] = None,
    alphabets: Optional[Sequence[Alphabet]] = None,
    channel_names: Optional[Sequence[str]] = None,
) -> MixtureModel:
    """Assemble a mixture of HMMs.

    ``clusters`` may hold ready-built ``HmmModel`` objects or raw
    ``(initial, transition, emissions)`` triples (the latter require
    ``alphabets``).  Without covariates the design is intercept-only;
    without ``gamma`` all coefficients start at zero (uniform priors).
    """
    built = []
    for spec in clusters:
        if isinstance(spec, HmmModel):
            built.append(spec)
        else:
            if alphabets is None:
                raise DimensionMismatch("raw cluster triples require alphabets")
            init, trans, emis = spec
            built.append(
                build_hmm(
                    alphabets,
                    initial=init,
                    transition=trans,
                    emissions=emis,
                    channel_names=channel_names,
                )
            )
    K = len(built)
    if cluster_names is None:
        cluster_names = tuple(f"Cluster {k + 1}" for k in range(K))
    design_names = ("(Intercept)",)
    if covariates is not None:
        design_names = check_instance(covariates, CovariateDesign, "build_mhmm").names
    if gamma is None:
        gamma = np.zeros((len(design_names), K))
    return MixtureModel(
        clusters=tuple(built),
        cluster_names=tuple(cluster_names),
        gamma=np.asarray(gamma, dtype=float),
        design_names=design_names,
    )


def build_restricted_mixture(
    kind: str,
    data_meta,
    n_clusters: int,
    covariates: Optional[CovariateDesign] = None,
    rng_seed: Optional[int] = None,
) -> MixtureModel:
    """Build an MMM (identity emissions) or LCM (one state per cluster).

    MMM clusters get free Dirichlet(1) initial and transition rows with
    fixed identity emissions; they require single-channel data.  LCM
    clusters have one hidden state, a transition fixed to the scalar 1,
    and free emission rows; any channel count is allowed.
    """
    kind = check_text(kind, "kind", ("mmm", "lcm"))
    n_clusters = check_count(n_clusters, "n_clusters", 1)
    alphabets, channel_names = _data_meta(data_meta)
    rng = np.random.default_rng(check_count(rng_seed, "rng_seed", 0, optional=True))
    if kind == "mmm":
        if len(alphabets) != 1:
            raise MultichannelNotAllowed("the data must be in a single-channel format")
        M = alphabets[0].size
        clusters = [
            build_hmm(
                alphabets,
                rng.dirichlet(np.ones(M)),
                rng.dirichlet(np.ones(M), size=M),
                [np.eye(M)],
                state_names=alphabets[0].labels,
                channel_names=channel_names,
            )
            for _ in range(n_clusters)
        ]
    else:
        clusters = [
            build_hmm(
                alphabets,
                np.ones(1),
                np.ones((1, 1)),
                [rng.dirichlet(np.ones(a.size), size=1) for a in alphabets],
                channel_names=channel_names,
            )
            for _ in range(n_clusters)
        ]
    return build_mhmm(clusters, covariates=covariates)


# ----------------------------------------------------------------------
# mixture weights and cluster combination
# ----------------------------------------------------------------------


def mixture_weights(gamma: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Multinomial-logit prior cluster probabilities, overflow-safe.

    Row i is softmax(x_i' gamma) with the first column as zero reference.
    """
    logits = X @ gamma
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _gamma_hessian(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hessian of the expected multinomial-logit term over free gamma columns."""
    N, Q = X.shape
    K1 = w.shape[1] - 1
    H = np.empty((Q * K1, Q * K1))
    for a in range(K1):
        for b in range(K1):
            coef = w[:, a + 1] * ((1.0 if a == b else 0.0) - w[:, b + 1])
            H[a * Q : (a + 1) * Q, b * Q : (b + 1) * Q] = -(X.T @ (X * coef[:, None]))
    return H


def _mixture_design(
    m: Model, n_subjects: int, design: Optional[CovariateDesign]
) -> Optional[CovariateDesign]:
    """The design ``m`` evaluates ``n_subjects`` subjects under: None for an
    HMM; for a mixture ``design``, checked against the model's covariates, or
    the intercept when none is given."""
    if not isinstance(m, MixtureModel):
        return None
    if design is None:
        if len(m.design_names) != 1:
            raise DegenerateData(
                f"mixture with covariates {m.design_names[1:]} needs a design matrix"
            )
        return CovariateDesign.intercept(n_subjects)
    check_instance(design, CovariateDesign, "the design argument")
    if design.n_subjects != n_subjects:
        raise ShapeMismatch(f"{design.n_subjects} design rows for {n_subjects} subjects")
    if design.names != m.design_names:
        raise AlphabetMismatch(
            f"design columns {design.names} do not match model covariates "
            f"{m.design_names}"
        )
    return design


def _prior_weights(m: Model, design: Optional[CovariateDesign], caller: str) -> np.ndarray:
    """Prior cluster probabilities w_ik for a function given a mixture and a
    design alone, whose rows are the subjects: any other model raises
    InvalidParameter, and no design DegenerateData."""
    check_instance(m, MixtureModel, caller)
    if design is None:
        raise DegenerateData(f"{caller} needs a covariate design, one row per subject")
    check_instance(design, CovariateDesign, caller)
    return mixture_weights(m.gamma, _mixture_design(m, design.n_subjects, design).X)


def combine_clusters(
    mix: MixtureModel, design: CovariateDesign
) -> tuple[HmmModel, np.ndarray]:
    """Embed a mixture as one HMM with a block-diagonal transition matrix.

    Transitions between clusters are impossible: off-diagonal blocks are
    exact structural zeros.  Returns the combined model together with the
    per-subject initial vectors (w_i1*pi^1, ..., w_iK*pi^K).
    """
    w = _prior_weights(mix, design, "combine_clusters")
    if w.shape[0] == 0:
        raise DimensionMismatch("the covariate design has no rows; it needs one per subject")
    hmms, names, owners, _ = _state_space(mix)
    within = np.equal.outer(owners, owners)  # the diagonal blocks, row by row
    transition, tmask = np.zeros(within.shape), ~within
    transition[within] = np.concatenate([h.transition.ravel() for h in hmms])
    tmask[within] = np.concatenate([h.transition_mask.ravel() for h in hmms])
    subject_initials = np.hstack(_subject_initials(mix, w))
    combined = HmmModel(
        state_names=names,
        channel_names=hmms[0].channel_names,
        alphabets=hmms[0].alphabets,
        initial=subject_initials.mean(axis=0),
        transition=transition,
        emissions=tuple(np.vstack(b) for b in zip(*(h.emissions for h in hmms))),
        initial_mask=np.concatenate([h.initial_mask for h in hmms]),
        transition_mask=tmask,
        emission_masks=tuple(np.vstack(b) for b in zip(*(h.emission_masks for h in hmms))),
    )
    return combined, subject_initials


def separate_clusters(mix: MixtureModel) -> list[HmmModel]:
    """Return the K cluster submodels as standalone HMMs."""
    return list(check_instance(mix, MixtureModel, "separate_clusters").clusters)


# ----------------------------------------------------------------------
# trimming and parameter counting
# ----------------------------------------------------------------------


def trim_model(m: Model, tol: float) -> Model:
    """Zero out probabilities below ``tol``, mark them structural, renormalize.

    ``tol=0`` returns the model unchanged.  Raises ``RowAnnihilated`` if a
    whole row falls below the threshold.  A row is renormalized only when
    a dropped entry held probability.
    """
    check_instance(m, (HmmModel, MixtureModel), "trim_model")
    tol = check_real(tol, "tol", 0, np.inf)
    if tol == 0:
        return m
    values, masks = [], []
    for b in _blocks(m):
        drop = b.values < tol
        dead = drop.all(axis=-1)
        if dead.any():
            raise RowAnnihilated(f"{b.where} row {np.argmax(dead)}: every entry below tol={tol}")
        kept = np.where(drop, 0.0, b.values)
        renorm = (drop & (b.values > 0)).any(axis=-1)
        kept[renorm] /= kept[renorm].sum(axis=-1, keepdims=True)
        values.append(kept)
        masks.append(b.mask | drop)
    return _with_blocks(m, values, masks)


def count_parameters(m: Model, data: SequenceDataset) -> ParamCount:
    """Free parameter count (sum-to-one and structural-zero adjusted) and
    the missing-adjusted data size used by information criteria."""
    check_instance(m, (HmmModel, MixtureModel), "count_parameters")
    check_instance(data, SequenceDataset, "count_parameters")
    # every row has a free entry (a row of structural zeros cannot sum to 1)
    p = sum(int((~b.mask).sum()) - len(b.mask) for b in _blocks(m))
    if isinstance(m, MixtureModel):
        p += len(m.design_names) * (m.n_clusters - 1)
    return ParamCount(p=p, nobs=effective_size(data))


# ----------------------------------------------------------------------
# serialization (probabilities as decimal text, >= 17 significant digits)
# ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_array(a: np.ndarray):
    if a.ndim == 1:
        return [_fmt(x) for x in a]
    return [_fmt_array(row) for row in a]


def _nested(rows, where: str):
    """Shape and row-major leaves of a JSON value: a number, or equal-length
    lists nested to any depth, walked one level at a time.  Ragged rows
    raise ``ShapeMismatch``."""
    shape, level = (), [rows]
    while any(isinstance(r, list) for r in level):
        if not all(isinstance(r, list) and len(r) == len(level[0]) for r in level):
            raise ShapeMismatch(f"{where} has rows of unequal length")
        shape += (len(level[0]),)
        level = [v for r in level for v in r]
    return shape, level


def _is_number(v) -> bool:
    """Whether numpy reads JSON value ``v`` as a float (null reads as NaN,
    which the model checks reject); a boolean is not a number."""
    try:
        np.float64(v)
    except (TypeError, ValueError, OverflowError):
        return False
    return not isinstance(v, bool)


def _parse_array(rows, where: str) -> np.ndarray:
    """Probabilities or coefficients: numbers or decimal text, as written by
    ``_fmt_array``."""
    _, leaves = _nested(rows, where)
    for v in leaves:
        if not _is_number(v):
            raise InvalidParameter(f"{where} entry {v!r} is not a number")
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(f"{where} is not an array of numbers") from None


def _parse_mask(rows, where: str) -> np.ndarray:
    """Structural-zero flags: JSON booleans or the integers 0 and 1."""
    shape, leaves = _nested(rows, where)
    for v in leaves:
        if not (isinstance(v, int) and v in (0, 1)):
            raise InvalidParameter(f"{where} mask entry {v!r} is not a boolean, 0 or 1")
    if len(shape) > 2:  # as HmmModel would; numpy cannot shape a mask of 33 or more axes
        raise DimensionMismatch(f"{where} mask has {len(shape)} axes, expected at most 2")
    return np.array(leaves, dtype=bool).reshape(shape)


def _mask_array(a: np.ndarray):
    return np.asarray(a, dtype=int).tolist()


def _hmm_to_json(m: HmmModel) -> dict:
    return {
        "type": "hmm",
        "state_names": list(m.state_names),
        "channel_names": list(m.channel_names),
        "alphabets": [
            {"labels": list(a.labels), "missing_token": a.missing_token}
            for a in m.alphabets
        ],
        "initial": _fmt_array(m.initial),
        "transition": _fmt_array(m.transition),
        "emissions": [_fmt_array(b) for b in m.emissions],
        "zero_mask": {
            "initial": _mask_array(m.initial_mask),
            "transition": _mask_array(m.transition_mask),
            "emissions": [_mask_array(mask) for mask in m.emission_masks],
        },
    }


def _hmm_from_json(doc, where: str) -> HmmModel:
    """The HMM of a model document; see ``model_from_json``."""
    keys = ("state_names", "channel_names", "alphabets", "initial", "transition", "emissions")
    doc = _object(doc, where, keys + ("zero_mask",))
    if doc.get("type", "hmm") != "hmm":  # a cluster's own type, where it has one
        raise InvalidParameter(f"{where}: 'type' {doc['type']!r} is not 'hmm'")
    masks = _object(doc["zero_mask"], f"{where}: 'zero_mask'", keys[3:])
    return HmmModel(
        state_names=_strings(doc["state_names"], f"{where}: 'state_names'"),
        channel_names=_strings(doc["channel_names"], f"{where}: 'channel_names'"),
        alphabets=tuple(
            _alphabet(a, "labels", f"{where}: alphabet {c}")
            for c, a in enumerate(_list(doc["alphabets"], f"{where}: 'alphabets'"))
        ),
        initial=_parse_array(doc["initial"], f"{where}: initial"),
        transition=_parse_array(doc["transition"], f"{where}: transition"),
        emissions=tuple(
            _parse_array(b, f"{where}: emission[{c}]")
            for c, b in enumerate(_list(doc["emissions"], f"{where}: 'emissions'"))
        ),
        initial_mask=_parse_mask(masks["initial"], f"{where}: initial"),
        transition_mask=_parse_mask(masks["transition"], f"{where}: transition"),
        emission_masks=tuple(
            _parse_mask(mk, f"{where}: emission[{c}]")
            for c, mk in enumerate(_list(masks["emissions"], f"{where}: mask 'emissions'"))
        ),
    )


def model_to_json(m: Model) -> dict:
    """Lossless JSON form of a model (floats rendered with 17 significant digits)."""
    check_instance(m, (HmmModel, MixtureModel), "model_to_json")
    if isinstance(m, MixtureModel):
        return {
            "type": "mhmm",
            "cluster_names": list(m.cluster_names),
            "covariate_names": list(m.design_names),
            "gamma": _fmt_array(m.gamma),
            "clusters": [_hmm_to_json(c) for c in m.clusters],
        }
    return _hmm_to_json(m)


def model_from_json(doc) -> Model:
    """The model a ``model_to_json`` document describes.

    A document of the wrong structure (not an object, a key missing, a list
    that is something else) raises ShapeMismatch; a ``type`` other than
    ``"hmm"`` (the default) or ``"mhmm"``, a cluster document's ``type``
    other than ``"hmm"``, a name or token that is not a string, or an array
    entry that is not a number InvalidParameter; values
    are then checked as for any model.
    """
    doc = _object(doc, "model document")
    kind = doc.get("type", "hmm")
    if kind not in ("hmm", "mhmm"):
        raise InvalidParameter(f"model document 'type' {kind!r} is neither 'hmm' nor 'mhmm'")
    if kind == "hmm":
        return _hmm_from_json(doc, "model document")
    keys = ("clusters", "cluster_names", "gamma", "covariate_names")
    doc = _object(doc, "mixture document", keys)
    return MixtureModel(
        clusters=tuple(
            _hmm_from_json(c, f"cluster {k}")
            for k, c in enumerate(_list(doc["clusters"], "mixture document: 'clusters'"))
        ),
        cluster_names=_strings(doc["cluster_names"], "mixture document: 'cluster_names'"),
        gamma=_parse_array(doc["gamma"], "gamma"),
        design_names=_strings(doc["covariate_names"], "mixture document: 'covariate_names'"),
    )
