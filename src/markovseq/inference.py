"""Exact likelihood, posterior, and decoding computations for fixed parameters.

Two numerical modes are supported: "scaled" renormalizes the forward
variables at every time point (the default, fastest), "log" keeps all
quantities on the log scale (slower, robust to zero probabilities).  Both
modes agree on per-subject log-likelihoods to well below 1e-9.

Scaled mode runs one kernel, ``_scaled_pass``, over fixed 512-subject
chunks in time-major (T, n, S) layout; it serves log-likelihoods, full
forward-backward results and the E-step statistics.  Worker threads only
pick up whole chunks, each chunk writes its own subjects' rows or its own
partial sums, and the partial sums are added in chunk order, so results
are bit-identical for any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import logsumexp

from .errors import (
    AlphabetMismatch,
    DegenerateData,
    ImpossibleData,
    NonInvertibleHessian,
    NumericalUnderflow,
)
from .model import (
    HmmModel,
    MixtureModel,
    combine_clusters,
    count_parameters,
    mixture_weights,
)
from .seqdata import MISSING, CovariateDesign, SequenceDataset

Model = Union[HmmModel, MixtureModel]

# Chunk size is fixed (not derived from the thread count) so that per-subject
# floating-point results never depend on how work was distributed.
_CHUNK = 512


def _normalize_mode(mode: str) -> str:
    m = mode.lower()
    if m in ("scaled", "scaling"):
        return "scaled"
    if m in ("log", "logspace", "log_space"):
        return "log"
    raise ValueError(f"unknown mode {mode!r}")


def _check_compatible(model: HmmModel, data: SequenceDataset) -> None:
    if isinstance(model, MixtureModel):
        raise AlphabetMismatch(
            "mixtures have no single state space here; embed one with "
            "combine_clusters or call the mixture-aware operations"
        )
    if model.n_channels != data.n_channels:
        raise AlphabetMismatch(
            f"model has {model.n_channels} channels, data has {data.n_channels}"
        )
    for c, (ma, da) in enumerate(zip(model.alphabets, data.alphabets)):
        if ma.labels != da.labels:
            raise AlphabetMismatch(
                f"channel {c}: model alphabet {ma.labels} != data alphabet {da.labels}"
            )


def _chunk_spans(n: int) -> list[tuple[int, int]]:
    return [(a, min(a + _CHUNK, n)) for a in range(0, max(n, 1), _CHUNK)]


def _run_chunked(fn, n_subjects: int, threads: int) -> None:
    """Call ``fn(k, (a, b))`` for every chunk k, which covers subjects a..b-1."""
    spans = _chunk_spans(n_subjects)
    if threads <= 1 or len(spans) == 1:
        for k, span in enumerate(spans):
            fn(k, span)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # list() propagates the first worker exception to the caller
            list(pool.map(fn, range(len(spans)), spans))


def _emission_tables(model: HmmModel) -> list[np.ndarray]:
    """Per channel an (M_c + 1, S) table indexed by code.

    Row m holds b_s(m) for every state s; the last row, which code MISSING
    (-1) selects, is all ones: an unobserved cell carries no state
    information.
    """
    return [np.vstack([b.T, np.ones(model.n_states)]) for b in model.emissions]


def _lookup_emissions(tables, codes) -> np.ndarray:
    """Product over channels of the table rows the codes select."""
    out = np.take(tables[0], codes[0], axis=0)
    for table, c in zip(tables[1:], codes[1:]):
        out *= np.take(table, c, axis=0)
    return out


def emission_probs(model: HmmModel, data: SequenceDataset) -> np.ndarray:
    """Joint emission probability per (subject, time, state).

    Product over channels of b_s(y_itc); a missing channel contributes a
    factor of 1 (an unobserved cell carries no state information).
    """
    return _lookup_emissions(_emission_tables(model), [ch.codes for ch in data.channels])


def _log_emission_probs(model: HmmModel, data: SequenceDataset) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(emission_probs(model, data))


@dataclass(frozen=True)
class FBResult:
    """Forward/backward quantities for every subject.

    In scaled mode ``alpha[i, t]`` sums to 1, ``beta`` is scaled by the
    same per-time constants (so ``alpha * beta`` is the state posterior)
    and ``loglik_per_subject[i] == log(scaling[i]).sum()``.  In log mode
    ``alpha``/``beta`` hold log values and ``scaling`` is None.
    """

    mode: str
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    scaling: Optional[np.ndarray] = field(repr=False)
    loglik_per_subject: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ViterbiResult:
    """Most probable hidden paths and their joint log-probabilities."""

    paths: np.ndarray = field(repr=False)
    log_joint: np.ndarray = field(repr=False)
    clusters: Optional[np.ndarray] = field(default=None, repr=False)


def _resolve_initials(model, data, subject_initials):
    if subject_initials is None:
        return np.broadcast_to(model.initial, (data.n_subjects, model.n_states))
    subject_initials = np.asarray(subject_initials, dtype=float)
    if subject_initials.shape != (data.n_subjects, model.n_states):
        raise AlphabetMismatch(
            f"subject_initials shape {subject_initials.shape}, expected "
            f"({data.n_subjects}, {model.n_states})"
        )
    return subject_initials


def _check_normalizers(c: np.ndarray, data: SequenceDataset, a: int) -> None:
    """Raise for the first (t, subject) of a chunk whose forward normalizer is
    zero, negative or not finite; ``c`` is (T, n) for subjects a, a+1, ..."""
    bad = ~((c > 0) & (c < np.inf))
    if np.any(bad):
        t, j = np.argwhere(bad)[0]
        what = "zero" if c[t, j] == 0 else f"invalid ({c[t, j]!r})"
        raise NumericalUnderflow(
            f"{what} forward normalizer for subject {data.subject_ids[a + j]!r} "
            f"at t={t}; consider mode='log'"
        )


def _scaled_pass(model, data, init, threads=1, want="loglik"):
    """The scaled forward-backward kernel.

    Each fixed chunk of subjects is processed in time-major (T, n, S)
    layout: its emission table is looked up from ``_emission_tables``, the
    forward pass renormalizes alpha at every t, and the backward pass
    scales beta by the same constants.  ``want`` selects what comes back:

    * ``"loglik"``: per-subject log-likelihoods (N,); forward pass only.
    * ``"full"``: ``(alpha, beta, scaling, loglik)`` in the public
      (N, T, S) / (N, T) layout of ``FBResult``.
    * ``"stats"``: ``(loglik, gamma1, xi, emis_num)``: the t=0 posterior
      (N, S), expected transition counts (S, S) and per channel emission
      numerators (S, M_c), both summed over subjects.  Each chunk reduces
      its own statistics; the partial sums are added in chunk order.

    Raises NumericalUnderflow naming the subject and t of the first
    normalizer that is zero, negative or not finite.
    """
    N, T, S = data.n_subjects, data.n_time, model.n_states
    A = model.transition
    tables = _emission_tables(model)
    codes = [ch.codes for ch in data.channels]
    loglik = np.empty(N)
    if want == "full":
        alpha_out, beta_out = np.empty((N, T, S)), np.empty((N, T, S))
        scaling_out = np.empty((N, T))
    elif want == "stats":
        gamma1 = np.empty((N, S))
        parts: list = [None] * len(_chunk_spans(N))

    def work(k, span):
        a, b = span
        chunk_codes = [c[a:b].T for c in codes]  # (T, n)
        e = _lookup_emissions(tables, chunk_codes)
        alpha = np.empty_like(e)
        scaling = np.empty(e.shape[:2])
        ones = np.ones(S)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = init[a:b] * e[0]
            for t in range(T):
                if t:
                    np.matmul(alpha[t - 1], A, out=x)
                    x *= e[t]
                np.matmul(x, ones, out=scaling[t])
                np.divide(x, scaling[t, :, None], out=alpha[t])
        _check_normalizers(scaling, data, a)
        loglik[a:b] = np.log(scaling).sum(axis=0)
        if want == "loglik":
            return
        # W[t] = e[t+1] * beta[t+1] / scaling[t+1], so beta[t] = W[t] @ A.T
        beta = np.empty_like(e)
        beta[T - 1] = 1.0
        W = np.empty_like(e[1:])
        for t in range(T - 2, -1, -1):
            np.multiply(e[t + 1], beta[t + 1], out=W[t])
            W[t] /= scaling[t + 1, :, None]
            np.matmul(W[t], A.T, out=beta[t])
        if want == "full":
            alpha_out[a:b] = alpha.transpose(1, 0, 2)
            beta_out[a:b] = beta.transpose(1, 0, 2)
            scaling_out[a:b] = scaling.T
            return
        gamma = alpha * beta
        gamma1[a:b] = gamma[0]
        xi = (alpha[:-1].reshape(-1, S).T @ W.reshape(-1, S)) * A
        g = gamma.reshape(-1, S)
        nums = []
        for table, c in zip(tables, chunk_codes):
            M = table.shape[0] - 1
            idx = np.where(c == MISSING, M, c).ravel()
            nums.append(
                np.stack([np.bincount(idx, g[:, s], M + 1)[:M] for s in range(S)])
            )
        parts[k] = (xi, nums)

    _run_chunked(work, N, threads)
    if want == "loglik":
        return loglik
    if want == "full":
        return alpha_out, beta_out, scaling_out, loglik
    xi, nums = parts[0][0].copy(), [n.copy() for n in parts[0][1]]
    for part_xi, part_nums in parts[1:]:
        xi += part_xi
        for n, p in zip(nums, part_nums):
            n += p
    return loglik, gamma1, xi, nums


# The kernel's former name; perfbench/tracing.py looks it up when it installs
# its counters.
_fb_scaled = _scaled_pass


def _fb_log(model, data, init, logE, threads, want_beta=True):
    N, T, S = logE.shape
    with np.errstate(divide="ignore"):
        logA = np.log(model.transition)
        log_init = np.log(init)
    la = np.empty((N, T, S))
    lb = np.empty((N, T, S)) if want_beta else None
    loglik = np.empty(N)

    def work(k, span):
        a, b = span
        e = logE[a:b]
        la[a:b, 0] = log_init[a:b] + e[:, 0]
        for t in range(1, T):
            la[a:b, t] = (
                logsumexp(la[a:b, t - 1, :, None] + logA[None, :, :], axis=1) + e[:, t]
            )
        loglik[a:b] = logsumexp(la[a:b, T - 1], axis=1)
        if want_beta:
            lb[a:b, T - 1] = 0.0
            for t in range(T - 2, -1, -1):
                lb[a:b, t] = logsumexp(
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


def forward_backward(
    model: HmmModel,
    data: SequenceDataset,
    mode: str = "scaled",
    subject_initials=None,
    threads: int = 1,
) -> FBResult:
    """Run the forward-backward recursions for every subject.

    ``subject_initials`` overrides the model's initial vector per subject
    (used by mixture models, where initial probabilities depend on
    covariates).
    """
    mode = _normalize_mode(mode)
    _check_compatible(model, data)
    init = _resolve_initials(model, data, subject_initials)
    if mode == "scaled":
        return FBResult("scaled", *_scaled_pass(model, data, init, threads, "full"))
    logE = _log_emission_probs(model, data)
    la, lb, loglik = _fb_log(model, data, init, logE, threads)
    return FBResult("log", la, lb, None, loglik)


def _loglik_subjects(model, data, subject_initials, mode, threads) -> np.ndarray:
    """Per-subject log-likelihood via the forward pass only."""
    mode = _normalize_mode(mode)
    _check_compatible(model, data)
    init = _resolve_initials(model, data, subject_initials)
    if mode == "scaled":
        return _scaled_pass(model, data, init, threads)
    logE = _log_emission_probs(model, data)
    return _fb_log(model, data, init, logE, threads, want_beta=False)[2]


def _mixture_design(mix: MixtureModel, data, design: Optional[CovariateDesign]):
    if design is None:
        if len(mix.design_names) != 1:
            raise DegenerateData(
                "mixture with covariates needs a design matrix at inference time"
            )
        return CovariateDesign.intercept(data.n_subjects)
    if design.n_subjects != data.n_subjects:
        raise AlphabetMismatch("design rows must match the number of subjects")
    if design.names != mix.design_names:
        raise AlphabetMismatch(
            f"design columns {design.names} do not match model covariates "
            f"{mix.design_names}"
        )
    return design


def log_likelihood(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    mode: str = "scaled",
    threads: int = 1,
) -> float:
    """Total log-likelihood of the data under the model.

    Mixtures are evaluated through their combined block-diagonal embedding
    with per-subject initial vectors.
    """
    if isinstance(m, MixtureModel):
        design = _mixture_design(m, data, design)
        combined, initials = combine_clusters(m, design)
        return float(_loglik_subjects(combined, data, initials, mode, threads).sum())
    return float(_loglik_subjects(m, data, None, mode, threads).sum())


def posterior_state_probs(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    mode: str = "scaled",
    threads: int = 1,
) -> np.ndarray:
    """Posterior probability of each hidden state at each time point.

    For a mixture the state space is the combined block-diagonal one.
    Every (subject, time) slice sums to one.
    """
    if isinstance(m, MixtureModel):
        design = _mixture_design(m, data, design)
        combined, initials = combine_clusters(m, design)
        fb = forward_backward(combined, data, mode, initials, threads)
    else:
        fb = forward_backward(m, data, mode, threads=threads)
    if fb.mode == "scaled":
        return fb.alpha * fb.beta
    if np.any(np.isneginf(fb.loglik_per_subject)):
        i = int(np.argmax(np.isneginf(fb.loglik_per_subject)))
        raise NumericalUnderflow(
            f"posterior undefined: subject {data.subject_ids[i]!r} has zero likelihood"
        )
    return np.exp(fb.alpha + fb.beta - fb.loglik_per_subject[:, None, None])


def viterbi_paths(
    m: Model,
    data: SequenceDataset,
    subject_initials=None,
    design: Optional[CovariateDesign] = None,
) -> ViterbiResult:
    """Single best hidden state sequence per subject (ties -> lowest index).

    For mixtures the decoding runs on the combined model and each subject
    is allocated to the cluster whose block contains its path.
    """
    mix = None
    if isinstance(m, MixtureModel):
        mix = m
        design = _mixture_design(m, data, design)
        m, subject_initials = combine_clusters(m, design)
    _check_compatible(m, data)
    init = _resolve_initials(m, data, subject_initials)
    logE = _log_emission_probs(m, data)
    N, T, S = logE.shape
    with np.errstate(divide="ignore"):
        logA = np.log(m.transition)
        log_init = np.log(init)

    paths = np.empty((N, T), dtype=np.int64)
    log_joint = np.empty(N)
    back = np.empty((N, T, S), dtype=np.int64)
    delta = log_init + logE[:, 0]
    with np.errstate(invalid="ignore"):
        for t in range(1, T):
            cand = delta[:, :, None] + logA[None, :, :]  # (N, from, to)
            back[:, t] = np.argmax(cand, axis=1)  # first max = lowest index
            delta = np.max(cand, axis=1) + logE[:, t]
    last = np.argmax(delta, axis=1)
    log_joint = delta[np.arange(N), last]
    if np.any(np.isneginf(log_joint)):
        i = int(np.argmax(np.isneginf(log_joint)))
        raise ImpossibleData(
            f"subject {data.subject_ids[i]!r} has zero probability under the model"
        )
    paths[:, T - 1] = last
    for t in range(T - 1, 0, -1):
        paths[:, t - 1] = back[np.arange(N), t, paths[:, t]]

    clusters = None
    if mix is not None:
        offsets = np.asarray(mix.state_offsets + (mix.n_states_total,))
        clusters = np.searchsorted(offsets, paths[:, 0], side="right") - 1
    return ViterbiResult(paths=paths, log_joint=log_joint, clusters=clusters)


@dataclass(frozen=True)
class InformationCriteria:
    loglik: float
    p: int
    nobs: float
    bic: float


def information_criteria(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    mode: str = "scaled",
) -> InformationCriteria:
    """Log-likelihood, free parameter count, missing-adjusted size, and BIC.

    BIC = -2*loglik + p*log(nobs) with nobs the missing-adjusted data size.
    """
    counts = count_parameters(m, data)
    if counts.nobs == 0:
        raise DegenerateData("effective data size is zero")
    ll = log_likelihood(m, data, design, mode)
    bic = -2.0 * ll + counts.p * np.log(counts.nobs)
    return InformationCriteria(loglik=ll, p=counts.p, nobs=counts.nobs, bic=float(bic))


def cluster_prior_probs(mix: MixtureModel, design: CovariateDesign) -> np.ndarray:
    """Prior cluster membership probabilities w_ik from the covariates."""
    if design.n_columns != len(mix.design_names):
        raise AlphabetMismatch(
            f"design has {design.n_columns} columns, model expects "
            f"{len(mix.design_names)}"
        )
    return mixture_weights(mix.gamma, design.X)


def cluster_logliks(
    mix: MixtureModel, data: SequenceDataset, threads: int = 1
) -> np.ndarray:
    """log P(Y_i | cluster k) for every subject and cluster (log mode).

    Log mode keeps impossible (subject, cluster) pairs at -inf instead of
    failing, which posterior computation needs.
    """
    out = np.empty((data.n_subjects, mix.n_clusters))
    for k, sub in enumerate(mix.clusters):
        out[:, k] = _loglik_subjects(sub, data, None, "log", threads)
    return out


def cluster_posterior_probs(
    mix: MixtureModel,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    threads: int = 1,
) -> np.ndarray:
    """Posterior cluster membership probabilities; rows sum to one."""
    design = _mixture_design(mix, data, design)
    w = cluster_prior_probs(mix, design)
    with np.errstate(divide="ignore"):
        log_num = np.log(w) + cluster_logliks(mix, data, threads)
    norm = logsumexp(log_num, axis=1)
    if np.any(np.isneginf(norm)):
        i = int(np.argmax(np.isneginf(norm)))
        raise NumericalUnderflow(
            f"subject {data.subject_ids[i]!r} has zero likelihood in every cluster"
        )
    return np.exp(log_num - norm[:, None])


@dataclass(frozen=True)
class MixtureSummary:
    """Report of a fitted mixture: coefficients, fit measures, cluster tables."""

    cluster_names: tuple[str, ...]
    covariate_names: tuple[str, ...]
    gamma: np.ndarray = field(repr=False)
    gamma_se: np.ndarray = field(repr=False)
    loglik: float = 0.0
    bic: float = 0.0
    p: int = 0
    nobs: float = 0.0
    prior_means: np.ndarray = field(default=None, repr=False)
    assigned_counts: np.ndarray = field(default=None, repr=False)
    assigned_proportions: np.ndarray = field(default=None, repr=False)
    classification_table: np.ndarray = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "cluster_names": list(self.cluster_names),
            "covariate_names": list(self.covariate_names),
            "gamma": self.gamma.tolist(),
            "gamma_se": self.gamma_se.tolist(),
            "loglik": self.loglik,
            "bic": self.bic,
            "p": self.p,
            "nobs": self.nobs,
            "prior_means": self.prior_means.tolist(),
            "assigned_counts": self.assigned_counts.tolist(),
            "assigned_proportions": self.assigned_proportions.tolist(),
            "classification_table": self.classification_table.tolist(),
        }

    def to_text(self) -> str:
        lines = []
        lines.append(f"Covariate coefficients ({self.cluster_names[0]} is the reference)")
        width = max(len(n) for n in self.covariate_names) + 2
        for k in range(1, len(self.cluster_names)):
            lines.append(f"\n{self.cluster_names[k]}:")
            lines.append(f"{'':<{width}}{'estimate':>12}{'std. error':>12}")
            for q, name in enumerate(self.covariate_names):
                lines.append(
                    f"{name:<{width}}{self.gamma[q, k]:>12.4f}{self.gamma_se[q, k]:>12.4f}"
                )
        lines.append("")
        lines.append(f"Log-likelihood: {self.loglik:.6g}   BIC: {self.bic:.6g}")
        lines.append("")
        lines.append("Mean prior cluster probabilities:")
        lines.append("  " + "  ".join(self.cluster_names))
        lines.append("  " + "  ".join(f"{x:.4f}" for x in self.prior_means))
        lines.append("")
        lines.append("Most probable cluster counts:")
        lines.append("  " + "  ".join(self.cluster_names))
        lines.append("  " + "  ".join(str(int(x)) for x in self.assigned_counts))
        lines.append("  " + "  ".join(f"{x:.4f}" for x in self.assigned_proportions))
        lines.append("")
        lines.append(
            "Classification table (mean posterior probabilities in columns, "
            "by most probable cluster in rows):"
        )
        for k, name in enumerate(self.cluster_names):
            row = "  ".join(f"{x:.4f}" for x in self.classification_table[k])
            lines.append(f"  {name}: {row}")
        return "\n".join(lines) + "\n"


def mixture_summary(
    mix: MixtureModel,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    mode: str = "scaled",
) -> MixtureSummary:
    """Summarize a fitted mixture the way its print method would.

    Subjects are assigned to their most probable cluster (posterior argmax,
    ties to the lowest index); rows of the classification table with no
    assigned subjects are NaN.
    """
    from .estimation import covariate_standard_errors  # local: avoids import cycle

    design = _mixture_design(mix, data, design)
    ic = information_criteria(mix, data, design, mode)
    w = cluster_prior_probs(mix, design)
    post = cluster_posterior_probs(mix, data, design)
    assigned = np.argmax(post, axis=1)
    K = mix.n_clusters
    counts = np.bincount(assigned, minlength=K).astype(float)
    table = np.full((K, K), np.nan)
    for k in range(K):
        members = assigned == k
        if np.any(members):
            table[k] = post[members].mean(axis=0)
    try:
        se = covariate_standard_errors(mix, data, design)
    except NonInvertibleHessian:
        se = np.full_like(mix.gamma, np.nan)
        se[:, 0] = 0.0
    return MixtureSummary(
        cluster_names=mix.cluster_names,
        covariate_names=mix.design_names,
        gamma=mix.gamma,
        gamma_se=se,
        loglik=ic.loglik,
        bic=ic.bic,
        p=ic.p,
        nobs=ic.nobs,
        prior_means=w.mean(axis=0),
        assigned_counts=counts,
        assigned_proportions=counts / max(data.n_subjects, 1),
        classification_table=table,
    )
