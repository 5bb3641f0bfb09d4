"""Exact likelihood, posterior, and decoding computations for fixed parameters.

Two numerical modes are supported: "scaled" renormalizes the forward
variables at every time point (the default, fastest), "log" keeps all
quantities on the log scale (slower, robust to zero probabilities).  Both
modes agree on per-subject log-likelihoods to well below 1e-9.

Scaled mode runs one kernel, ``_scaled_pass``, over fixed 512-subject
chunks in time-major layout, all clusters of a mixture at once, each
started from w_ik * pi^k (a plain HMM is one cluster).  It serves
log-likelihoods, posteriors of clusters and states and the E-step
statistics.  Chunks write their own rows or partial sums, added in chunk
order, so results are bit-identical for any thread count.

Log mode reduces with ``_logsumexp``, a numpy log-sum-exp that returns
exactly what ``scipy.special.logsumexp`` does; importing this module
therefore loads numpy only, and scipy is left to the local step in
``estimation.fit_local``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    AlphabetMismatch,
    DegenerateData,
    ImpossibleData,
    NonInvertibleHessian,
    NumericalUnderflow,
)
from .model import HmmModel, MixtureModel, count_parameters, mixture_weights

# kept importable here: perfbench/tracing.py wraps this name in this module
from .model import combine_clusters  # noqa: F401
from .seqdata import MISSING, CovariateDesign, SequenceDataset

Model = Union[HmmModel, MixtureModel]

# Chunk size is fixed (not derived from the thread count) so that per-subject
# floating-point results never depend on how work was distributed.
_CHUNK = 512


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) over ``axis``, bit-identical to scipy.special.logsumexp.

    As there, the maximal terms are summed apart (the rest enters through
    log1p); a slice whose maximum is -inf, +inf or NaN returns that maximum.
    """
    mx = np.max(a, axis=axis, keepdims=True)
    top = a == mx
    n_top = top.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(top, -np.inf, a) - mx).sum(axis=axis, keepdims=True)
        out = np.log1p(rest / n_top) + np.log(n_top) + mx
    return np.where(np.isfinite(mx), out, mx).squeeze(axis)


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


def _clusters_and_inits(m, data, design=None, subject_initials=None):
    """The cluster HMMs of a model (a plain HMM is one) and per cluster its
    (N, S_k) initial array; cluster k of a mixture starts from w_ik * pi^k."""
    if not isinstance(m, MixtureModel):
        _check_compatible(m, data)
        return (m,), [_resolve_initials(m, data, subject_initials)]
    if subject_initials is not None:
        raise AlphabetMismatch("a mixture takes no subject_initials, only a design")
    w = mixture_weights(m.gamma, _mixture_design(m, data, design).X)
    for sub in m.clusters:
        _check_compatible(sub, data)
    return m.clusters, [w[:, k : k + 1] * sub.initial for k, sub in enumerate(m.clusters)]


def _forward(A, e, init):
    """Scaled forward pass of K clusters at once: A (K, S, S), emissions e
    (T, K, n, S) and init (K, n, S) give alpha and normalizers (T, K, n)."""
    alpha = np.empty_like(e)
    scaling = np.empty(e.shape[:3])
    ones = np.ones(e.shape[3])
    with np.errstate(divide="ignore", invalid="ignore"):
        x = init * e[0]
        for t in range(e.shape[0]):
            if t:
                np.matmul(alpha[t - 1], A, out=x)
                x *= e[t]
            np.matmul(x, ones, out=scaling[t])
            np.divide(x, scaling[t, ..., None], out=alpha[t])
    return alpha, scaling


def _pair_logliks(alpha, c, data: SequenceDataset, a: int) -> np.ndarray:
    """l_ik (K, n) of a chunk's subjects a, a+1, ... from the forward pass.

    A first bad normalizer that is zero makes the pair impossible: l_ik =
    -inf, alpha 0 and normalizers 1, so the backward pass gives zeros.  One
    negative or not finite, or a subject impossible in every cluster (at the
    t its last cluster fell), raises for the chunk's earliest (t, subject).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.log(c).sum(axis=0)
    hit = ~np.isfinite(ll)  # some normalizer of the pair is not in (0, inf)
    if hit.any():
        bad = ~((c > 0) & (c < np.inf))
        t0 = np.argmax(bad, axis=0)
        first = np.take_along_axis(c, t0[None], axis=0)[0]
        c[:, hit] = 1.0
        alpha[:, hit] = 0.0
        ll[hit] = -np.inf
        # (t, j, 0, normalizer) for a bad value, (t, j, 1, 0.0) for no cluster left
        faults = [(t0[k, j], j, 0, first[k, j]) for k, j in np.argwhere(hit & (first != 0))]
        faults += [(t0[:, j].max(), j, 1, 0.0) for j in np.flatnonzero(hit.all(axis=0))]
        if faults:
            t, j, gone, v = min(faults)
            what = "zero" if gone else f"invalid ({v!r})"
            raise NumericalUnderflow(
                f"{what} forward normalizer for subject {data.subject_ids[a + j]!r} "
                f"at t={t}; consider mode='log'"
            )
    return ll


def _scaled_pass(hmms, data, inits, threads=1, want="loglik"):
    """The scaled forward-backward kernel over clusters ``hmms`` (a plain HMM
    is one) with one (N, S_k) initial array each in ``inits``.

    Per fixed chunk of n subjects all clusters run at once in (T, K, n, S)
    layout, padded to S states with zeros.  A cluster's log normalizers sum
    to l_ik; loglik_i = logsumexp_k l_ik and rho_ik = exp(l_ik - loglik_i),
    exactly 1 for an HMM and 0 for an impossible pair (``_pair_logliks``).
    The backward pass starts from beta[T-1] = rho_ik, so alpha * beta and
    the E-step statistics come out weighted by rho.  ``want`` selects
    ``"loglik"``: (loglik (N,), rho (N, K)) from the forward pass only;
    ``"full"``: (alpha, beta, scaling, loglik), alpha and beta (N, T, sum
    S_k) side by side as in ``combine_clusters``, normalizers (K, N, T);
    ``"stats"``: (loglik, rho, per_cluster), per cluster the t=0 posterior
    (N, S_k), expected transitions (S_k, S_k) and per channel emission
    numerators (S_k, M_c), the last two summed chunk by chunk in order.
    """
    N, T = data.n_subjects, data.n_time
    sizes = [h.n_states for h in hmms]
    K, S = len(hmms), max(sizes)
    offsets = np.cumsum([0] + sizes)
    A, init = np.zeros((K, S, S)), np.zeros((K, N, S))
    tables = [np.zeros((b.shape[1] + 1, K, S)) for b in hmms[0].emissions]
    for k, (h, p) in enumerate(zip(hmms, inits)):
        A[k, : sizes[k], : sizes[k]] = h.transition
        init[k, :, : sizes[k]] = p
        for table, own in zip(tables, _emission_tables(h)):
            table[:, k, : sizes[k]] = own
    tables = [table.reshape(-1, K * S) for table in tables]
    codes = [ch.codes for ch in data.channels]
    loglik, rho = np.empty(N), np.empty((N, K))
    if want == "full":
        alpha_out, beta_out = np.empty((2, N, T, offsets[-1]))
        scaling_out = np.empty((K, N, T))
    gamma1 = [np.empty((N, s)) for s in sizes]
    parts: list = [None] * len(_chunk_spans(N))

    def work(ci, span):
        a, b = span
        chunk_codes = [c[a:b].T for c in codes]  # (T, n)
        e = _lookup_emissions(tables, chunk_codes).reshape(T, b - a, K, S)
        e = np.ascontiguousarray(e.swapaxes(1, 2))  # a view for an HMM
        alpha, scaling = _forward(A, e, init[:, a:b])
        ll = _pair_logliks(alpha, scaling, data, a)
        loglik[a:b] = _logsumexp(ll, axis=0)
        r = np.exp(ll - loglik[a:b])
        rho[a:b] = r.T
        if want == "loglik":
            return
        # W[t] = e[t+1] * beta[t+1] / scaling[t+1], so beta[t] = W[t] @ A.T
        beta = np.empty_like(e)
        beta[T - 1] = r[..., None]
        W = np.empty_like(e[1:])
        for t in range(T - 2, -1, -1):
            np.multiply(e[t + 1], beta[t + 1], out=W[t])
            W[t] /= scaling[t + 1, ..., None]
            np.matmul(W[t], A.swapaxes(1, 2), out=beta[t])
        if want == "full":
            for k, s in enumerate(sizes):
                cols = slice(offsets[k], offsets[k + 1])
                alpha_out[a:b, :, cols] = alpha[:, k, :, :s].swapaxes(0, 1)
                beta_out[a:b, :, cols] = beta[:, k, :, :s].swapaxes(0, 1)
            scaling_out[:, a:b] = scaling.transpose(1, 2, 0)
            return
        # a missing cell selects the last table row, which bincount drops
        idx = [np.where(c == MISSING, len(t) - 1, c).ravel() for t, c in zip(tables, chunk_codes)]
        part = []
        for k, s in enumerate(sizes):
            g = (alpha[:, k, :, :s] * beta[:, k, :, :s]).reshape(-1, s)
            gamma1[k][a:b] = g[: b - a]
            xi = alpha[:-1, k, :, :s].reshape(-1, s).T @ W[:, k, :, :s].reshape(-1, s)
            nums = [
                np.stack([np.bincount(i, g[:, j], len(t))[:-1] for j in range(s)])
                for t, i in zip(tables, idx)
            ]
            part.append([xi * A[k, :s, :s], *nums])
        parts[ci] = part

    _run_chunked(work, N, threads)
    if want == "loglik":
        return loglik, rho
    if want == "full":
        return alpha_out, beta_out, scaling_out, loglik
    sums = [[sum(arrays) for arrays in zip(*cluster)] for cluster in zip(*parts)]
    return loglik, rho, [(g, xi, nums) for g, (xi, *nums) in zip(gamma1, sums)]


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


def _log_pass(hmms, data, inits, threads, want_beta=True):
    """``_fb_log`` once per cluster: per cluster log alpha and log beta, l_ik
    (K, N) and loglik_i = logsumexp_k l_ik (-inf if impossible everywhere)."""
    runs = [
        _fb_log(h, data, init, _log_emission_probs(h, data), threads, want_beta)
        for h, init in zip(hmms, inits)
    ]
    ll = np.stack([run[2] for run in runs])
    return [run[0] for run in runs], [run[1] for run in runs], ll, _logsumexp(ll, axis=0)


def _require_possible(loglik: np.ndarray, data: SequenceDataset, what: str) -> None:
    if np.any(np.isneginf(loglik)):
        i = int(np.argmax(np.isneginf(loglik)))
        raise NumericalUnderflow(
            f"{what} undefined: subject {data.subject_ids[i]!r} has zero likelihood"
        )


def forward_backward(
    model: HmmModel,
    data: SequenceDataset,
    mode: str = "scaled",
    subject_initials=None,
    threads: int = 1,
) -> FBResult:
    """Run the forward-backward recursions for every subject.

    ``subject_initials`` overrides the model's initial vector per subject.
    """
    mode = _normalize_mode(mode)
    _check_compatible(model, data)
    init = [_resolve_initials(model, data, subject_initials)]
    if mode == "scaled":
        alpha, beta, scaling, loglik = _scaled_pass([model], data, init, threads, "full")
        return FBResult("scaled", alpha, beta, scaling[0], loglik)
    la, lb, _, loglik = _log_pass([model], data, init, threads)
    return FBResult("log", la[0], lb[0], None, loglik)


def _loglik_subjects(m, data, subject_initials, mode, threads, design=None) -> np.ndarray:
    """Per-subject log-likelihood via the forward passes only."""
    return _forward_pass(m, data, design, mode, threads, subject_initials)[0]


def _forward_pass(m, data, design, mode, threads, subject_initials=None):
    """Per-subject log-likelihoods and rho (N, K) from forward passes only; in
    log mode a subject impossible in every cluster gets -inf and NaN rho."""
    mode = _normalize_mode(mode)
    hmms, inits = _clusters_and_inits(m, data, design, subject_initials)
    if mode == "scaled":
        return _scaled_pass(hmms, data, inits, threads)
    _, _, ll, loglik = _log_pass(hmms, data, inits, threads, want_beta=False)
    with np.errstate(invalid="ignore"):
        return loglik, np.exp(ll - loglik).T


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
    """Total log-likelihood; a mixture's is sum_i log sum_k w_ik P(Y_i | cluster k)."""
    return float(_loglik_subjects(m, data, None, mode, threads, design).sum())


def posterior_state_probs(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    mode: str = "scaled",
    threads: int = 1,
) -> np.ndarray:
    """Posterior probability of each hidden state at each time point.

    A mixture's states stand side by side as in ``combine_clusters``; state
    s of cluster k means cluster k and state s.  Every (subject, time)
    slice sums to one.
    """
    mode = _normalize_mode(mode)
    hmms, inits = _clusters_and_inits(m, data, design)
    if mode == "scaled":
        alpha, beta, _, _ = _scaled_pass(hmms, data, inits, threads, "full")
        return alpha * beta
    las, lbs, _, loglik = _log_pass(hmms, data, inits, threads)
    _require_possible(loglik, data, "posterior")
    return np.concatenate(
        [np.exp(la + lb - loglik[:, None, None]) for la, lb in zip(las, lbs)], axis=2
    )


def _viterbi_cluster(model: HmmModel, data: SequenceDataset, init: np.ndarray):
    """Best path and its log-probability per subject for one cluster."""
    logE = _log_emission_probs(model, data)
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


def viterbi_paths(
    m: Model,
    data: SequenceDataset,
    subject_initials=None,
    design: Optional[CovariateDesign] = None,
) -> ViterbiResult:
    """Single best hidden state sequence per subject (ties -> lowest index).

    Each cluster of a mixture is decoded from log(w_ik * pi^k), a subject
    goes to the first cluster with the best path, and states are numbered as
    in ``combine_clusters``.  A mixture rejects ``subject_initials``.
    """
    hmms, inits = _clusters_and_inits(m, data, design, subject_initials)
    runs = [_viterbi_cluster(h, data, init) for h, init in zip(hmms, inits)]
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
    return _criteria(m, data, log_likelihood(m, data, design, mode))


def _criteria(m: Model, data: SequenceDataset, ll: float) -> InformationCriteria:
    counts = count_parameters(m, data)
    if counts.nobs == 0:
        raise DegenerateData("effective data size is zero")
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
    """log P(Y_i | cluster k) for every subject and cluster, in log mode, where
    impossible pairs are -inf: a reference apart from the scaled kernel."""
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
    """Posterior cluster membership probabilities (scaled mode); rows sum to one."""
    return _forward_pass(mix, data, design, "scaled", threads)[1]


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
    # why a result is missing, e.g. "gamma_se: NonInvertibleHessian: <msg>"
    diagnostics: list[str] = field(default_factory=list)

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
            "diagnostics": list(self.diagnostics),
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
    assigned subjects are NaN, as are standard errors that cannot be
    computed, and ``diagnostics`` says why.
    """
    from .estimation import covariate_standard_errors  # local: avoids import cycle

    design = _mixture_design(mix, data, design)
    loglik, post = _forward_pass(mix, data, design, mode, 1)
    _require_possible(loglik, data, "summary")
    ic = _criteria(mix, data, float(loglik.sum()))
    w = cluster_prior_probs(mix, design)
    assigned = np.argmax(post, axis=1)
    K = mix.n_clusters
    counts = np.bincount(assigned, minlength=K).astype(float)
    table = np.full((K, K), np.nan)
    for k in range(K):
        members = assigned == k
        if np.any(members):
            table[k] = post[members].mean(axis=0)
    diagnostics = []
    try:
        se = covariate_standard_errors(mix, data, design)
    except NonInvertibleHessian as err:
        se = np.full_like(mix.gamma, np.nan)
        se[:, 0] = 0.0
        diagnostics.append(f"gamma_se: NonInvertibleHessian: {err}")
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
        diagnostics=diagnostics,
    )
