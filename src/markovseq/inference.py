"""Exact likelihood, posterior, and decoding computations for fixed parameters.

Two numerical modes are supported: "scaled" renormalizes the forward
variables at every time point (the default, fastest), "log" keeps all
quantities on the log scale (slower, robust to zero probabilities).  Both
modes agree on per-subject log-likelihoods to well below 1e-9.

Every pass reads the data one way: the chunk codes of a ``_Workspace``,
looked up for all clusters of a mixture at once, each padded to S states
and started from w_ik * pi^k (a plain HMM is one cluster).  Chunk arrays
are state-major, (K, S, T, n), with the n subjects innermost, so every
step of the recursions, every normalizer and every reduction over states
runs on contiguous rows of subjects, and each state's posteriors over the
chunk are one contiguous block.  One lookup serves the leading channels
through their joint code (``_leading_group``); the later ones are looked
up one by one.  Chunks write their own rows or partial sums, added in
chunk order, so results are bit-identical for any thread count.  A fit
builds one workspace for all its E-steps; one-off calls build their own.
``_evaluate`` is the only way into the kernels, here and in ``estimation``:
it runs ``_scaled_pass`` or, in log mode, ``_log_pass``, which answer a
``want`` in the same shapes.  A subject the model cannot produce has
log-likelihood -inf in both modes; ``_require_possible`` decides, in one
place, which calls raise for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    AlphabetMismatch,
    DegenerateData,
    ImpossibleData,
    NonInvertibleHessian,
    NumericalUnderflow,
    check_count,
    check_instance,
    check_text,
)
from .model import (
    HmmModel,
    MixtureModel,
    _checked_rows,
    _gamma_hessian,
    _mixture_design,
    _prior_weights,
    count_parameters,
    mixture_weights,
)

# kept importable here: perfbench/tracing.py wraps this name in this module
from .model import combine_clusters  # noqa: F401
from .seqdata import MISSING, Channel, CovariateDesign, SequenceDataset

Model = Union[HmmModel, MixtureModel]

# Chunk size is fixed (not derived from the thread count) so that per-subject
# floating-point results never depend on how work was distributed.
_CHUNK = 512
# At most this many joint codes for the leading channels that one emission
# lookup serves (``_leading_group``)
_JOINT_CODES = 1024


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) over ``axis``, bit-identical to scipy.special.logsumexp,
    so that this module needs numpy only.

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


_MODES = dict(scaled="scaled", scaling="scaled", log="log", logspace="log", log_space="log")


def _check_compatible(model: HmmModel, data: SequenceDataset) -> None:
    if model.n_channels != data.n_channels:
        raise AlphabetMismatch(f"model has {model.n_channels} channels, data has {data.n_channels}")
    for c, (ma, da) in enumerate(zip(model.alphabets, data.alphabets)):
        if ma.labels != da.labels:
            raise AlphabetMismatch(
                f"channel {c}: model alphabet {ma.labels} != data alphabet {da.labels}"
            )


def _chunk_spans(n: int) -> list[tuple[int, int]]:
    return [(a, min(a + _CHUNK, n)) for a in range(0, max(n, 1), _CHUNK)]


def _run_chunked(fn, n_subjects: int, threads: int) -> None:
    """Call ``fn(k, (a, b), w)`` for every chunk k, which covers subjects
    a..b-1, on worker w.

    Worker w of ``min(threads, chunks)`` runs chunks w, w + workers, ... in
    order, one at a time, so per-worker scratch is never shared.  A failure
    raises the error of the lowest failing chunk, as a serial run would.
    """
    spans = _chunk_spans(n_subjects)
    workers = min(threads, len(spans))

    def run(w):
        for k in range(w, len(spans), workers):
            try:
                fn(k, spans[k], w)
            except Exception as err:  # re-raised below, lowest chunk first
                return k, err
        return None

    if workers == 1:
        failures = [run(0)]
    else:
        # imported here: concurrent.futures also imports logging, which a
        # one-thread run would pay for at start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            failures = list(pool.map(run, range(workers)))
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _emission_tables(model: HmmModel) -> list[np.ndarray]:
    """Per channel an (M_c + 1, S) table indexed by code.

    Row m holds b_s(m) for every state s; the last row, which code MISSING
    (-1) selects, is all ones: an unobserved cell carries no state
    information.
    """
    return [np.vstack([b.T, np.ones(model.n_states)]) for b in model.emissions]


def emission_probs(model: HmmModel, data: SequenceDataset) -> np.ndarray:
    """Joint emission probability per (subject, time, state).

    Product over channels of b_s(y_itc); a missing channel contributes a
    factor of 1 (an unobserved cell carries no state information).  The
    passes look up chunks instead (``_chunk_emissions``).
    """
    tables = _emission_tables(model)
    out = np.take(tables[0], data.channels[0].codes, axis=0)
    for table, ch in zip(tables[1:], data.channels[1:]):
        out *= np.take(table, ch.codes, axis=0)
    return out


@dataclass(frozen=True)
class FBResult:
    """Forward/backward quantities for every subject.

    In scaled mode ``alpha[i, t]`` sums to 1, ``beta`` is scaled by the
    same per-time constants (so ``alpha * beta`` is the state posterior)
    and ``loglik_per_subject[i] == log(scaling[i]).sum()``, for a subject
    the model can produce (see ``forward_backward``).  In log mode
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


def _clusters_and_inits(m, data, design=None, subject_initials=None):
    """The cluster HMMs of a model (a plain HMM is one) and per cluster its
    (N, S_k) initial array: a plain HMM's initial row, or the rows of
    ``subject_initials``, checked as a model's initial row is; cluster k of a
    mixture starts from w_ik * pi^k.  Every pass starts here (through
    ``_evaluate``), so an entry point's model and data are checked here."""
    check_instance(m, (HmmModel, MixtureModel), "the model argument")
    check_instance(data, SequenceDataset, "the data argument")
    N = data.n_subjects
    if not isinstance(m, MixtureModel):
        _check_compatible(m, data)
        shape = (N, m.n_states)
        if subject_initials is None:
            return (m,), [np.broadcast_to(m.initial, shape)]
        rows = np.array(subject_initials, dtype=float)
        if rows.shape != shape:
            raise AlphabetMismatch(f"subject_initials shape {rows.shape}, expected {shape}")
        return (m,), [_checked_rows(rows, np.zeros(shape, dtype=bool), "subject_initials")]
    if subject_initials is not None:
        raise AlphabetMismatch("a mixture takes no subject_initials, only a design")
    w = mixture_weights(m.gamma, _mixture_design(m, N, design).X)
    for sub in m.clusters:
        _check_compatible(sub, data)
    return m.clusters, [w[:, k : k + 1] * sub.initial for k, sub in enumerate(m.clusters)]


def _leading_group(code_counts) -> int:
    """How many leading channels one emission lookup serves: channel 0 and
    the channels after it while their code counts M_c + 1 multiply to at
    most ``_JOINT_CODES``."""
    g, product = 1, code_counts[0]
    while g < len(code_counts) and product * code_counts[g] <= _JOINT_CODES:
        product *= code_counts[g]
        g += 1
    return g


class _Workspace:
    """What the passes read of one dataset, built once and reused by every
    pass over it.

    ``codes[k][c]`` holds chunk k's channel c as a C-contiguous (T, n) intp
    array with MISSING replaced by M_c, the emission table's row of ones;
    the emission counts read it, in ``code_counts[c]`` = M_c + 1 bins.
    ``lookup[k]`` holds what the emission lookup reads: the joint code of
    the leading channel group (``_leading_group``), c_0 * (M_1 + 1) + c_1
    and so on in channel order, then the codes of the later channels one
    by one.  ``scratch[w]`` is worker w's ``_Scratch``, which every pass
    overwrites.  A fit builds one workspace for all its E-steps and drops
    it when it returns; one-off calls build a transient one.
    """

    def __init__(self, data: SequenceDataset):
        self.data = check_instance(data, SequenceDataset, "the data argument")
        counts = self.code_counts = [ch.alphabet.size + 1 for ch in data.channels]
        group = _leading_group(counts)
        self.codes, self.lookup = [], []
        for a, b in _chunk_spans(data.n_subjects):
            chunk = []
            for ch in data.channels:
                c = ch.codes[a:b].T.astype(np.intp, order="C")
                c[c == MISSING] = ch.alphabet.size
                chunk.append(c)
            joint = chunk[0]
            for c in range(1, group):
                joint = joint * counts[c] + chunk[c]
            self.codes.append(chunk)
            self.lookup.append([joint, *chunk[group:]])
        self.scratch: dict[int, _Scratch] = {}


class _Scratch(dict):
    """One worker's scratch arrays by name: ``buf(name, shape, dtype)`` is a
    C-contiguous ``shape`` view of array ``name``, which grows to the largest
    size asked of it (a short last chunk uses a prefix)."""

    def __call__(self, name: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        flat = self.get(name)
        if flat is None or flat.size < size:
            flat = self[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _pack(hmms, inits, n_subjects: int):
    """Clusters ``hmms`` side by side, padded with zeros to S = max S_k
    states: A (K, S, S), initial probabilities (K, S, N) from ``inits`` and
    the emission tables that ``_Workspace.lookup`` indexes, each (K, S,
    codes).  The leading group's table is the outer product of its channels'
    tables, multiplied left to right in channel order, so a joint code
    selects the same product that looking the channels up one by one
    would."""
    sizes = [h.n_states for h in hmms]
    K, S = len(hmms), max(sizes)
    A, init = np.zeros((K, S, S)), np.zeros((K, S, n_subjects))
    tables = [np.zeros((K, S, b.shape[1] + 1)) for b in hmms[0].emissions]
    for k, (h, p) in enumerate(zip(hmms, inits)):
        A[k, : sizes[k], : sizes[k]] = h.transition
        init[k, : sizes[k]] = p.T
        for table, own in zip(tables, _emission_tables(h)):
            table[k, : sizes[k]] = own.T
    group = _leading_group([table.shape[2] for table in tables])
    joint = tables[0]
    for table in tables[1:group]:
        joint = (joint[..., None] * table[:, :, None]).reshape(K, S, -1)
    return sizes, A, init, [joint, *tables[group:]]


def _chunk_emissions(tables, lookup, buf, rows) -> np.ndarray:
    """The product of the table entries (see ``_pack``) that a chunk's
    ``lookup`` codes select, in buf's (K, S, T, n) array "e"; ``rows``, of
    that shape and overwritten later by the caller, holds the later
    lookups'."""
    e = buf("e", rows.shape)
    for c, (table, code) in enumerate(zip(tables, lookup)):
        np.take(table, code, axis=2, out=rows if c else e, mode="clip")
        if c:
            e *= rows
    return e


def _side_by_side(out, values, sizes) -> None:
    """Write (K, S, T, n) chunk ``values`` into ``out`` (n, T, sum S_k), the
    real states of the clusters side by side as in ``combine_clusters``."""
    for k, s in enumerate(sizes):
        out[:, :, sum(sizes[:k]) : sum(sizes[: k + 1])] = values[k, :s].T


def _forward(A, e, init, alpha, scaling, x):
    """Scaled forward pass of K clusters at once: A (K, S, S), emissions e
    (K, S, T, n) and init (K, S, n) fill alpha (K, S, T, n) and normalizers
    ``scaling`` (K, T, n), each a sum over the states in state order; x (K,
    S, n) is scratch, which keeps every step's arithmetic on contiguous
    rows."""
    to_from = A.swapaxes(1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(init, e[:, :, 0], out=x)
        for t in range(e.shape[2]):
            if t:
                np.matmul(to_from, alpha[:, :, t - 1], out=x)
                np.multiply(x, e[:, :, t], out=x)
            c = scaling[:, t]
            np.add.reduce(x, 1, out=c)
            np.divide(x, c[:, None], out=alpha[:, :, t])


def _pair_logliks(alpha, c) -> np.ndarray:
    """l_ik (K, n) of a chunk's subjects: the sum of the log normalizers c
    (K, T, n).  A pair whose first normalizer outside (0, inf) is zero gets
    -inf (impossible, or underflowed: see ``_scaled_pass``), one negative or
    not finite NaN; either way its alpha become 0 and its normalizers 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.log(c).sum(axis=1)
    hit = ~np.isfinite(ll)  # some normalizer of the pair is not in (0, inf)
    if hit.any():
        bad = ~((c > 0) & (c < np.inf))
        first = np.take_along_axis(c, np.argmax(bad, axis=1)[:, None], axis=1)[:, 0]
        ll[hit] = np.where(first[hit] == 0, -np.inf, np.nan)
        c.swapaxes(0, 1)[:, hit] = 1.0
        alpha.transpose(1, 2, 0, 3)[:, :, hit] = 0.0
    return ll


def _scaled_pass(hmms, data, inits, threads=1, want="loglik", workspace=None):
    """The scaled forward-backward kernel over clusters ``hmms`` (a plain HMM
    is one) with one (N, S_k) initial array each in ``inits``.

    Per fixed chunk of n subjects all clusters run at once in state-major
    (K, S, T, n) layout (``_pack``), so every step works on contiguous rows
    of n subjects.  A cluster's log normalizers sum to l_ik;
    loglik_i = logsumexp_k l_ik and rho_ik = exp(l_ik - loglik_i),
    exactly 1 for an HMM and 0 for an impossible pair (``_pair_logliks``).
    The backward pass starts from beta[T-1] = rho_ik, so alpha * beta and
    the E-step statistics come out weighted by rho (0 at -inf).  A NaN l_ik
    raises; a subject at -inf in every cluster is scored again by
    ``_log_pass``: -inf there means impossible (``"stats"`` raises), a finite
    value an underflow, whose (loglik, rho) ``"loglik"`` returns and the
    others raise as NumericalUnderflow.  ``want`` selects
    ``"loglik"``: (loglik (N,), rho (N, K)) from the forward pass only;
    ``"full"``: (alpha, beta, scaling, loglik), alpha and beta (N, T, sum
    S_k) side by side as in ``combine_clusters``, normalizers (K, N, T);
    ``"stats"``: (loglik, rho, counts), counts in ``model._blocks`` order:
    per cluster the t=0 posteriors summed over all N subjects at once (1,
    S_k), expected transitions (S_k, S_k) and per channel emission
    numerators (S_k, M_c), the last two summed chunk by chunk in order.
    ``workspace`` is a ``_Workspace`` of ``data`` to reuse; by default the
    pass builds its own.
    """
    if workspace is None:
        workspace = _Workspace(data)
    elif workspace.data is not data:
        raise ValueError("workspace was built for another dataset")
    N, T = data.n_subjects, data.n_time
    sizes, A, init, tables = _pack(hmms, inits, N)
    K, S = A.shape[:2]
    loglik, rho, pairs = np.empty(N), np.empty((N, K)), np.empty((K, N))
    if want == "full":
        alpha_out, beta_out = np.empty((2, N, T, sum(sizes)))
        scaling_out = np.empty((K, N, T))
    gamma1 = [np.empty((N, s)) for s in sizes]
    parts: list = [None] * len(workspace.codes)

    def work(ci, span, w):
        a, b = span
        n = b - a
        buf = workspace.scratch.setdefault(w, _Scratch())
        alpha = buf("alpha", (K, S, T, n))
        e = _chunk_emissions(tables, workspace.lookup[ci], buf, alpha)
        scaling = buf("scaling", (K, T, n))
        x = buf("x", (K, S, n))
        _forward(A, e, init[:, :, a:b], alpha, scaling, x)
        ll = pairs[:, a:b] = _pair_logliks(alpha, scaling)
        loglik[a:b] = _logsumexp(ll, axis=0)
        with np.errstate(invalid="ignore"):  # -inf - -inf for a subject at -inf
            r = np.exp(ll - loglik[a:b])
        rho[a:b] = r.T
        if want == "loglik":
            return
        r[:, np.isneginf(loglik[a:b])] = 0.0
        # W[t] = e[t+1] * beta[t+1] / scaling[t+1], so beta[t] = A @ W[t]
        beta, W = buf("beta", (K, S, T, n)), buf("W", (K, S, T - 1, n))
        beta[:, :, T - 1] = r[:, None]
        for t in range(T - 2, -1, -1):
            np.multiply(e[:, :, t + 1], beta[:, :, t + 1], out=x)
            np.divide(x, scaling[:, None, t + 1], out=W[:, :, t])
            np.matmul(A, W[:, :, t], out=beta[:, :, t])
        if want == "full":
            _side_by_side(alpha_out[a:b], alpha, sizes)
            _side_by_side(beta_out[a:b], beta, sizes)
            scaling_out[:, a:b] = scaling.swapaxes(1, 2)
            return
        g = np.multiply(alpha, beta, out=e)  # the state posteriors; e is spent
        part = []
        for k, s in enumerate(sizes):
            gamma1[k][a:b] = g[k, :s, 0].T
            xi = alpha[k, :s, :-1].reshape(s, -1) @ W[k, :s].reshape(s, -1).T
            # a missing cell's code M_c lands in the last bin, which is dropped
            nums = [
                np.stack([np.bincount(c.ravel(), g[k, j].ravel(), m)[:-1] for j in range(s)])
                for c, m in zip(workspace.codes[ci], workspace.code_counts)
            ]
            part.append([xi * A[k, :s, :s], *nums])
        parts[ci] = part

    _run_chunked(work, N, threads)
    _require_possible(pairs, data, divides=False)
    lost = np.flatnonzero(np.isneginf(loglik))
    if lost.size:
        channels = [Channel(ch.name, ch.alphabet, ch.codes[lost]) for ch in data.channels]
        subjects = SequenceDataset(channels, [data.subject_ids[i] for i in lost])
        loglik[lost], rho[lost] = _log_pass(hmms, subjects, [p[lost] for p in inits], threads)
        if want != "loglik" and np.isfinite(loglik[lost]).any():
            sid = subjects.subject_ids[np.argmax(np.isfinite(loglik[lost]))]
            raise NumericalUnderflow(f"scaled forward pass underflows for subject {sid!r}")
    if want == "loglik":
        return loglik, rho
    if want == "stats":
        _require_possible(loglik, data)
    if want == "full":
        return alpha_out, beta_out, scaling_out, loglik
    sums = [[sum(arrays) for arrays in zip(*cluster)] for cluster in zip(*parts)]
    counts = [a for g, rest in zip(gamma1, sums) for a in (g.sum(axis=0)[None], *rest)]
    return loglik, rho, counts


def _log_pass(hmms, data, inits, threads=1, want="loglik"):
    """``_scaled_pass`` in log space, on the same chunks and state-major
    layout: the log of the looked-up chunk, then ``_logsumexp`` over the
    from-state axis (for ``"paths"`` the max, back-pointers to the lowest
    state reaching it), each over contiguous rows of n subjects.  l_ik (K,
    N), the last log alpha reduced likewise, is -inf for an impossible
    pair.  ``want`` selects, in ``_scaled_pass``'s shapes, ``"loglik"``:
    (loglik_i = logsumexp_k l_ik, rho); ``"full"``: (alpha, beta, None,
    loglik), log alpha and log beta (N, T, sum S_k) side by side, -inf for
    a subject at -inf; ``"paths"``: (paths, l_ik), per cluster the best
    paths (K, N, T).  A NaN l_ik raises (``_require_possible``)."""
    workspace = _Workspace(data)
    N, T = data.n_subjects, data.n_time
    sizes, A, init, tables = _pack(hmms, inits, N)
    K, S = A.shape[:2]
    with np.errstate(divide="ignore"):
        logA, log_init = np.log(A)[..., None], np.log(init)  # logA (K, from, to, 1)
    ll = np.empty((K, N))
    if want == "full":
        alpha_out, beta_out = np.empty((2, N, T, sum(sizes)))
    paths = np.empty((K, N, T), np.int64) if want == "paths" else None

    def work(ci, span, w):
        a, b = span
        n = b - a
        buf = workspace.scratch.setdefault(w, _Scratch())
        la, cand = buf("alpha", (K, S, T, n)), buf("cand", (K, S, S, n))
        le = _chunk_emissions(tables, workspace.lookup[ci], buf, la)
        if paths is not None:
            back = buf("back", (K, S, T, n), np.min_scalar_type(S - 1))
            # one step's running max, the first from-state reaching it, and
            # a comparison, each contiguous
            best, arg = buf("best", (K, S, n)), buf("arg", (K, S, n), back.dtype)
            up = buf("up", (K, S, n), bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(le, out=le)
            np.add(log_init[:, :, a:b], le[:, :, 0], out=la[:, :, 0])
            for t in range(1, T):
                np.add(la[:, :, t - 1, None], logA, out=cand)  # (K, from, to, n)
                if paths is None:
                    np.add(_logsumexp(cand, axis=1), le[:, :, t], out=la[:, :, t])
                    continue
                # the max over the from states and the first state reaching it
                np.copyto(best, cand[:, 0])
                arg[...] = 0
                for f in range(1, S):
                    np.copyto(arg, f, where=np.greater(cand[:, f], best, out=up))
                    np.maximum(best, cand[:, f], out=best)
                np.add(best, le[:, :, t], out=la[:, :, t])
                back[:, :, t] = arg
            if paths is None:
                ll[:, a:b] = _logsumexp(la[:, :, T - 1], axis=1)
            if want == "full":
                lb = buf("beta", (K, S, T, n))
                lb[:, :, T - 1] = 0.0
                for t in range(T - 2, -1, -1):
                    np.add(logA, (le[:, :, t + 1] + lb[:, :, t + 1])[:, None], out=cand)
                    lb[:, :, t] = _logsumexp(cand, axis=2)
                _side_by_side(alpha_out[a:b], la, sizes)
                _side_by_side(beta_out[a:b], lb, sizes)
        if paths is not None:
            path = buf("path", (K, T, n), np.int64)
            path[:, T - 1] = np.argmax(la[:, :, T - 1], axis=1)
            ll[:, a:b] = np.take_along_axis(la[:, :, T - 1], path[:, T - 1][:, None], axis=1)[:, 0]
            k, j = np.ogrid[:K, :n]
            for t in range(T - 1, 0, -1):
                path[:, t - 1] = back[k, path[:, t], t, j]
            paths[:, a:b] = path.swapaxes(1, 2)

    _run_chunked(work, N, threads)
    if paths is not None:
        return paths, ll
    _require_possible(ll, data, divides=False)
    loglik = _logsumexp(ll, axis=0)
    if want == "loglik":
        with np.errstate(invalid="ignore"):  # -inf - -inf for a subject at -inf
            return loglik, np.exp(ll - loglik).T
    alpha_out[np.isneginf(loglik)] = beta_out[np.isneginf(loglik)] = -np.inf
    return alpha_out, beta_out, None, loglik


# The kernels' former names; perfbench/tracing.py looks them up when it
# installs its counters.
_fb_scaled = _scaled_pass
_fb_log = _log_pass


def _evaluate(
    m, data, want, design=None, mode="scaled", threads=1, subject_initials=None, workspace=None
):
    """The one way into the kernels: ``want`` (``"loglik"``, ``"full"``,
    ``"stats"`` or, in log mode, ``"paths"``) of model ``m`` on ``data``.
    Checks ``mode`` and ``threads``, builds the clusters and their initial
    arrays (``_clusters_and_inits`` checks the rest), and runs
    ``_scaled_pass`` or, in log mode, ``_log_pass``, which answers in the
    same shapes.  ``workspace`` serves the scaled kernel."""
    mode = _MODES[check_text(mode, "mode", _MODES)]
    threads = check_count(threads, "threads", 1)
    hmms, inits = _clusters_and_inits(m, data, design, subject_initials)
    if mode == "scaled":
        return _scaled_pass(hmms, data, inits, threads, want, workspace)
    return _log_pass(hmms, data, inits, threads, want)


def _require_possible(ll, data: SequenceDataset, what="log-likelihood", divides=True) -> None:
    """The one rule for data the model cannot produce, in both modes: ``ll``
    holds log values per cluster and subject (K, N), or per subject (N,).  A
    NaN raises NumericalUnderflow for the lowest cluster's first such subject.
    Where the caller ``divides`` by the likelihood, the lowest subject at -inf
    in every cluster raises ImpossibleData; forward-only results report -inf."""
    ll = np.atleast_2d(ll)
    if np.isnan(ll).any():
        i = np.argwhere(np.isnan(ll))[0, 1]
        raise NumericalUnderflow(f"NaN {what} for subject {data.subject_ids[i]!r}")
    impossible = np.isneginf(ll).all(axis=0)
    if divides and impossible.any():
        sid = data.subject_ids[np.argmax(impossible)]
        raise ImpossibleData(f"subject {sid!r} has zero probability under the model")


def forward_backward(
    model: HmmModel,
    data: SequenceDataset,
    mode: str = "scaled",
    subject_initials=None,
    threads: int = 1,
) -> FBResult:
    """Run the forward-backward recursions for every subject.

    ``subject_initials`` overrides the model's initial vector per subject.
    A subject the model cannot produce gets log-likelihood -inf and alpha
    and beta 0 (-inf in log mode).
    """
    check_instance(model, HmmModel, "forward_backward")
    alpha, beta, scaling, loglik = _evaluate(
        model, data, "full", mode=mode, threads=threads, subject_initials=subject_initials
    )
    if scaling is None:
        return FBResult("log", alpha, beta, None, loglik)
    return FBResult("scaled", alpha, beta, scaling[0], loglik)


def log_likelihood(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    mode: str = "scaled",
    threads: int = 1,
) -> float:
    """Total log-likelihood; a mixture's is sum_i log sum_k w_ik P(Y_i | cluster k)."""
    return float(_evaluate(m, data, "loglik", design, mode, threads)[0].sum())


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
    alpha, beta, scaling, loglik = _evaluate(m, data, "full", design, mode, threads)
    _require_possible(loglik, data)
    return alpha * beta if scaling is not None else np.exp(alpha + beta - loglik[:, None, None])


def viterbi_paths(
    m: Model,
    data: SequenceDataset,
    subject_initials=None,
    design: Optional[CovariateDesign] = None,
) -> ViterbiResult:
    """Single best hidden state sequence per subject (ties -> lowest index).

    Each cluster of a mixture is decoded from log(w_ik * pi^k), a subject
    goes to the first cluster with the best path, and states are numbered as
    in ``combine_clusters``.  A mixture rejects ``subject_initials``.  The
    chunks of the decoding run on one thread.
    """
    paths, joints = _evaluate(m, data, "paths", design, "log", 1, subject_initials)  # joints (K, N)
    best = np.argmax(joints, axis=0)  # first max = lowest cluster; a NaN is a max
    subjects = np.arange(data.n_subjects)
    log_joint = joints[best, subjects]
    _require_possible(log_joint, data, "path log-probability")
    mixture = isinstance(m, MixtureModel)
    offsets = np.cumsum([0] + [h.n_states for h in (m.clusters if mixture else (m,))])
    clusters = best if mixture else None
    return ViterbiResult(paths[best, subjects] + offsets[best, None], log_joint, clusters)


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
    return _prior_weights(mix, design, "cluster_prior_probs")


def cluster_logliks(
    mix: MixtureModel, data: SequenceDataset, threads: int = 1
) -> np.ndarray:
    """log P(Y_i | cluster k) for every subject and cluster, in log mode, where
    impossible pairs are -inf: a reference apart from the scaled kernel, one
    pass per cluster."""
    return np.column_stack(
        [_evaluate(sub, data, "loglik", mode="log", threads=threads)[0] for sub in mix.clusters]
    )


def cluster_posterior_probs(
    mix: MixtureModel,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    threads: int = 1,
) -> np.ndarray:
    """Posterior cluster membership probabilities (scaled mode); rows sum to one."""
    check_instance(mix, MixtureModel, "cluster_posterior_probs")
    loglik, rho = _evaluate(mix, data, "loglik", design, threads=threads)
    _require_possible(loglik, data)
    return rho


def covariate_standard_errors(
    mix: MixtureModel,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
) -> np.ndarray:
    """Conditional standard errors of gamma (other parameters held fixed).

    Uses the same analytic Hessian as the Newton step for gamma, evaluated
    at the estimate; the reference column's errors are zero.
    """
    check_instance(mix, MixtureModel, "covariate_standard_errors")
    check_instance(data, SequenceDataset, "covariate_standard_errors")
    design = _mixture_design(mix, data.n_subjects, design)
    Q, K = mix.gamma.shape
    se = np.zeros((Q, K))
    if K == 1:
        return se
    w = mixture_weights(mix.gamma, design.X)
    H = _gamma_hessian(design.X, w)
    try:
        cov = np.linalg.inv(-H)
    except np.linalg.LinAlgError as err:
        raise NonInvertibleHessian(str(err)) from err
    diag = np.diag(cov)
    if np.any(diag <= 0):
        raise NonInvertibleHessian("information matrix is not positive definite")
    se[:, 1:] = np.sqrt(diag).reshape(Q, K - 1, order="F")
    return se


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
    check_instance(mix, MixtureModel, "mixture_summary")
    loglik, post = _evaluate(mix, data, "loglik", design, mode)
    _require_possible(loglik, data)
    design = _mixture_design(mix, data.n_subjects, design)
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
