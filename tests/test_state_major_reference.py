"""The scaled kernel against its frozen time-major predecessor.

``_ref_codes``, ``_ref_pack``, ``_ref_chunk_emissions``, ``_ref_forward``,
``_ref_pair_logliks``, ``_ref_side_by_side`` and ``_ref_scaled_pass`` are
the scaled kernel as it was before the state-major layout, frozen here:
chunk arrays in (T, K, n, S) layout with the states innermost, and one
emission lookup per channel.  The library now runs (K, S, T, n), with the
subjects innermost, and looks the leading channels up through one joint
code.

On N = 1100 subjects (three chunks, the last short), at one thread and at
three, over HMMs of 1, 4 and 9 states, K = 3 mixtures of 2, 4 and 3 and of
2, 3 and 3 states, and a model of three channels whose code counts exceed
the leading group's bound:

* the emission products are identical to the bit everywhere: a joint code
  selects the outer-product entry b_0 * b_1, formed left to right as the
  per-channel lookups multiplied it;
* where no cluster has more than 3 states, the log-likelihoods, rho, gamma1
  and emission counts are identical to the bit as well;
* every output agrees to a relative ``RTOL`` = 1e-13.  The forward
  normalizer is now a sum over the state axis in state order; the frozen
  kernel took it as a matrix-vector product, which BLAS groups in pairs
  once a row holds 4 or more terms (padding included), so with 4 or more
  states alpha, and all that follows from it, may differ in the last bits.
  ``xi`` is a BLAS product over the subjects and time points of the other
  operand order, which may group its terms differently at any size.
"""

import numpy as np
import pytest

from markovseq.inference import (
    _chunk_emissions,
    _clusters_and_inits,
    _logsumexp,
    _pack,
    _run_chunked,
    _scaled_pass,
    _Scratch,
    _Workspace,
)
from markovseq.errors import NumericalUnderflow
from markovseq.seqdata import MISSING

from helpers import random_dataset, random_hmm, uneven_mixture

N, T = 1100, 9
RTOL, ATOL = 1e-13, 1e-300


# ----------------------------------------------------------------------
# the frozen reference
# ----------------------------------------------------------------------


def _ref_codes(data):
    spans = [(a, min(a + 512, data.n_subjects)) for a in range(0, data.n_subjects, 512)]
    chunks = []
    for a, b in spans:
        chunk = []
        for ch in data.channels:
            c = ch.codes[a:b].T.astype(np.intp, order="C")
            c[c == MISSING] = ch.alphabet.size
            chunk.append(c)
        chunks.append(chunk)
    return chunks


def _ref_emission_tables(model):
    return [np.vstack([b.T, np.ones(model.n_states)]) for b in model.emissions]


def _ref_pack(hmms, inits, n_subjects):
    sizes = [h.n_states for h in hmms]
    K, S = len(hmms), max(sizes)
    A, init = np.zeros((K, S, S)), np.zeros((K, n_subjects, S))
    tables = [np.zeros((b.shape[1] + 1, K, S)) for b in hmms[0].emissions]
    for k, (h, p) in enumerate(zip(hmms, inits)):
        A[k, : sizes[k], : sizes[k]] = h.transition
        init[k, :, : sizes[k]] = p
        for table, own in zip(tables, _ref_emission_tables(h)):
            table[:, k, : sizes[k]] = own
    return sizes, A, init, [table.reshape(-1, S) for table in tables]


def _ref_chunk_emissions(tables, codes, buf, rows):
    T, K, n, S = rows.shape
    e = buf("e", rows.shape)
    for c, (table, code) in enumerate(zip(tables, codes)):
        index = code[:, None, :]
        if K > 1:
            index = np.multiply(index, K, out=buf("index", (T, K, n), np.intp))
            index += np.arange(K)[:, None]
        np.take(table, index, axis=0, out=rows if c else e, mode="clip")
        if c:
            e *= rows
    return e


def _ref_side_by_side(out, values, sizes):
    for k, s in enumerate(sizes):
        out[:, :, sum(sizes[:k]) : sum(sizes[: k + 1])] = values[:, k, :, :s].swapaxes(0, 1)


def _ref_forward(A, e, init, alpha, scaling, x):
    ones = np.ones(e.shape[3])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(init, e[0], out=x)
        for t in range(e.shape[0]):
            if t:
                np.matmul(alpha[t - 1], A, out=x)
                x *= e[t]
            np.matmul(x, ones, out=scaling[t])
            np.divide(x, scaling[t, ..., None], out=alpha[t])


def _ref_pair_logliks(alpha, c, data, a):
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.log(c).sum(axis=0)
    hit = ~np.isfinite(ll)
    if hit.any():
        bad = ~((c > 0) & (c < np.inf))
        t0 = np.argmax(bad, axis=0)
        first = np.take_along_axis(c, t0[None], axis=0)[0]
        c[:, hit] = 1.0
        alpha[:, hit] = 0.0
        ll[hit] = -np.inf
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


def _ref_scaled_pass(hmms, data, inits, threads, want):
    codes_by_chunk = _ref_codes(data)
    scratch = {}
    N, T = data.n_subjects, data.n_time
    sizes, A, init, tables = _ref_pack(hmms, inits, N)
    K, S = A.shape[:2]
    loglik, rho = np.empty(N), np.empty((N, K))
    if want == "full":
        alpha_out, beta_out = np.empty((2, N, T, sum(sizes)))
        scaling_out = np.empty((K, N, T))
    gamma1 = [np.empty((N, s)) for s in sizes]
    parts = [None] * len(codes_by_chunk)

    def work(ci, span, w):
        a, b = span
        n = b - a
        codes = codes_by_chunk[ci]
        buf = scratch.setdefault(w, _Scratch())

        def flat_rows(name, v):
            if not v.flags.c_contiguous:
                out = buf(name, v.shape)
                np.copyto(out, v)
                v = out
            return v.reshape(-1, v.shape[-1])

        alpha = buf("alpha", (T, K, n, S))
        e = _ref_chunk_emissions(tables, codes, buf, alpha)
        scaling = buf("scaling", (T, K, n))
        _ref_forward(A, e, init[:, a:b], alpha, scaling, buf("x", (K, n, S)))
        ll = _ref_pair_logliks(alpha, scaling, data, a)
        loglik[a:b] = _logsumexp(ll, axis=0)
        r = np.exp(ll - loglik[a:b])
        rho[a:b] = r.T
        if want == "loglik":
            return
        beta, W = buf("beta", (T, K, n, S)), buf("W", (T - 1, K, n, S))
        beta[T - 1] = r[..., None]
        for t in range(T - 2, -1, -1):
            np.multiply(e[t + 1], beta[t + 1], out=W[t])
            W[t] /= scaling[t + 1, ..., None]
            np.matmul(W[t], A.swapaxes(1, 2), out=beta[t])
        if want == "full":
            _ref_side_by_side(alpha_out[a:b], alpha, sizes)
            _ref_side_by_side(beta_out[a:b], beta, sizes)
            scaling_out[:, a:b] = scaling.transpose(1, 2, 0)
            return
        part = []
        for k, s in enumerate(sizes):
            g = buf("g", (s, T, n))
            np.multiply(
                alpha[:, k, :, :s].transpose(2, 0, 1), beta[:, k, :, :s].transpose(2, 0, 1), out=g
            )
            gamma1[k][a:b] = g[:, 0].T
            xi = flat_rows("xa", alpha[:-1, k, :, :s]).T @ flat_rows("xw", W[:, k, :, :s])
            nums = [
                np.stack([np.bincount(c.ravel(), g[j].ravel(), m)[:-1] for j in range(s)])
                for c, m in zip(codes, (len(table) // K for table in tables))
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


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------


def _hmm(n_states):
    rng = np.random.default_rng(40 + n_states)
    model = random_hmm(rng, n_states, [4, 3])
    return model, random_dataset(rng, model, N, T, missing_rate=0.1), None


def _mixture(n_states):
    """K = 3 clusters of ``n_states`` states with a covariate."""
    rng = np.random.default_rng(7)
    mix, design = uneven_mixture(rng, [4, 3], n_states, N)
    return mix, random_dataset(rng, mix.clusters[0], N, T, missing_rate=0.2), design


def _wide_channels():
    """Three channels of 30, 30 and 5 symbols: the first two (31 * 31 codes)
    share one lookup, the third (31 * 31 * 6 > 1024) is looked up alone."""
    rng = np.random.default_rng(8)
    model = random_hmm(rng, 3, [30, 30, 5])
    return model, random_dataset(rng, model, N, T, missing_rate=0.1), None


CASES = {
    "hmm_1": lambda: _hmm(1),
    "hmm_4": lambda: _hmm(4),
    "hmm_9": lambda: _hmm(9),
    "uneven_mixture": lambda: _mixture((2, 4, 3)),
    "small_mixture": lambda: _mixture((2, 3, 3)),
    "wide_channels": _wide_channels,
}
# no cluster has more than 3 states
BIT_IDENTICAL = {"hmm_1", "small_mixture", "wide_channels"}


def _arrays(result):
    if isinstance(result, (tuple, list)):
        return [a for item in result for a in _arrays(item)]
    return [np.asarray(result)]


def _close(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=RTOL, atol=ATOL)


def _bits(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_scaled_pass_matches_reference(case, threads):
    m, data, design = CASES[case]()
    hmms, inits = _clusters_and_inits(m, data, design)
    workspace = _Workspace(data)
    for want in ("loglik", "full", "stats"):
        got = _scaled_pass(hmms, data, inits, threads, want, workspace)
        ref = _ref_scaled_pass(hmms, data, inits, 1, want)
        for g, r in zip(_arrays(got), _arrays(ref), strict=True):
            _close(g, r)
        if case not in BIT_IDENTICAL:
            continue
        assert _bits(got[-1:] if want == "full" else got[:2]) == _bits(
            ref[-1:] if want == "full" else ref[:2]
        )
        if want == "stats":
            for (g1, _, nums), (ref_g1, _, ref_nums) in zip(got[2], ref[2], strict=True):
                assert _bits([g1, *nums]) == _bits([ref_g1, *ref_nums])


@pytest.mark.parametrize("case", sorted(CASES))
def test_emission_products_are_bit_identical(case):
    m, data, design = CASES[case]()
    hmms, inits = _clusters_and_inits(m, data, design)
    workspace = _Workspace(data)
    _, _, _, tables = _pack(hmms, inits, N)
    _, _, _, ref_tables = _ref_pack(hmms, inits, N)
    buf, ref_buf = _Scratch(), _Scratch()
    for lookup, codes in zip(workspace.lookup, _ref_codes(data), strict=True):
        K, S, n = len(hmms), max(h.n_states for h in hmms), codes[0].shape[1]
        got = _chunk_emissions(tables, lookup, buf, buf("rows", (K, S, T, n)))
        ref = _ref_chunk_emissions(ref_tables, codes, ref_buf, ref_buf("rows", (T, K, n, S)))
        assert np.ascontiguousarray(ref.transpose(1, 3, 0, 2)).tobytes() == got.tobytes()


def test_wide_channels_use_both_lookups():
    """The first two channels share a joint code, the third is looked up
    alone, and the joint code walks the first channel slowest."""
    _, data, _ = _wide_channels()
    workspace = _Workspace(data)
    for lookup, codes in zip(workspace.lookup, _ref_codes(data), strict=True):
        assert len(lookup) == 2
        assert lookup[0].tobytes() == (codes[0] * 31 + codes[1]).tobytes()
        assert lookup[1].tobytes() == codes[2].tobytes()
