"""The E-step record against the per-cluster output it replaced.

``_ref_scaled_stats`` is the ``"stats"`` branch of the scaled kernel as it
was when it returned, per cluster, the (N, S_k) t=0 posteriors, the
expected transitions and the emission numerators, and ``_ref_count_blocks``
the function that then flattened those into ``model._blocks`` order; both
are frozen here.  The kernel now returns the counts in that order itself,
and ``expected_stats`` hands them on as ``EStats.counts``.

On N = 1100 subjects (three chunks, the last short), at one thread and at
three, over an HMM, a K = 3 mixture of 2, 4 and 3 states with a covariate,
an LCM (one state per cluster) and an MM (identity emissions), the record's
counts, rho and log-likelihood must be identical to the bit.
"""

import numpy as np
import pytest

from markovseq import CovariateDesign, build_mm, build_restricted_mixture
from markovseq.estimation import expected_stats
from markovseq.inference import (
    _chunk_emissions,
    _clusters_and_inits,
    _forward,
    _logsumexp,
    _pack,
    _pair_logliks,
    _run_chunked,
    _Scratch,
    _Workspace,
)
from markovseq.model import _blocks

from helpers import random_dataset, random_hmm, uneven_mixture

N, T = 1100, 6


# ----------------------------------------------------------------------
# the frozen reference
# ----------------------------------------------------------------------


def _ref_scaled_stats(hmms, data, inits, threads):
    workspace = _Workspace(data)
    N, T = data.n_subjects, data.n_time
    sizes, A, init, tables = _pack(hmms, inits, N)
    K, S = A.shape[:2]
    loglik, rho = np.empty(N), np.empty((N, K))
    gamma1 = [np.empty((N, s)) for s in sizes]
    parts = [None] * len(workspace.codes)

    def work(ci, span, w):
        a, b = span
        n = b - a
        buf = workspace.scratch.setdefault(w, _Scratch())
        alpha = buf("alpha", (K, S, T, n))
        e = _chunk_emissions(tables, workspace.lookup[ci], buf, alpha)
        scaling = buf("scaling", (K, T, n))
        x = buf("x", (K, S, n))
        _forward(A, e, init[:, :, a:b], alpha, scaling, x)
        ll = _pair_logliks(alpha, scaling)
        loglik[a:b] = _logsumexp(ll, axis=0)
        r = np.exp(ll - loglik[a:b])
        rho[a:b] = r.T
        beta, W = buf("beta", (K, S, T, n)), buf("W", (K, S, T - 1, n))
        beta[:, :, T - 1] = r[:, None]
        for t in range(T - 2, -1, -1):
            np.multiply(e[:, :, t + 1], beta[:, :, t + 1], out=x)
            np.divide(x, scaling[:, None, t + 1], out=W[:, :, t])
            np.matmul(A, W[:, :, t], out=beta[:, :, t])
        g = np.multiply(alpha, beta, out=e)
        part = []
        for k, s in enumerate(sizes):
            gamma1[k][a:b] = g[k, :s, 0].T
            xi = alpha[k, :s, :-1].reshape(s, -1) @ W[k, :s].reshape(s, -1).T
            nums = [
                np.stack([np.bincount(c.ravel(), g[k, j].ravel(), m)[:-1] for j in range(s)])
                for c, m in zip(workspace.codes[ci], workspace.code_counts)
            ]
            part.append([xi * A[k, :s, :s], *nums])
        parts[ci] = part

    _run_chunked(work, N, threads)
    sums = [[sum(arrays) for arrays in zip(*cluster)] for cluster in zip(*parts)]
    return loglik, rho, [(g, xi, nums) for g, (xi, *nums) in zip(gamma1, sums)]


def _ref_count_blocks(per_cluster):
    return [a for g1, xi, nums in per_cluster for a in (g1.sum(axis=0)[None], xi, *nums)]


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------


def _hmm():
    rng = np.random.default_rng(2001)
    model = random_hmm(rng, 3, [4, 3])
    return model, random_dataset(rng, model, N, T, missing_rate=0.1), None


def _mixture():
    rng = np.random.default_rng(2002)
    mix, design = uneven_mixture(rng, [4, 3], (2, 4, 3), N)
    return mix, random_dataset(rng, mix.clusters[0], N, T, missing_rate=0.1), design


def _lcm():
    rng = np.random.default_rng(2003)
    data = random_dataset(rng, random_hmm(rng, 1, [3, 4]), N, T, missing_rate=0.1)
    design = CovariateDesign.intercept(N)
    return build_restricted_mixture("lcm", data, 3, design, rng_seed=4), data, design


def _mm():
    rng = np.random.default_rng(2004)
    data = random_dataset(rng, random_hmm(rng, 1, [4]), N, T, missing_rate=0.1)
    return build_mm(data), data, None


CASES = {"hmm": _hmm, "mixture_2_4_3": _mixture, "lcm": _lcm, "mm": _mm}


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_record_equals_flattened_per_cluster_output(case, threads):
    m, data, design = CASES[case]()
    hmms, inits = _clusters_and_inits(m, data, design)
    loglik, rho, per_cluster = _ref_scaled_stats(hmms, data, inits, 1)
    stats = expected_stats(m, data, threads=threads, design=design)
    assert stats.loglik == float(loglik.sum())
    assert _bits([stats.rho]) == _bits([rho])
    assert [a.shape for a in stats.counts] == [b.values.shape for b in _blocks(m)]
    assert _bits(stats.counts) == _bits(_ref_count_blocks(per_cluster))


def test_cases_reach_what_they_name():
    mix = CASES["mixture_2_4_3"]()[0]
    assert [c.n_states for c in mix.clusters] == [2, 4, 3]
    assert all(c.n_states == 1 for c in CASES["lcm"]()[0].clusters)
    mm = CASES["mm"]()[0]
    assert (mm.emissions[0] == np.eye(4)).all()
