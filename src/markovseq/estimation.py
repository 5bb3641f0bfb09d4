"""Maximum-likelihood estimation for HMMs and mixture HMMs.

Fitting is organized around three pieces:

* ``fit_em`` runs Baum-Welch (with a multinomial-logit Newton step for the
  covariate coefficients of mixtures), optionally restarted from randomly
  perturbed starting values; the best restart wins.
* ``fit_local`` polishes an estimate with scipy's L-BFGS-B on an
  unconstrained reparameterization: each probability row is written as a
  softmax over its free entries anchored at the row's first free entry,
  so structural zeros stay out of the parameter vector.
* ``loglik_gradient`` supplies the analytic gradient on that
  parameterization, assembled from forward-backward expectations.

Free probability entries may reach 0 during EM; packing such a model
clamps the log-ratio coordinates at a large negative value, which leaves
the likelihood unchanged to double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteLikelihood,
    NonInvertibleHessian,
    NumericalUnderflow,
    RankDeficientDesign,
)
from .inference import (
    _clusters_and_inits,
    _mixture_design,
    _scaled_pass,
    log_likelihood,
)

# kept importable here: perfbench/tracing.py wraps these names in this module
from .inference import _fb_scaled, emission_probs  # noqa: F401
from .model import combine_clusters  # noqa: F401
from .model import HmmModel, MixtureModel, mixture_weights
from .seqdata import CovariateDesign, SequenceDataset

Model = Union[HmmModel, MixtureModel]

_LOG_CLAMP = 1e-290  # free entries at exactly 0 map to log-odds ~ -668


@dataclass
class FitControl:
    """Knobs for the EM and local-ascent steps.

    ``restarts`` perturbed EM runs are added to the run from the given
    starting values; restart r draws from a generator seeded ``seed + r``.
    ``threads`` only distributes per-subject work and never changes
    results.
    """

    em_max_iter: int = 1000
    em_rel_tol: float = 1e-8
    restarts: int = 0
    restart_perturb: float = 0.5
    local_step: bool = False
    local_max_iter: int = 200
    local_grad_tol: float = 1e-6
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.em_rel_tol <= 0 or self.local_grad_tol <= 0:
            raise DimensionMismatch("tolerances must be positive")
        if self.restarts < 0:
            raise DimensionMismatch("restarts must be >= 0")
        if not (0 < self.restart_perturb <= 1):
            raise DimensionMismatch("restart_perturb must be in (0, 1]")

    def to_dict(self, include_threads: bool = False) -> dict:
        d = {
            "em_max_iter": self.em_max_iter,
            "em_rel_tol": self.em_rel_tol,
            "restarts": self.restarts,
            "restart_perturb": self.restart_perturb,
            "local_step": self.local_step,
            "local_max_iter": self.local_max_iter,
            "local_grad_tol": self.local_grad_tol,
            "seed": self.seed,
        }
        if include_threads:
            d["threads"] = self.threads
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FitControl":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class FitResult:
    """Outcome of a fit: best model, its log-likelihood, and run diagnostics."""

    model: Model
    loglik: float
    restart_logliks: list[float]
    em_iterations: int
    local_iterations: int
    converged_by: str  # "em_tol" | "grad_tol" | "max_iter"
    loglik_trace: list[float] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# E-step expectations
# ----------------------------------------------------------------------


@dataclass
class EStats:
    """Forward-backward expectations (scaled mode) for one E-step.

    A mixture's ``clusters`` hold one EStats per cluster, weighted by the
    posterior cluster probabilities ``rho`` (cluster k's ``gamma1`` rows sum
    to rho_ik); its own ``gamma1``, ``xi`` and ``emis_num`` are None.
    ``xi`` and ``emis_num`` are summed over subjects chunk by chunk in chunk
    order, so results do not depend on the thread count.  Emission updates
    normalize by the numerator row sums (expected occupancy of observed cells).
    """

    loglik: float
    loglik_per_subject: np.ndarray
    gamma1: Optional[np.ndarray]  # (N, S) state posterior at t=0
    xi: Optional[np.ndarray]  # (S, S) expected transition counts
    emis_num: Optional[list[np.ndarray]]  # per channel (S, M_c) expected symbol counts
    rho: np.ndarray  # (N, K) posterior cluster probabilities; ones (N, 1) for an HMM
    clusters: tuple["EStats", ...] = ()


def expected_stats(
    model: Model,
    data: SequenceDataset,
    subject_initials=None,
    threads: int = 1,
    design: Optional[CovariateDesign] = None,
) -> EStats:
    """E-step statistics from one pass of the chunked scaled kernel.

    ``subject_initials`` overrides a plain HMM's initial vectors; a mixture
    takes them from ``design``.  Where the kernel raises NumericalUnderflow
    this raises NonFiniteLikelihood.
    """
    hmms, inits = _clusters_and_inits(model, data, design, subject_initials)
    try:
        ll, rho, per_cluster = _scaled_pass(hmms, data, inits, threads, "stats")
    except NumericalUnderflow as err:
        raise NonFiniteLikelihood(str(err)) from err
    total = float(ll.sum())
    stats = [EStats(total, ll, *cluster, rho) for cluster in per_cluster]
    if isinstance(model, MixtureModel):
        return EStats(total, ll, None, None, None, rho, tuple(stats))
    return stats[0]


def _updated_rows(current, counts, flagged, what):
    """Normalize expected-count rows; rows with no mass keep current values."""
    out = current.copy()
    totals = counts.sum(axis=-1)
    for s in range(counts.shape[0]):
        if totals[s] > 0:
            out[s] = counts[s] / totals[s]
        else:
            flagged.add(f"{what} row {s}")
    return out


def _m_step_hmm(model: HmmModel, stats: EStats, flagged: set, prefix: str = "") -> HmmModel:
    """Baum-Welch update of one HMM; ``prefix`` names its cluster in ``flagged``."""
    pi_counts = stats.gamma1.sum(axis=0)
    if pi_counts.sum() > 0:
        initial = pi_counts / pi_counts.sum()
    else:
        initial = model.initial
        flagged.add(f"{prefix}initial")
    transition = _updated_rows(model.transition, stats.xi, flagged, f"{prefix}transition")
    emissions = [
        _updated_rows(b, num, flagged, f"{prefix}emission[{c}]")
        for c, (b, num) in enumerate(zip(model.emissions, stats.emis_num))
    ]
    return model.with_params(initial=initial, transition=transition, emissions=emissions)


def _m_step(m: Model, stats: EStats, design, flagged: set) -> Model:
    """M-step: every cluster's HMM, then a mixture's covariate coefficients."""
    if not isinstance(m, MixtureModel):
        return _m_step_hmm(m, stats, flagged)
    clusters = tuple(
        _m_step_hmm(sub, st, flagged, f"cluster {k} ")
        for k, (sub, st) in enumerate(zip(m.clusters, stats.clusters))
    )
    gamma = m.gamma
    if m.n_clusters > 1:
        gamma = gamma_m_step(design, stats.rho, m.gamma).gamma
    return replace(m, clusters=clusters, gamma=gamma)


# ----------------------------------------------------------------------
# EM driver with restarts
# ----------------------------------------------------------------------


def _perturb_row(row, mask, weight, rng):
    free = ~mask
    k = int(free.sum())
    if k < 2:
        return row
    out = row.copy()
    out[free] = (1.0 - weight) * row[free] + weight * rng.dirichlet(np.ones(k))
    return out


def _perturb_hmm(m: HmmModel, weight: float, rng) -> HmmModel:
    initial = _perturb_row(m.initial, m.initial_mask, weight, rng)
    transition = np.vstack(
        [
            _perturb_row(m.transition[s], m.transition_mask[s], weight, rng)
            for s in range(m.n_states)
        ]
    )
    emissions = []
    for c, b in enumerate(m.emissions):
        emissions.append(
            np.vstack(
                [
                    _perturb_row(b[s], m.emission_masks[c][s], weight, rng)
                    for s in range(m.n_states)
                ]
            )
        )
    return m.with_params(initial=initial, transition=transition, emissions=emissions)


def _perturb(m: Model, weight: float, rng) -> Model:
    if isinstance(m, MixtureModel):
        return replace(
            m, clusters=tuple(_perturb_hmm(c, weight, rng) for c in m.clusters)
        )
    return _perturb_hmm(m, weight, rng)


def _em_once(m: Model, data, design, control: FitControl):
    flagged: set = set()
    trace: list[float] = []
    prev = None
    iterations = 0
    converged_by = "max_iter"
    for _ in range(control.em_max_iter):
        stats = expected_stats(m, data, threads=control.threads, design=design)
        ll = stats.loglik
        if not np.isfinite(ll):
            raise NonFiniteLikelihood(f"log-likelihood became {ll!r} during EM")
        trace.append(ll)
        if prev is not None and abs(ll - prev) / (abs(ll) + 0.1) < control.em_rel_tol:
            converged_by = "em_tol"
            break
        m = _m_step(m, stats, design, flagged)
        prev = ll
        iterations += 1
    else:
        # iteration cap: evaluate the final model so loglik matches it
        ll = log_likelihood(m, data, design, threads=control.threads)
        trace.append(ll)
    diagnostics = [
        f"empty_posterior: {w} kept at current values" for w in sorted(flagged)
    ]
    return m, trace[-1], iterations, converged_by, trace, diagnostics


def fit_em(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    control: Optional[FitControl] = None,
) -> FitResult:
    """Baum-Welch estimation with optional randomized restarts.

    Only free (unmasked) probabilities are updated; structural zeros stay
    at exactly zero.  With ``restarts > 0`` the run from the supplied model
    is followed by perturbed runs (each free row convexly mixed with a
    Dirichlet(1) draw, weight ``restart_perturb``) and the best final
    log-likelihood wins.
    """
    control = control or FitControl()
    if isinstance(m, MixtureModel):
        design = _mixture_design(m, data, design)
    runs = []
    for r in range(control.restarts + 1):
        if r == 0:
            start = m
        else:
            start = _perturb(m, control.restart_perturb, np.random.default_rng(control.seed + r))
        runs.append(_em_once(start, data, design, control))
    best = max(runs, key=lambda run: run[1])
    model, ll, iters, converged_by, trace, diagnostics = best
    return FitResult(
        model=model,
        loglik=ll,
        restart_logliks=[run[1] for run in runs],
        em_iterations=iters,
        local_iterations=0,
        converged_by=converged_by,
        loglik_trace=trace,
        diagnostics=diagnostics,
    )


# ----------------------------------------------------------------------
# unconstrained reparameterization
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _RowSpec:
    kind: str  # "init" | "trans" | "emis"
    cluster: int  # 0 for plain HMMs
    channel: int  # -1 unless kind == "emis"
    row: int
    free: np.ndarray  # indices of free entries within the row
    sl: slice  # coordinates in theta (len(free) - 1 wide)


class ParameterMap:
    """Bijection between a model's free probabilities (+ gamma) and a flat
    vector.

    Each probability row maps to ``len(free) - 1`` log-ratio coordinates,
    a softmax anchored at the row's first free entry; masked entries have
    no coordinates.  For mixtures the gamma columns 2..K are appended
    column-major.  The vector length equals the model's free parameter
    count.
    """

    def __init__(self, model: Model):
        self.template = model
        self.is_mixture = isinstance(model, MixtureModel)
        hmms = model.clusters if self.is_mixture else (model,)
        self.rows: list[_RowSpec] = []
        pos = 0

        def add(kind, k, c, s, mask_row):
            nonlocal pos
            free = np.where(~mask_row)[0]
            width = max(len(free) - 1, 0)
            self.rows.append(_RowSpec(kind, k, c, s, free, slice(pos, pos + width)))
            pos += width

        for k, hmm in enumerate(hmms):
            add("init", k, -1, 0, hmm.initial_mask)
            for s in range(hmm.n_states):
                add("trans", k, -1, s, hmm.transition_mask[s])
            for c in range(hmm.n_channels):
                for s in range(hmm.n_states):
                    add("emis", k, c, s, hmm.emission_masks[c][s])
        if self.is_mixture:
            Q, K = model.gamma.shape
            self.gamma_slice = slice(pos, pos + Q * (K - 1))
            pos += Q * (K - 1)
        else:
            self.gamma_slice = slice(pos, pos)
        self.n_params = pos

    def _row_values(self, model, spec: _RowSpec) -> np.ndarray:
        hmm = model.clusters[spec.cluster] if self.is_mixture else model
        if spec.kind == "init":
            return hmm.initial
        if spec.kind == "trans":
            return hmm.transition[spec.row]
        return hmm.emissions[spec.channel][spec.row]

    def pack(self, model: Optional[Model] = None) -> np.ndarray:
        model = model if model is not None else self.template
        theta = np.empty(self.n_params)
        for spec in self.rows:
            if len(spec.free) < 2:
                continue
            p = np.maximum(self._row_values(model, spec)[spec.free], _LOG_CLAMP)
            theta[spec.sl] = np.log(p[1:]) - np.log(p[0])
        if self.is_mixture:
            theta[self.gamma_slice] = model.gamma[:, 1:].ravel(order="F")
        return theta

    def unpack(self, theta: np.ndarray) -> Model:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise DimensionMismatch(
                f"theta has shape {theta.shape}, expected ({self.n_params},)"
            )
        hmms = self.template.clusters if self.is_mixture else (self.template,)
        news = [
            {
                "initial": h.initial.copy(),
                "transition": h.transition.copy(),
                "emissions": [b.copy() for b in h.emissions],
            }
            for h in hmms
        ]
        for spec in self.rows:
            if len(spec.free) == 0:
                continue
            if len(spec.free) == 1:
                vals = np.ones(1)
            else:
                u = np.concatenate([[0.0], theta[spec.sl]])
                u -= u.max()
                e = np.exp(u)
                vals = e / e.sum()
            tgt = news[spec.cluster]
            if spec.kind == "init":
                tgt["initial"][spec.free] = vals
            elif spec.kind == "trans":
                tgt["transition"][spec.row, spec.free] = vals
            else:
                tgt["emissions"][spec.channel][spec.row, spec.free] = vals
        rebuilt = [
            h.with_params(**params) for h, params in zip(hmms, news)
        ]
        if self.is_mixture:
            Q, K = self.template.gamma.shape
            gamma = np.zeros((Q, K))
            gamma[:, 1:] = theta[self.gamma_slice].reshape(Q, K - 1, order="F")
            return replace(self.template, clusters=tuple(rebuilt), gamma=gamma)
        return rebuilt[0]


def _gradient_at(model: Model, data, design, pmap: ParameterMap, threads=1):
    """Analytic gradient and log-likelihood at the model's current values."""
    stats = expected_stats(model, data, threads=threads, design=design)
    hmms = model.clusters if pmap.is_mixture else (model,)
    per_cluster = stats.clusters or (stats,)
    grad = np.empty(pmap.n_params)
    for spec in pmap.rows:
        if len(spec.free) < 2:
            continue
        hmm, st = hmms[spec.cluster], per_cluster[spec.cluster]
        if spec.kind == "init":
            counts = st.gamma1.sum(axis=0)
            probs = hmm.initial
        elif spec.kind == "trans":
            counts = st.xi[spec.row]
            probs = hmm.transition[spec.row]
        else:
            counts = st.emis_num[spec.channel][spec.row]
            probs = hmm.emissions[spec.channel][spec.row]
        total = counts[spec.free].sum()
        grad[spec.sl] = counts[spec.free][1:] - probs[spec.free][1:] * total
    if pmap.is_mixture:
        w = mixture_weights(model.gamma, design.X)
        g_gamma = design.X.T @ (stats.rho - w)  # (Q, K)
        grad[pmap.gamma_slice] = g_gamma[:, 1:].ravel(order="F")
    return grad, stats.loglik


def loglik_gradient(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    theta: Optional[np.ndarray] = None,
    threads: int = 1,
) -> np.ndarray:
    """Gradient of the log-likelihood on the unconstrained parameterization.

    With ``theta`` given, the gradient is evaluated there; otherwise at the
    model's current values.  Coordinates follow ``ParameterMap`` order and
    the vector length equals the free parameter count.
    """
    pmap = ParameterMap(m)
    if isinstance(m, MixtureModel):
        design = _mixture_design(m, data, design)
    if theta is not None:
        m = pmap.unpack(theta)
    return _gradient_at(m, data, design, pmap, threads)[0]


def fit_local(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    control: Optional[FitControl] = None,
) -> FitResult:
    """Polish an estimate by L-BFGS-B on ``ParameterMap`` coordinates.

    Minimizes the negative log-likelihood with its analytic gradient until
    the gradient max-norm drops below ``local_grad_tol`` or for at most
    ``local_max_iter`` iterations; a failed line search returns the last
    accepted iterate with a diagnostic.  Each iterate improves on the one
    before, so the final log-likelihood never falls below the starting one.
    """
    # deferred: importing scipy.optimize costs every CLI process ~0.2 s
    from scipy.optimize import minimize

    control = control or FitControl()
    if isinstance(m, MixtureModel):
        design = _mixture_design(m, data, design)
    pmap = ParameterMap(m)
    trace: list[float] = []

    def objective(theta):
        try:
            grad, ll = _gradient_at(pmap.unpack(theta), data, design, pmap, control.threads)
        except NonFiniteLikelihood:
            grad, ll = np.zeros_like(theta), -np.inf
        if not trace:
            if not np.isfinite(ll):
                raise NonFiniteLikelihood("starting point has non-finite log-likelihood")
            trace.append(ll)
        return -ll, -grad

    def record(intermediate_result):
        trace.append(-float(intermediate_result.fun))

    res = minimize(
        objective,
        pmap.pack(m),
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={"maxiter": control.local_max_iter, "gtol": control.local_grad_tol, "ftol": 0.0},
    )
    converged = float(np.max(np.abs(res.jac), initial=0.0)) < control.local_grad_tol
    diagnostics = []
    # status 2 is also scipy's answer for an empty parameter vector
    if res.status == 2 and not converged:
        diagnostics.append("line_search_failure: returning best point found")
    return FitResult(
        model=pmap.unpack(res.x),
        # after a failed line search res.fun is the rejected trial's value;
        # the trace ends at the value of res.x
        loglik=trace[-1],
        restart_logliks=[],
        em_iterations=0,
        local_iterations=res.nit,
        converged_by="grad_tol" if converged else "max_iter",
        loglik_trace=trace,
        diagnostics=diagnostics,
    )


def fit_model(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    control: Optional[FitControl] = None,
) -> FitResult:
    """EM (with restarts) followed by the local ascent when requested."""
    control = control or FitControl()
    em = fit_em(m, data, design, control)
    if not control.local_step:
        return em
    loc = fit_local(em.model, data, design, control)
    return FitResult(
        model=loc.model,
        loglik=loc.loglik,
        restart_logliks=em.restart_logliks,
        em_iterations=em.em_iterations,
        local_iterations=loc.local_iterations,
        converged_by=loc.converged_by,
        loglik_trace=em.loglik_trace + loc.loglik_trace[1:],
        diagnostics=em.diagnostics + loc.diagnostics,
    )


# ----------------------------------------------------------------------
# covariate coefficients: Newton M-step and conditional standard errors
# ----------------------------------------------------------------------


@dataclass
class GammaFit:
    gamma: np.ndarray
    converged: bool
    iterations: int
    grad_max: float
    diagnostics: list[str] = field(default_factory=list)


def _gamma_objective(gamma, X, weights):
    w = mixture_weights(gamma, X)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    # zero-weight terms contribute 0 even where log w is -inf
    return float((weights * np.where(weights > 0, logw, 0.0)).sum())


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


def gamma_m_step(
    design: CovariateDesign,
    weights: np.ndarray,
    gamma_init: np.ndarray,
    max_iter: int = 100,
    grad_tol: float = 1e-10,
) -> GammaFit:
    """Newton maximization of sum_i sum_k weights_ik log w_ik(gamma).

    ``weights`` are posterior cluster probabilities (rows sum to one).
    Steps are halved until the objective does not decrease; a singular
    Hessian falls back to a plain gradient step.  When the weights are
    separable the optimum is at infinity and the iteration cap returns the
    current (large) coefficients with ``converged=False``.
    """
    X = design.X
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] != X.shape[0]:
        raise DimensionMismatch("weights rows must match design rows")
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankDeficientDesign("design matrix is rank deficient")
    Q, K = gamma_init.shape
    gamma = np.asarray(gamma_init, dtype=float).copy()
    gamma[:, 0] = 0.0
    diagnostics: list[str] = []
    if K == 1:
        return GammaFit(gamma, True, 0, 0.0, diagnostics)
    grad_max = np.inf
    for it in range(max_iter):
        w = mixture_weights(gamma, X)
        g = (X.T @ (weights - w))[:, 1:]
        grad_max = float(np.max(np.abs(g)))
        if grad_max < grad_tol:
            return GammaFit(gamma, True, it, grad_max, diagnostics)
        H = _gamma_hessian(X, w)
        try:
            step = np.linalg.solve(-H, g.ravel(order="F"))
        except np.linalg.LinAlgError:
            diagnostics.append("singular_hessian: gradient step used")
            step = g.ravel(order="F")
        f0 = _gamma_objective(gamma, X, weights)
        eta = 1.0
        while eta > 1e-12:
            cand = gamma.copy()
            cand[:, 1:] += eta * step.reshape(Q, K - 1, order="F")
            if _gamma_objective(cand, X, weights) >= f0 - 1e-12:
                gamma = cand
                break
            eta *= 0.5
        else:
            diagnostics.append("gamma_step_stalled")
            return GammaFit(gamma, False, it, grad_max, diagnostics)
    diagnostics.append("gamma_iteration_cap")
    return GammaFit(gamma, False, max_iter, grad_max, diagnostics)


def covariate_standard_errors(
    mix: MixtureModel,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
) -> np.ndarray:
    """Conditional standard errors of gamma (other parameters held fixed).

    Uses the same analytic Hessian as the Newton step for gamma, evaluated
    at the estimate; the reference column's errors are zero.
    """
    design = _mixture_design(mix, data, design)
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
