"""Maximum-likelihood estimation for HMMs and mixture HMMs.

Fitting is organized around three pieces:

* ``fit_em`` runs Baum-Welch (with a multinomial-logit Newton step for the
  covariate coefficients of mixtures), optionally restarted from randomly
  perturbed starting values; the best restart wins.  Each run is
  accelerated by SQUAREM (``_em_once``): two EM maps give a squared
  extrapolation in probability space (plus gamma), accepted only if it is a
  valid model that scores at least as well as the first map's output, so
  EM's fixed points and monotone log-likelihood trace are kept with fewer
  E-steps.  ``em_max_iter`` caps the E-steps of each run.
* ``fit_local`` polishes an estimate with a numpy L-BFGS (``_lbfgs``,
  weak-Wolfe line search) on an unconstrained reparameterization: each
  probability row is written as a softmax over its free entries anchored
  at the row's first free entry, so structural zeros stay out of the
  parameter vector.  The coordinates are unbounded, so L-BFGS-B's bounds
  would go unused; the numpy version spares each process the 0.5-0.7 s
  that importing ``scipy.optimize`` takes after numpy (2-core Xeon VM).
* ``loglik_gradient`` supplies the analytic gradient on that
  parameterization, assembled from forward-backward expectations.

The M-step, the restart perturbation, SQUAREM's vector, the parameter map
and the gradient all walk a model's probability rows in the one layout of
``model._blocks``, a block of rows at a time, and so do the counts of an
E-step record (``EStats``), which the kernel returns in that layout.

Free probability entries may reach 0 during EM; packing such a model
clamps the log-ratio coordinates at a large negative value, which leaves
the likelihood unchanged to double precision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    ImpossibleData,
    MarkovSeqError,
    NumericalUnderflow,
    RankDeficientDesign,
    check_count,
    check_instance,
    check_real,
)
from .inference import _evaluate, _Workspace

# kept importable here: perfbench/tracing.py wraps these names in this module
from .inference import _fb_scaled, emission_probs, log_likelihood  # noqa: F401
from .model import combine_clusters  # noqa: F401
from .model import HmmModel, MixtureModel, _blocks, _gamma_hessian, _mixture_design, _with_blocks
from .model import mixture_weights
from .seqdata import CovariateDesign, SequenceDataset

Model = Union[HmmModel, MixtureModel]

_LOG_CLAMP = 1e-290  # free entries at exactly 0 map to log-odds ~ -668

# SQUAREM halves a rejected step length alpha toward -1 (the plain EM step)
# and takes the EM step once alpha is within 1/16 of it
_SQUAREM_MIN_STEP = -1.0 - 1.0 / 16


@dataclass(frozen=True)
class FitControl:
    """Knobs for the EM and local-ascent steps.

    ``restarts`` perturbed EM runs are added to the run from the given
    starting values; restart r draws from a generator seeded ``seed + r``.
    ``em_max_iter`` caps the E-steps of each EM run, SQUAREM's proposals
    (rejected ones included) as well as its EM maps; ``em_rel_tol`` stops a
    run when one EM map changes the log-likelihood by less than that,
    relative.  ``threads``, an integer >= 1, only distributes per-subject
    work and never changes results.  The counts and ``seed`` are integers >= 0.
    The settings are frozen once checked.
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
        # stored as the checks return them, plain ints and floats, so to_dict is JSON
        lows = dict(em_max_iter=0, restarts=0, local_max_iter=0, seed=0, threads=1)
        checked = {name: check_count(getattr(self, name), name, low) for name, low in lows.items()}
        for name, high in dict(em_rel_tol=np.inf, local_grad_tol=np.inf, restart_perturb=1).items():
            checked[name] = check_real(getattr(self, name), name, 0, high, open_low=True)
        check_instance(self.local_step, bool, "FitControl.local_step")
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """Every setting but ``threads``, which never changes results."""
        return {k: v for k, v in asdict(self).items() if k != "threads"}


@dataclass
class FitResult:
    """Outcome of a fit: best model, its log-likelihood, and run diagnostics.

    ``em_iterations`` counts the E-steps of the best EM run, rejected SQUAREM
    proposals included (the count ``em_max_iter`` caps); ``loglik_trace``
    holds the log-likelihood of every accepted EM point, then of every
    accepted local-step iterate.  ``fit_em`` reports no local iterations and
    ``fit_local`` no restarts or E-steps; ``fit_model`` merges the two.
    """

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

    ``counts`` holds one array per ``model._blocks`` block, in that order:
    per cluster the expected initial-state counts as one (1, S_k) row, the
    expected transitions (S_k, S_k), then each channel's expected symbol
    counts (S_k, M_c), whose row sums are the expected occupancy of
    observed cells.  A mixture's counts are weighted by the posterior
    cluster probabilities ``rho``, so cluster k's initial row sums to
    sum_i rho_ik.  The initial rows are summed over all subjects at once,
    the other counts chunk by chunk in chunk order (see ``_scaled_pass``),
    so they depend neither on the thread count nor on whether a fit's
    workspace was passed.
    """

    loglik: float
    rho: np.ndarray  # (N, K) posterior cluster probabilities; ones (N, 1) for an HMM
    counts: list[np.ndarray]


def expected_stats(
    model: Model,
    data: SequenceDataset,
    subject_initials=None,
    threads: int = 1,
    design: Optional[CovariateDesign] = None,
    workspace: Optional[_Workspace] = None,
) -> EStats:
    """E-step statistics from one pass of the chunked scaled kernel.

    ``subject_initials`` overrides a plain HMM's initial vectors; a mixture
    takes them from ``design``.  ``workspace``, built once per fit from
    ``data``, carries the kernel's chunk codes and scratch arrays from one
    E-step to the next; without it the pass builds its own.  A subject the
    model cannot produce raises ImpossibleData, as the kernel decides.
    """
    ll, rho, counts = _evaluate(
        model, data, "stats", design, "scaled", threads, subject_initials, workspace
    )
    return EStats(float(ll.sum()), rho, counts)


def _m_step(m: Model, stats: EStats, design, flagged: set) -> Model:
    """M-step: every count row normalized (rows without mass keep their
    current values and are named in ``flagged``), then a mixture's
    covariate coefficients."""
    mixture = isinstance(m, MixtureModel)
    values = []
    for b, counts in zip(_blocks(m), stats.counts):
        totals = counts.sum(axis=-1, keepdims=True)
        empty = np.flatnonzero(~(totals > 0))
        prefix = f"cluster {b.cluster} {b.where}" if mixture else b.where
        flagged.update(prefix if b.where == "initial" else f"{prefix} row {s}" for s in empty)
        values.append(np.divide(counts, totals, out=b.values.copy(), where=totals > 0))
    gamma = None
    if mixture and m.n_clusters > 1:
        gamma = gamma_m_step(design, stats.rho, m.gamma).gamma
    return _with_blocks(m, values, gamma=gamma)


# ----------------------------------------------------------------------
# EM driver with restarts
# ----------------------------------------------------------------------


def _perturb(m: Model, weight: float, rng) -> Model:
    """Mix every row with at least two free entries with a Dirichlet(1) draw
    over them, one draw per row in ``_blocks`` order."""
    values = []
    for b in _blocks(m):
        out = b.values.copy()
        for row, free in zip(out, ~b.mask):
            k = int(free.sum())
            if k >= 2:
                row[free] = (1.0 - weight) * row[free] + weight * rng.dirichlet(np.ones(k))
        values.append(out)
    return _with_blocks(m, values)


def _em_vector(m: Model) -> np.ndarray:
    """Every probability of a model in ``_blocks`` order, then a mixture's
    gamma, as one flat vector (the space SQUAREM extrapolates in)."""
    parts = [b.values.ravel() for b in _blocks(m)]
    if isinstance(m, MixtureModel):
        parts.append(m.gamma.ravel())
    return np.concatenate(parts)


def _em_model(template: Model, x: np.ndarray) -> Model:
    """The inverse of ``_em_vector``, checked like any new model: values that
    are not a valid model raise a MarkovSeqError."""
    blocks = _blocks(template)
    *parts, rest = np.split(x, np.cumsum([b.values.size for b in blocks]))
    values = [p.reshape(b.values.shape) for p, b in zip(parts, blocks)]
    if not isinstance(template, MixtureModel):
        return _with_blocks(template, values)
    return _with_blocks(template, values, gamma=rest.reshape(template.gamma.shape))


class _EmRun(NamedTuple):
    model: Model
    loglik: float
    e_steps: int
    converged_by: str
    trace: list[float]
    diagnostics: list[str]


def _em_once(m: Model, data, design, control: FitControl, workspace) -> _EmRun:
    """One EM run from ``m`` by SQUAREM cycles (SqS3, Varadhan & Roland 2008).

    A cycle takes two EM maps, theta1 = F(theta0) and theta2 = F(theta1),
    sets r = theta1 - theta0, v = theta2 - 2 theta1 + theta0 and
    alpha = min(-|r| / |v|, -1), and proposes theta0 - 2 alpha r + alpha^2 v
    in the space of ``_em_vector``.  The proposal is accepted if it is a
    valid model whose E-step does not raise and whose log-likelihood is at least
    theta1's; otherwise alpha is halved toward -1, where the proposal is
    theta2, the plain EM step, which is taken without a test.  One EM map from
    the accepted point starts the next cycle.  Masked entries and gamma's
    reference column are 0 in all three points, so they stay exactly 0.

    ``loglik_trace`` holds the log-likelihood of every accepted point, so it
    is monotone as plain EM's is; rejected proposals never enter it.  The run
    stops by tolerance when an EM map (not an extrapolation) changes the
    log-likelihood by less than ``em_rel_tol`` relative, and by the cap after
    ``em_max_iter`` E-steps, rejected proposals included.  The model a capped
    run holds then (the start or an EM map's output) is scored by a forward
    pass in the workspace, which is not counted.
    """
    flagged: set = set()
    trace: list[float] = []
    e_steps = 0

    def e_step(model):
        nonlocal e_steps
        e_steps += 1
        return expected_stats(
            model, data, threads=control.threads, design=design, workspace=workspace
        )

    def accepted(stats, em_map=True):
        """Record an accepted point; True when the EM map into it has converged."""
        ll = stats.loglik
        prev = trace[-1] if trace else None
        trace.append(ll)
        return em_map and prev is not None and abs(ll - prev) / (abs(ll) + 0.1) < control.em_rel_tol

    def done(model, converged_by):
        diagnostics = [f"empty_posterior: {w} kept at current values" for w in sorted(flagged)]
        return _EmRun(model, trace[-1], e_steps, converged_by, trace, diagnostics)

    cap = control.em_max_iter
    current = m  # the point whose E-step comes next
    while e_steps < cap:
        stats0 = e_step(current)
        if accepted(stats0):
            return done(current, "em_tol")
        theta1 = _m_step(current, stats0, design, flagged)
        if e_steps == cap:
            current = theta1
            break
        stats1 = e_step(theta1)
        if accepted(stats1):
            return done(theta1, "em_tol")
        theta2 = _m_step(theta1, stats1, design, flagged)
        x0 = _em_vector(current)
        r = _em_vector(theta1) - x0
        v = _em_vector(theta2) - x0 - 2.0 * r
        current = theta2
        norm_v = float(np.linalg.norm(v))
        alpha = min(-float(np.linalg.norm(r)) / norm_v, -1.0) if norm_v > 0 else -1.0
        point = stats = None
        while alpha < _SQUAREM_MIN_STEP and e_steps < cap:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    point = _em_model(current, x0 - 2.0 * alpha * r + alpha * alpha * v)
                stats = e_step(point)
            except MarkovSeqError:  # not a valid model, or an E-step that raised
                stats = None
            if stats is not None and stats.loglik >= stats1.loglik:
                break
            point = stats = None
            alpha = 0.5 * (alpha - 1.0)
        if point is None:
            if e_steps == cap:
                break
            point, stats = theta2, e_step(theta2)
        if accepted(stats, em_map=point is theta2):
            return done(point, "em_tol")
        current = _m_step(point, stats, design, flagged)
    # E-step cap: score the last EM map's output by a forward pass, as
    # log_likelihood would but in the workspace
    ll = _evaluate(current, data, "loglik", design, threads=control.threads, workspace=workspace)[0]
    trace.append(float(ll.sum()))
    return done(current, "max_iter")


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
    log-likelihood wins.  All restarts share one kernel workspace.  Each
    run is driven by SQUAREM cycles (see ``_em_once``), which reach the
    same fixed points as plain EM in fewer E-steps; ``em_max_iter`` caps
    the E-steps of each run and ``em_iterations`` reports the best run's.
    """
    control = FitControl() if control is None else check_instance(control, FitControl, "fit_em")
    workspace = _Workspace(data)
    design = _mixture_design(m, data.n_subjects, design)
    runs = []
    for r in range(control.restarts + 1):
        if r == 0:
            start = m
        else:
            start = _perturb(m, control.restart_perturb, np.random.default_rng(control.seed + r))
        runs.append(_em_once(start, data, design, control, workspace))
    best = max(runs, key=lambda run: run.loglik)
    return FitResult(
        model=best.model,
        loglik=best.loglik,
        restart_logliks=[run.loglik for run in runs],
        em_iterations=best.e_steps,
        local_iterations=0,
        converged_by=best.converged_by,
        loglik_trace=best.trace,
        diagnostics=best.diagnostics,
    )


# ----------------------------------------------------------------------
# unconstrained reparameterization
# ----------------------------------------------------------------------


class ParameterMap:
    """Bijection between a model's free probabilities (+ gamma) and a flat
    vector.

    Each probability row maps to ``free - 1`` log-ratio coordinates, a
    softmax anchored at the row's first free entry; masked entries have no
    coordinates.  Coordinates follow ``_blocks`` order, row by row.  For
    mixtures the gamma columns 2..K are appended column-major.  The vector
    length equals the model's free parameter count.
    """

    def __init__(self, model: Model):
        self.template = check_instance(model, (HmmModel, MixtureModel), "ParameterMap")
        self.is_mixture = isinstance(model, MixtureModel)
        self.free, self.anchors, self.coords = [], [], []
        for b in _blocks(model):
            free = ~b.mask
            anchor = free.argmax(axis=-1)[:, None]  # first free entry of each row
            coord = free.copy()
            np.put_along_axis(coord, anchor, False, axis=-1)
            self.free.append(free)
            self.anchors.append(anchor)
            self.coords.append(coord)
        self.ends = np.cumsum([c.sum() for c in self.coords])
        self.n_params = int(self.ends[-1])
        if self.is_mixture:
            Q, K = model.gamma.shape
            self.n_params += Q * (K - 1)

    def pack(self, model: Optional[Model] = None) -> np.ndarray:
        model = model if model is not None else self.template
        parts = []
        for b, anchor, coord in zip(_blocks(model), self.anchors, self.coords):
            logp = np.log(np.maximum(b.values, _LOG_CLAMP))
            parts.append((logp - np.take_along_axis(logp, anchor, axis=-1))[coord])
        if self.is_mixture:
            parts.append(model.gamma[:, 1:].ravel(order="F"))
        return np.concatenate(parts)

    def unpack(self, theta: np.ndarray) -> Model:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise DimensionMismatch(
                f"theta has shape {theta.shape}, expected ({self.n_params},)"
            )
        *parts, rest = np.split(theta, self.ends)
        values = []
        for free, coord, t in zip(self.free, self.coords, parts):
            u = np.where(free, 0.0, -np.inf)  # masked entries get exp(-inf) = 0
            u[coord] = t
            u -= u.max(axis=-1, keepdims=True)
            e = np.exp(u)
            values.append(e / e.sum(axis=-1, keepdims=True))
        if not self.is_mixture:
            return _with_blocks(self.template, values)
        gamma = np.zeros_like(self.template.gamma)
        gamma[:, 1:] = rest.reshape(gamma.shape[0], -1, order="F")
        return _with_blocks(self.template, values, gamma=gamma)


def _gradient(model: Model, stats: EStats, pmap: ParameterMap, design) -> np.ndarray:
    """Analytic gradient at the model's current values from its E-step
    record ``stats``: per row, counts minus probabilities times the row's
    total count, over the row's coordinates."""
    parts = []
    blocks = zip(_blocks(model), stats.counts, pmap.free, pmap.coords)
    for b, counts, free, coord in blocks:
        counts = np.where(free, counts, 0.0)
        parts.append((counts - b.values * counts.sum(axis=-1, keepdims=True))[coord])
    if pmap.is_mixture:
        w = mixture_weights(model.gamma, design.X)
        g_gamma = design.X.T @ (stats.rho - w)  # (Q, K)
        parts.append(g_gamma[:, 1:].ravel(order="F"))
    return np.concatenate(parts)


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
    if theta is not None:
        m = pmap.unpack(theta)
    stats = expected_stats(m, data, threads=threads, design=design)
    return _gradient(m, stats, pmap, _mixture_design(m, data.n_subjects, design))


# L-BFGS settings: scipy's default memory (maxcor) and the usual weak-Wolfe
# constants; a line search that needs more trials than L-BFGS-B's backtrack
# limit gives up
_LBFGS_MEMORY = 10
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_MAX_TRIALS = 20


def _lbfgs(fun, x, max_iter, grad_tol, callback):
    """Minimize ``fun`` (returning value and gradient) by L-BFGS from ``x``.

    Iterates until the gradient max-norm drops below ``grad_tol`` or for
    ``max_iter`` accepted steps; ``callback(f)`` sees each accepted value.
    Steps satisfy the weak Wolfe conditions, with a first trial of
    1/||d|| on the first iteration and 1 afterwards.  A line search that
    fails with curvature pairs in memory is retried along -g with the memory
    cleared, as L-BFGS-B does.  Returns ``(x, g, iterations, failed)``,
    where ``failed`` marks a line search that found no acceptable step.
    """
    f, g = fun(x)
    pairs = deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / s.y), oldest first
    n_iter = 0
    while np.max(np.abs(g), initial=0.0) >= grad_tol and n_iter < max_iter:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        d = -q
        slope = g @ d
        found = None
        if slope < 0:
            step = 1.0 / np.linalg.norm(d) if n_iter == 0 else 1.0
            found = _wolfe_step(fun, x, f, slope, d, step)
        if found is None:
            if pairs:
                pairs.clear()
                continue
            return x, g, n_iter, True
        step, f, g_new = found
        s, y = step * d, g_new - g
        if s @ y > 0:
            pairs.append((s, y, 1.0 / (s @ y)))
        x, g = x + s, g_new
        n_iter += 1
        callback(f)
    return x, g, n_iter, False


def _wolfe_step(fun, x, f, slope, d, step):
    """Weak-Wolfe line search along the descent direction ``d``.

    A trial failing the sufficient-decrease test shrinks the bracket by
    safeguarded quadratic interpolation (to 0.1-0.5 of its width); one
    failing the curvature test moves the lower end up and extrapolates x4.
    A non-finite trial value fails the decrease test.  Returns
    ``(step, f, g)`` at the accepted step, or None after ``_MAX_TRIALS``.
    """
    lo, f_lo, slope_lo, hi = 0.0, f, slope, np.inf
    for _ in range(_MAX_TRIALS):
        f_new, g_new = fun(x + step * d)
        # written as a difference, a trial that leaves f unchanged fails
        if not f_new - f <= _WOLFE_C1 * step * slope:
            hi = step
            width = hi - lo
            curve = f_new - f_lo - slope_lo * width
            tau = -slope_lo * width / (2.0 * curve) if curve > 0 else 0.1
            step = lo + width * min(max(tau, 0.1), 0.5)
        elif g_new @ d < _WOLFE_C2 * slope:
            lo, f_lo, slope_lo = step, f_new, g_new @ d
            step = min(4.0 * step, 0.5 * (step + hi))
        else:
            return step, f_new, g_new
    return None


def fit_local(
    m: Model,
    data: SequenceDataset,
    design: Optional[CovariateDesign] = None,
    control: Optional[FitControl] = None,
) -> FitResult:
    """Polish an estimate by L-BFGS on ``ParameterMap`` coordinates.

    Minimizes the negative log-likelihood with its analytic gradient until
    the gradient max-norm drops below ``local_grad_tol`` or for at most
    ``local_max_iter`` iterations; a failed line search returns the last
    accepted iterate with a diagnostic.  Each iterate improves on the one
    before, so the final log-likelihood never falls below the starting one.
    All gradient evaluations share one kernel workspace, built here.  The
    first value and gradient are those of ``m`` itself, and without an
    accepted step ``m`` is returned.  A trial point whose E-step raises
    ImpossibleData or NumericalUnderflow scores +inf; at ``m`` the error
    stands.
    """
    control = FitControl() if control is None else check_instance(control, FitControl, "fit_local")
    pmap, workspace = ParameterMap(m), _Workspace(data)
    design = _mixture_design(m, data.n_subjects, design)
    trace: list[float] = []

    def objective(theta):
        # m itself first: its round trip through the coordinates can move the last bits
        model = pmap.unpack(theta) if trace else m
        try:
            stats = expected_stats(
                model, data, threads=control.threads, design=design, workspace=workspace
            )
        except (ImpossibleData, NumericalUnderflow):
            if not trace:
                raise
            return np.inf, np.zeros_like(theta)
        if not trace:
            trace.append(stats.loglik)
        return -stats.loglik, -_gradient(model, stats, pmap, design)

    theta, grad, n_iter, failed = _lbfgs(
        objective,
        pmap.pack(m),
        control.local_max_iter,
        control.local_grad_tol,
        lambda f: trace.append(-f),
    )
    converged = float(np.max(np.abs(grad), initial=0.0)) < control.local_grad_tol
    diagnostics = []
    if failed:
        diagnostics.append("line_search_failure: returning best point found")
    return FitResult(
        model=pmap.unpack(theta) if n_iter else m,
        loglik=trace[-1],
        restart_logliks=[],
        em_iterations=0,
        local_iterations=n_iter,
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
    """``fit_em``, then ``fit_local`` from its model when ``local_step`` is set.

    The merged result has EM's restart log-likelihoods, E-step count and
    diagnostics first, and the local step's model, log-likelihood,
    iterations and stopping reason; its trace is EM's followed by the local
    step's accepted iterates.
    """
    control = FitControl() if control is None else check_instance(control, FitControl, "fit_model")
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
# covariate coefficients: Newton M-step
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
    gamma = np.array(gamma_init, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != X.shape[0]:
        raise DimensionMismatch("weights rows must match design rows")
    Q, K = X.shape[1], weights.shape[1]
    if gamma.shape != (Q, K):
        raise DimensionMismatch(f"gamma_init shape {gamma.shape}, expected {(Q, K)}")
    max_iter = check_count(max_iter, "max_iter", 0)
    grad_tol = check_real(grad_tol, "grad_tol", 0, np.inf)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankDeficientDesign("design matrix is rank deficient")
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
