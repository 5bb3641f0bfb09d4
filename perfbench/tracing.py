"""In-process spans around the program's layer functions, and per-layer metrics.

The CLI and library look their collaborators up as module globals at call
time, so replacing ``markovseq.<module>.<name>`` with a timing wrapper puts a
span around every call made through that module.  Spans are kept in memory
and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import markovseq.cli
import markovseq.estimation
import markovseq.inference

LAYERS = ("seqdata", "model", "inference", "estimation", "simulate", "cli")
STAGES = ("simulate", "validate", "fit", "loglik", "bic", "viterbi", "posterior", "summary")


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<what>"
    stage: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "stage": self.stage,
            "parent": self.parent, "start": self.start, "end": self.end,
        }


# (module, attribute, span name); None for a counter that records no span
_SPANS = [
    (markovseq.cli, "ingest_dataset", "seqdata.ingest"),
    (markovseq.cli, "model_from_json", "model.load"),
    (markovseq.cli, "model_to_json", "model.save"),
    (markovseq.cli, "combine_clusters", "model.combine"),
    (markovseq.inference, "combine_clusters", "model.combine"),
    (markovseq.estimation, "combine_clusters", "model.combine"),
    (markovseq.inference, "emission_probs", "inference.emission"),
    (markovseq.estimation, "emission_probs", "inference.emission"),
    (markovseq.cli, "log_likelihood", "inference.loglik"),
    (markovseq.inference, "log_likelihood", "inference.loglik"),
    (markovseq.estimation, "log_likelihood", "inference.loglik"),
    (markovseq.cli, "information_criteria", "inference.criteria"),
    (markovseq.inference, "information_criteria", "inference.criteria"),
    (markovseq.cli, "viterbi_paths", "inference.viterbi"),
    (markovseq.cli, "posterior_state_probs", "inference.posterior"),
    (markovseq.inference, "cluster_logliks", "inference.cluster_loglik"),
    (markovseq.cli, "mixture_summary", "inference.summary"),
    (markovseq.cli, "fit_model", "estimation.fit"),
    (markovseq.estimation, "fit_em", "estimation.em"),
    (markovseq.estimation, "expected_stats", "estimation.estep"),
    (markovseq.estimation, "gamma_m_step", "estimation.gamma_newton"),
    (markovseq.estimation, "fit_local", "estimation.local"),
    (markovseq.cli, "simulate_hmm_data", "simulate.draw"),
    (markovseq.cli, "simulate_mhmm_data", "simulate.draw"),
    (markovseq.inference, "_fb_scaled", None),
    (markovseq.inference, "_fb_log", None),
    (markovseq.estimation, "_fb_scaled", None),
    (markovseq.estimation, "_em_once", None),
]


class Tracer:
    """Records spans and exact work counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._stage = ""
        self._saved: list = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for module, attr, name in _SPANS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, attr, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def stage(self, stage: str, call):
        """Run one CLI stage as a root span named ``cli.<stage>``."""
        self._stage = stage
        return self._timed(f"cli.{stage}", call)

    # -- recording -----------------------------------------------------

    def _timed(self, name, call, *args, **kwargs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self._stage, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return call(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    def _wrap(self, fn, attr, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = self._timed(name, fn, *args, **kwargs)
            self._count(attr, args, result)
            return result

        return wrapper

    def _count(self, attr, args, result) -> None:
        c = self.counts
        if attr == "ingest_dataset":
            data = result[0]
            c["ingest_cells"] += data.n_subjects * data.n_time * data.n_channels
        elif attr == "emission_probs":
            model, data = args[0], args[1]
            c["emission_bytes"] += data.n_subjects * data.n_time * model.n_states * 8
        elif attr in ("_fb_scaled", "_fb_log"):
            N, T, S = args[3].shape
            c["forward_ops"] += N * T * S * S
        elif attr == "_em_once":
            c["em_iterations"] += result[2]
        elif attr == "gamma_m_step":
            c["gamma_newton_iters"] += result.iterations
        elif attr == "fit_local":
            c["local_iters"] += result.local_iterations
        elif attr == "log_likelihood" and self._inside("estimation.local"):
            c["linesearch_evals"] += 1
        elif attr == "fit_em":
            runs, tol = result.restart_logliks, args[3].em_rel_tol
            best = max(runs)
            c["restarts_run"] += len(runs)
            c["restarts_at_best"] += sum(best - ll <= tol * abs(best) for ll in runs)
        elif attr in ("simulate_hmm_data", "simulate_mhmm_data"):
            c["simulated_subjects"] += args[2] if attr == "simulate_mhmm_data" else args[1]


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> tuple[list[float], list[str]]:
    """Per-span self time (duration minus child spans) and nesting errors."""
    own = [s.end - s.start for s in spans]
    errors = []
    for s in spans:
        if s.parent is None:
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            errors.append(f"span {s.name} escapes its parent {p.name}")
        own[p.id] -= s.end - s.start
    return own, errors


def stage_accounting(spans: list[Span], own: list[float]) -> list[str]:
    """Check that layer self times plus the stage's own self time add up to it."""
    errors = []
    for root in (s for s in spans if s.parent is None):
        inside = sum(own[s.id] for s in spans if s.stage == root.stage)
        total = root.end - root.start
        if abs(inside - total) > 1e-6 * max(total, 1.0):
            errors.append(f"stage {root.stage}: self times sum to {inside} of {total}")
    return errors


def layer_metrics(
    spans: list[Span], counts: Counter, bytes_written: dict, import_s: float
) -> dict:
    """Per-layer metrics of one traced pipeline run, as name -> (value, unit)."""
    own, _ = self_times(spans)
    total: Counter = Counter()
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for s in spans:
        total[s.name] += s.end - s.start
        self_by_name[s.name] += own[s.id]
        calls[s.name] += 1
        layer_self[s.layer] += own[s.id]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "seqdata.ingest_s": (total["seqdata.ingest"], "s"),
        "seqdata.ingest_calls": (calls["seqdata.ingest"], "count"),
        "seqdata.cells_per_s": (rate(counts["ingest_cells"], total["seqdata.ingest"]), "1/s"),
        "model.load_s": (total["model.load"], "s"),
        "model.save_s": (total["model.save"], "s"),
        "model.combine_s": (total["model.combine"], "s"),
        "model.combine_calls": (calls["model.combine"], "count"),
        "inference.emission_s": (total["inference.emission"], "s"),
        "inference.emission_calls": (calls["inference.emission"], "count"),
        "inference.emission_mb": (counts["emission_bytes"] / 1e6, "MB_computed"),
        "inference.forward_ops": (counts["forward_ops"], "ops_computed"),
        "inference.loglik_s": (total["inference.loglik"], "s"),
        "inference.viterbi_s": (total["inference.viterbi"], "s"),
        "inference.posterior_s": (total["inference.posterior"], "s"),
        "inference.cluster_loglik_s": (total["inference.cluster_loglik"], "s"),
        "estimation.estep_s": (total["estimation.estep"], "s"),
        "estimation.estep_calls": (calls["estimation.estep"], "count"),
        "estimation.estep_self_s": (self_by_name["estimation.estep"], "s"),
        "estimation.em_self_s": (self_by_name["estimation.em"], "s"),
        "estimation.em_iterations": (counts["em_iterations"], "count"),
        "estimation.em_iters_per_s": (rate(counts["em_iterations"], total["estimation.em"]), "1/s"),
        "estimation.gamma_newton_s": (total["estimation.gamma_newton"], "s"),
        "estimation.gamma_newton_iters": (counts["gamma_newton_iters"], "count"),
        "estimation.local_s": (total["estimation.local"], "s"),
        "estimation.local_iters": (counts["local_iters"], "count"),
        "estimation.linesearch_evals": (counts["linesearch_evals"], "count"),
        "estimation.linesearch_accept_ratio": (
            rate(counts["local_iters"], counts["linesearch_evals"]), "ratio"),
        "estimation.restart_best_ratio": (
            rate(counts["restarts_at_best"], counts["restarts_run"]), "ratio"),
        "simulate.draw_s": (total["simulate.draw"], "s"),
        "simulate.subjects_per_s": (
            rate(counts["simulated_subjects"], total["simulate.draw"]), "1/s"),
        "cli.import_s": (import_s, "s"),
    }
    cli_self = 0.0
    for stage in STAGES:
        stage_self = self_by_name[f"cli.{stage}"]
        cli_self += stage_self
        m[f"cli.{stage}.self_s"] = (stage_self, "s")
        m[f"cli.{stage}.bytes_written"] = (bytes_written.get(stage, 0), "bytes")
    m["cli.write_mb_per_s"] = (rate(sum(bytes_written.values()) / 1e6, cli_self), "MB/s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m


# derived from array shapes, not measured
COMPUTED = ("inference.emission_mb", "inference.forward_ops")
# metrics that are exact counts and must repeat exactly between runs
EXACT = (
    "seqdata.ingest_calls",
    "model.combine_calls",
    "inference.emission_calls",
    "inference.emission_mb",
    "inference.forward_ops",
    "estimation.estep_calls",
    "estimation.em_iterations",
    "estimation.gamma_newton_iters",
    "estimation.local_iters",
    "estimation.linesearch_evals",
    "estimation.linesearch_accept_ratio",
    "estimation.restart_best_ratio",
    *(f"cli.{stage}.bytes_written" for stage in STAGES),
)
