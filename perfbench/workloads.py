"""Workload definitions: generated inputs, CLI stage arguments, output checks.

Each workload is a fixed truth model plus a seed-driven data draw.  The
program only ever sees the files written here; every check compares a CLI
artifact with the same quantity computed in-process by the library.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from markovseq import (
    Channel,
    CovariateDesign,
    MixtureModel,
    SequenceDataset,
    build_hmm,
    build_mhmm,
    define_alphabet,
    information_criteria,
    ingest_dataset,
    log_likelihood,
    model_from_json,
    model_to_json,
    posterior_state_probs,
    simulate_hmm_data,
    simulate_mhmm_data,
    viterbi_paths,
)
from markovseq.model import combine_clusters
from markovseq.seqdata import MISSING

N_TIME = 50
REL_TOL = 1e-9
SAMPLE_SUBJECTS = 25  # subjects whose decoded paths / posteriors are re-derived


@dataclass(frozen=True)
class Spec:
    n_subjects: int
    stages: tuple[str, ...]
    # the model every scoring stage reads: the truth, or the fit stage's output
    scores_fitted: bool
    fit_flags: tuple[str, ...]


WORKLOADS = {
    "decode_hmm": Spec(
        2000,
        ("simulate", "validate", "fit", "loglik", "bic", "viterbi", "posterior"),
        scores_fitted=False,
        fit_flags=("--em-max-iter", "2"),
    ),
    "fit_hmm": Spec(
        1000,
        ("validate", "fit", "loglik", "bic", "viterbi", "posterior"),
        scores_fitted=True,
        fit_flags=(
            "--restarts", "1", "--em-rel-tol", "1e-6",
            "--local-step", "--local-max-iter", "10",
        ),
    ),
    "mixture_cov": Spec(
        1000,
        ("validate", "fit", "loglik", "bic", "viterbi", "posterior", "summary"),
        scores_fitted=True,
        fit_flags=(
            "--em-max-iter", "12", "--em-rel-tol", "1e-12",
            "--local-step", "--local-max-iter", "5",
        ),
    ),
}


# ----------------------------------------------------------------------
# fixed truth models (independent of the workload seed)
# ----------------------------------------------------------------------


def _alphabets(sizes):
    return [
        define_alphabet([f"{ch}{j + 1}" for j in range(m)])
        for ch, m in zip("ab", sizes)
    ]


def _sticky_hmm(alphabets, n_states, stay, peak, rng):
    """Diagonal-heavy transitions; emission rows drawn from Dirichlet(peak)."""
    transition = np.full((n_states, n_states), (1.0 - stay) / (n_states - 1))
    np.fill_diagonal(transition, stay)
    emissions = [rng.dirichlet(np.full(a.size, peak), size=n_states) for a in alphabets]
    return build_hmm(
        alphabets,
        initial=np.full(n_states, 1.0 / n_states),
        transition=transition,
        emissions=emissions,
    )


def _halfway(truth, alphabets, rng_seed):
    """A random build_hmm start shrunk halfway toward the truth.

    A fully random start makes EM's iteration count, and so fit time,
    swing by a factor of two between data seeds; halfway keeps it steady.
    """
    rand = build_hmm(alphabets, n_states=truth.n_states, rng_seed=rng_seed)
    return build_hmm(
        alphabets,
        initial=(truth.initial + rand.initial) / 2,
        transition=(truth.transition + rand.transition) / 2,
        emissions=[(a + b) / 2 for a, b in zip(truth.emissions, rand.emissions)],
    )


def _mixture_truth():
    alphabets = _alphabets((6, 4))
    rng = np.random.default_rng(31)
    clusters = [_sticky_hmm(alphabets, 3, 0.85, 0.4, rng) for _ in range(3)]
    gamma = np.array([[0.0, 0.3, -0.2], [0.0, 1.0, -1.0]])
    return alphabets, clusters, gamma


# ----------------------------------------------------------------------
# set-up: write the files the CLI reads
# ----------------------------------------------------------------------


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _write_dataset(out: Path, data: SequenceDataset, covariate=None) -> Path:
    """Wide per-channel CSVs (plus covariates) and the manifest naming them."""
    channels = []
    for c, ch in enumerate(data.channels):
        tokens = np.array(list(ch.alphabet.labels) + [ch.alphabet.missing_token])
        cells = tokens[np.where(ch.codes == MISSING, len(ch.alphabet.labels), ch.codes)]
        lines = ["id," + ",".join(f"t{t + 1}" for t in range(data.n_time))]
        lines += [sid + "," + ",".join(row) for sid, row in zip(data.subject_ids, cells)]
        fname = f"channel{c + 1}.csv"
        (out / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")
        channels.append(
            {
                "name": ch.name,
                "csv": fname,
                "alphabet": list(ch.alphabet.labels),
                "missing_token": ch.alphabet.missing_token,
            }
        )
    manifest = {"id_column": "id", "channels": channels}
    if covariate is not None:
        lines = ["id,x"] + [f"{sid},{float(x)!r}" for sid, x in zip(data.subject_ids, covariate)]
        (out / "covariates.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest["covariates_csv"] = "covariates.csv"
    path = out / "manifest.json"
    _write_json(path, manifest)
    return path


def setup(name: str, seed: int, out: Path) -> dict:
    """Generate the workload's inputs in ``out``; return their paths."""
    spec = WORKLOADS[name]
    N = spec.n_subjects
    if name == "decode_hmm":
        alphabets = _alphabets((8, 5))
        truth = _sticky_hmm(alphabets, 6, 0.8, 0.4, np.random.default_rng(17))
        _write_json(out / "truth.json", model_to_json(truth))
        return {"model": out / "truth.json"}
    if name == "fit_hmm":
        alphabets = _alphabets((6, 4))
        # peaked emissions keep EM's iteration count to tolerance within a few
        # percent across data seeds; flatter ones make it vary by half
        truth = _sticky_hmm(alphabets, 4, 0.9, 0.2, np.random.default_rng(23))
        data, _ = simulate_hmm_data(truth, N, N_TIME, seed, missing_rate=0.05)
        # unequal lengths 30..50 arrive padded with trailing missing tokens
        lengths = np.random.default_rng([seed, 1]).integers(30, N_TIME + 1, size=N)
        pad = np.arange(N_TIME)[None, :] >= lengths[:, None]
        data = SequenceDataset(
            tuple(
                Channel(ch.name, ch.alphabet, np.where(pad, MISSING, ch.codes))
                for ch in data.channels
            ),
            data.subject_ids,
        )
        _write_json(out / "start.json", model_to_json(_halfway(truth, alphabets, 5)))
        return {"manifest": _write_dataset(out, data), "model": out / "start.json"}
    alphabets, clusters, gamma = _mixture_truth()
    x = np.random.default_rng([seed, 1]).normal(size=N)
    design = CovariateDesign(("(Intercept)", "x"), np.column_stack([np.ones(N), x]))
    truth = build_mhmm(clusters, covariates=design, gamma=gamma)
    data, _, _ = simulate_mhmm_data(truth, design, N, N_TIME, seed)
    start = build_mhmm(
        [_halfway(c, alphabets, 40 + k) for k, c in enumerate(clusters)], covariates=design
    )
    _write_json(out / "start.json", model_to_json(start))
    return {"manifest": _write_dataset(out, data, x), "model": out / "start.json"}


def stage_argv(name: str, stage: str, seed: int, inputs: dict, rep: Path) -> list[str]:
    """Arguments of one CLI stage; its artifacts go to ``rep / stage``."""
    spec = WORKLOADS[name]
    out = ["--out", str(rep / stage)]
    if stage == "simulate":
        return ["simulate", "--model", str(inputs["model"]),
                "--n-subjects", str(spec.n_subjects), "--n-time", str(N_TIME),
                "--seed", str(seed), *out]
    manifest = inputs.get("manifest", rep / "simulate" / "dataset_manifest.json")
    if stage == "validate":
        return ["validate", "--manifest", str(manifest), *out]
    if stage == "fit":
        return ["fit", "--manifest", str(manifest), "--model", str(inputs["model"]),
                *spec.fit_flags, *out]
    model = rep / "fit" / "model_fitted.json" if spec.scores_fitted else inputs["model"]
    return [stage, "--manifest", str(manifest), "--model", str(model), *out]


# ----------------------------------------------------------------------
# output checks (run outside the timed interval)
# ----------------------------------------------------------------------


def _load_model(path: Path):
    return model_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _subset(data: SequenceDataset, design: Optional[CovariateDesign], idx):
    sub = SequenceDataset(
        tuple(Channel(ch.name, ch.alphabet, ch.codes[idx]) for ch in data.channels),
        tuple(data.subject_ids[i] for i in idx),
    )
    if design is None:
        return sub, None
    return sub, CovariateDesign(design.names, design.X[idx])


def _read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class Checker:
    """Re-derives each stage's results in-process and lists disagreements."""

    def __init__(self, name: str, seed: int, inputs: dict, rep: Path):
        self.name, self.seed, self.rep = name, seed, rep
        self.spec = WORKLOADS[name]
        manifest = inputs.get("manifest", rep / "simulate" / "dataset_manifest.json")
        self.data, self.cov = ingest_dataset(manifest)
        self.start = _load_model(inputs["model"])
        self.model = (
            _load_model(rep / "fit" / "model_fitted.json")
            if self.spec.scores_fitted
            else self.start
        )
        self.is_mixture = isinstance(self.model, MixtureModel)
        self.design = self.cov if self.is_mixture else None
        rng = np.random.default_rng([seed, 2])
        self.sample = np.sort(rng.choice(self.data.n_subjects, SAMPLE_SUBJECTS, replace=False))

    def _json(self, stage: str, fname: str) -> dict:
        return json.loads((self.rep / stage / fname).read_text(encoding="utf-8"))

    def check(self, stage: str) -> list[str]:
        return getattr(self, f"_check_{stage}")()

    def _check_simulate(self):
        ref, _ = simulate_hmm_data(self.start, self.spec.n_subjects, N_TIME, self.seed)
        return [
            f"simulate: channel {c} codes differ from simulate_hmm_data"
            for c, (a, b) in enumerate(zip(self.data.channels, ref.channels))
            if not np.array_equal(a.codes, b.codes)
        ]

    def _check_validate(self):
        res = self._json("validate", "validate_result.json")
        want = (self.spec.n_subjects, N_TIME, 2)
        got = (res["n_subjects"], res["n_time"], res["n_channels"])
        errs = [] if got == want else [f"validate: shape {got} != {want}"]
        want_cov = ["(Intercept)", "x"] if self.name == "mixture_cov" else None
        if res["covariates"] != want_cov:
            errs.append(f"validate: covariates {res['covariates']} != {want_cov}")
        return errs

    def fit_loglik(self) -> float:
        return float(self._json("fit", "fit_result.json")["loglik"])

    def _check_fit(self):
        fitted = _load_model(self.rep / "fit" / "model_fitted.json")
        reported = self.fit_loglik()
        ll = log_likelihood(fitted, self.data, self.design)
        ll0 = log_likelihood(self.start, self.data, self.design)
        errs = []
        if not _close(reported, ll):
            errs.append(f"fit: reported loglik {reported!r} != recomputed {ll!r}")
        if reported < ll0 - REL_TOL * abs(ll0):
            errs.append(f"fit: loglik {reported!r} below the start's {ll0!r}")
        return errs

    def _check_loglik(self):
        got = self._json("loglik", "loglik_result.json")["loglik"]
        ll = log_likelihood(self.model, self.data, self.design)
        return [] if _close(got, ll) else [f"loglik: {got!r} != {ll!r}"]

    def _ic_errors(self, stage, got):
        ic = information_criteria(self.model, self.data, self.design)
        ok = (
            _close(got["loglik"], ic.loglik)
            and _close(got["bic"], ic.bic)
            and got["p"] == ic.p
            and _close(got["nobs"], ic.nobs)
        )
        return [] if ok else [f"{stage}: {got} != {ic}"]

    def _check_bic(self):
        return self._ic_errors("bic", self._json("bic", "bic_result.json"))

    def _state_names(self, design):
        if self.is_mixture:
            return combine_clusters(self.model, design)[0].state_names
        return self.model.state_names

    def _check_viterbi(self):
        header, rows = _read_rows(self.rep / "viterbi" / "paths.csv")
        N = self.data.n_subjects
        if len(rows) != N * N_TIME:
            return [f"viterbi: {len(rows)} rows, expected {N * N_TIME}"]
        sub, design = _subset(self.data, self.design, self.sample)
        ref = viterbi_paths(self.model, sub, design=design)
        names = self._state_names(design)
        errs = []
        for j, i in enumerate(self.sample):
            got = rows[i * N_TIME : (i + 1) * N_TIME]
            want = [names[s] for s in ref.paths[j]]
            if [r[2] for r in got] != want or got[0][0] != self.data.subject_ids[i]:
                errs.append(f"viterbi: path of subject {self.data.subject_ids[i]} differs")
            if ref.clusters is not None:
                cluster = self.model.cluster_names[ref.clusters[j]]
                if any(r[3] != cluster for r in got):
                    errs.append(f"viterbi: cluster of subject {self.data.subject_ids[i]} differs")
        return errs

    def _check_posterior(self):
        header, rows = _read_rows(self.rep / "posterior" / "posterior.csv")
        N = self.data.n_subjects
        if len(rows) != N * N_TIME:
            return [f"posterior: {len(rows)} rows, expected {N * N_TIME}"]
        probs = np.array([r[2:] for r in rows], dtype=float)
        errs = []
        worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        if worst > REL_TOL:
            errs.append(f"posterior: a row sums to 1 {worst:+.3g}")
        sub, design = _subset(self.data, self.design, self.sample)
        ref = posterior_state_probs(self.model, sub, design)
        if header[2:] != list(self._state_names(design)):
            errs.append("posterior: header state names differ")
        got = probs.reshape(N, N_TIME, -1)[self.sample]
        if got.shape != ref.shape or np.max(np.abs(got - ref)) > REL_TOL:
            errs.append("posterior: sampled subjects differ from posterior_state_probs")
        return errs

    def _check_summary(self):
        got = self._json("summary", "summary_result.json")
        errs = self._ic_errors("summary", got)
        if sum(got["assigned_counts"]) != self.data.n_subjects:
            errs.append("summary: assigned counts do not add up to N")
        return errs
