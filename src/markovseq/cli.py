"""Command-line interface: reproducible batch runs over manifests and models.

Every subcommand writes a machine-readable ``<command>_result.json`` plus a
human-readable ``run.log`` into the output directory.  Artifacts are a
deterministic function of the inputs and flags; in particular the thread
count never appears in them, so reruns with different ``--threads`` are
byte-identical.  Exit codes: 0 success, 2 usage errors, 1 a ``MarkovSeqError``
(bad data or model, ``UnreadableFile`` for an input file that cannot be read,
or ``UnwritableOutput`` for an ``--out`` directory or artifact that cannot be
written), named on stderr and last in ``run.log`` where that can be written;
anything else is a bug.  JSON artifacts and ``--format json`` output are
strict JSON: a non-finite value (an impossible subject's -inf log-likelihood,
a NaN standard error) is written as null; text output and ``run.log`` keep
``-inf``, ``inf`` and ``nan``.

Each run imports only the modules its command uses: this module needs only
``errors`` and ``seqdata`` itself, and the rest (``model``, ``inference``,
``estimation``, ``simulate``, ``svgplot``) are imported by ``main`` for the
command that needs them, so ``validate`` loads none of them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import re
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import MarkovSeqError, MissingCovariate, UnwritableOutput
from .seqdata import (
    CovariateDesign,
    SequenceDataset,
    _read_json,
    effective_size,
    ingest_dataset,
    mc_to_sc,
)

# The collaborators from other modules, by module.  ``main`` binds the
# modules a command needs (``_HANDLERS``) into this module's globals before
# its handler runs, and ``__getattr__`` resolves ``markovseq.cli.<name>``.
_COLLABORATORS = {
    "model": (
        "MixtureModel",
        "_combined_state_names",
        "combine_clusters",  # used by no stage; perfbench/tracing.py wraps it here
        "model_from_json",
        "model_to_json",
        "trim_model",
    ),
    "inference": (
        "information_criteria",
        "log_likelihood",
        "mixture_summary",
        "posterior_state_probs",
        "viterbi_paths",
    ),
    "estimation": ("FitControl", "fit_model"),
    "simulate": ("simulate_hmm_data", "simulate_mhmm_data"),
    "svgplot": ("render_state_distribution_svg",),
}


def _bind(modules) -> None:
    """Import ``modules`` (keys of ``_COLLABORATORS``) and bind their names
    here.  A name already bound stays, so a wrapper set with ``setattr``
    keeps its place.  Under ``python -m`` this module is ``__main__``, so
    the modules are imported by absolute name."""
    space = globals()
    for module in modules:
        found = importlib.import_module(f"markovseq.{module}")
        for name in _COLLABORATORS[module]:
            space.setdefault(name, getattr(found, name))


def __getattr__(name):
    for module, names in _COLLABORATORS.items():
        if name in names:
            _bind((module,))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _thread_count(text: str) -> int:
    """argparse type of ``--threads`` and ``MARKOVSEQ_THREADS``: an integer >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"--threads and MARKOVSEQ_THREADS must be an integer >= 1, got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovseq",
        description="Estimate, decode, and summarize (mixture) hidden Markov "
        "models on multichannel categorical sequences.",
    )
    parser.add_argument("--version", action="version", version=f"markovseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=False, model=False):
        if manifest:
            p.add_argument("--manifest", required=True, help="dataset manifest JSON")
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--mode",
            choices=["scaled", "logspace"],
            default="scaled",
            help="numerical mode for likelihood recursions",
        )
        p.add_argument(
            "--threads",
            type=_thread_count,
            default=os.environ.get("MARKOVSEQ_THREADS", "1"),
            help="worker threads (default from MARKOVSEQ_THREADS); never changes results",
        )
        p.add_argument(
            "--format",
            choices=["text", "json", "csv"],
            default="text",
            help="stdout format",
        )
        return p

    common(sub.add_parser("validate", help="check a manifest and report dataset shape"), manifest=True)

    fit = common(sub.add_parser("fit", help="estimate model parameters"), manifest=True, model=True)
    fit.add_argument("--em-max-iter", type=int, default=1000)
    fit.add_argument("--em-rel-tol", type=float, default=1e-8)
    fit.add_argument("--restarts", type=int, default=0)
    fit.add_argument("--restart-perturb", type=float, default=0.5)
    fit.add_argument("--local-step", action="store_true")
    fit.add_argument("--local-max-iter", type=int, default=200)
    fit.add_argument("--local-grad-tol", type=float, default=1e-6)
    fit.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("loglik", help="log-likelihood of a model on data"), manifest=True, model=True)
    common(sub.add_parser("bic", help="information criteria of a model on data"), manifest=True, model=True)
    common(sub.add_parser("viterbi", help="most probable hidden paths"), manifest=True, model=True)
    common(sub.add_parser("posterior", help="posterior state probabilities"), manifest=True, model=True)
    common(sub.add_parser("summary", help="mixture model summary report"), manifest=True, model=True)

    sim = common(sub.add_parser("simulate", help="draw data from a model"), model=True)
    sim.add_argument("--n-subjects", type=int, required=True)
    sim.add_argument("--n-time", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--missing-rate", type=float, default=0.0)

    conv = common(sub.add_parser("convert", help="collapse channels to one"), manifest=True)
    conv.add_argument("--separator", default="/")

    trim = common(sub.add_parser("trim", help="zero out small probabilities"), model=True)
    trim.add_argument("--trim-tol", type=float, required=True)
    trim.add_argument("--manifest", help="optional data for the log-likelihood effect")

    common(sub.add_parser("plot", help="state-distribution SVG"), manifest=True)
    return parser


# ----------------------------------------------------------------------
# artifact helpers
# ----------------------------------------------------------------------


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


@contextmanager
def _writing(path: Path):
    """A ``with`` block that creates or writes ``path``, the output directory
    or an artifact in it; an OSError raises UnwritableOutput naming it."""
    try:
        yield
    except OSError as err:
        reason = err.strerror or err  # strerror leaves out the path
        raise UnwritableOutput(f"output {str(path)!r} cannot be written: {reason}") from err


def _write_text(path: Path, text: str) -> None:
    with _writing(path):
        path.write_text(text, encoding="utf-8")


def _finite(obj):
    """``obj`` with each non-finite float, in any dict or list, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _json_text(obj) -> str:
    """Indented JSON text of ``obj``.  JSON (RFC 8259) has no token for an
    infinity or a NaN, so a non-finite float is written as null."""
    return json.dumps(_finite(obj), indent=2, allow_nan=False)


def _write_json(path: Path, obj) -> None:
    _write_text(path, _json_text(obj) + "\n")


def _write_log(out: Path, lines) -> None:
    _write_text(out / "run.log", "".join(line + "\n" for line in lines))


def _load_model(path):
    return model_from_json(_read_json(path, "model file"))


def _resolve_design(model, cov):
    """The columns of a loaded covariate table that the model expects, or None
    where it expects none: an HMM, or a mixture on the intercept alone."""
    if not isinstance(model, MixtureModel) or len(model.design_names) == 1:
        return None
    if cov is None:
        raise MissingCovariate(
            f"model expects covariates {model.design_names[1:]}, manifest has none"
        )
    cols = [0]
    for name in model.design_names[1:]:
        if name not in cov.names:
            raise MissingCovariate(f"covariate {name!r} not found in manifest data")
        cols.append(cov.names.index(name))
    return CovariateDesign(model.design_names, cov.X[:, cols])


def _inputs(args):
    """A stage's dataset, model and design, from ``--manifest`` and ``--model``."""
    data, cov = ingest_dataset(args.manifest)
    model = _load_model(args.model)
    return data, model, _resolve_design(model, cov)


def _dataset_json(data: SequenceDataset) -> str:
    """The text ``json.dump(data.to_json(), fh, indent=2)`` writes.

    json's indented encoder runs in pure Python, so the code rows, nearly
    all of the document, are joined from one table of encoded tokens per
    channel; json formats the rest.  A JSON string cannot hold an unescaped
    quote, so ``"rows": []`` marks exactly the channels' row lists.
    """
    doc = data.to_json()
    for spec in doc["channels"]:
        spec["rows"] = []
    head, *tails = json.dumps(doc, indent=2).split('"rows": []')
    parts = [head]
    for ch, tail in zip(data.channels, tails):
        alpha = ch.alphabet
        table = np.array(
            [" " * 10 + json.dumps(tok) for tok in (*alpha.labels, alpha.missing_token)],
            dtype=object,
        )
        rows = ",\n".join(
            "        [\n" + ",\n".join(row) + "\n        ]" for row in table[ch.codes].tolist()
        )
        parts.append('"rows": ' + ("[\n" + rows + "\n      ]" if rows else "[]") + tail)
    return "".join(parts)


def _write_dataset_files(data: SequenceDataset, out: Path, stem: str):
    """Dataset JSON + per-channel wide CSVs + a manifest that re-ingests them."""
    _write_text(out / f"{stem}.json", _dataset_json(data) + "\n")
    channel_entries = []
    for ch in data.channels:
        fname = f"{stem}_{_safe_name(ch.name)}.csv"
        lines = ["id," + ",".join(f"t{t + 1}" for t in range(data.n_time))]
        for sid, toks in zip(data.subject_ids, ch.alphabet.tokens(ch.codes).tolist()):
            lines.append(sid + "," + ",".join(toks))
        _write_text(out / fname, "\n".join(lines) + "\n")
        channel_entries.append(
            {
                "name": ch.name,
                "csv": fname,
                "alphabet": list(ch.alphabet.labels),
                "missing_token": ch.alphabet.missing_token,
            }
        )
    _write_json(out / f"{stem}_manifest.json", {"id_column": "id", "channels": channel_entries})


def _emit(args, text_lines, json_obj):
    if args.format == "json":
        print(_json_text(json_obj))
    else:
        for line in text_lines:
            print(line)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def _cmd_validate(args, out: Path, log) -> int:
    data, cov = ingest_dataset(args.manifest)
    result = {
        "n_subjects": data.n_subjects,
        "n_time": data.n_time,
        "n_channels": data.n_channels,
        "effective_size": effective_size(data),
        "channels": [
            {
                "name": ch.name,
                "alphabet_size": ch.alphabet.size,
                "missing_cells": int((~ch.observed).sum()),
            }
            for ch in data.channels
        ],
        "covariates": list(cov.names) if cov is not None else None,
    }
    _write_json(out / "validate_result.json", result)
    log.append(f"manifest ok: {data.n_subjects} subjects x {data.n_time} time points "
               f"x {data.n_channels} channels")
    _emit(args, [log[-1]], result)
    return 0


def _cmd_fit(args, out: Path, log) -> int:
    data, model, design = _inputs(args)
    # each FitControl field has the flag of its name; FitControl checks them
    control = FitControl(**{f.name: getattr(args, f.name) for f in fields(FitControl)})
    res = fit_model(model, data, design, control)
    ic = information_criteria(res.model, data, design, args.mode)
    _write_json(out / "model_fitted.json", model_to_json(res.model))
    result = {
        "loglik": res.loglik,
        "restart_logliks": res.restart_logliks,
        "em_iterations": res.em_iterations,
        "local_iterations": res.local_iterations,
        "converged_by": res.converged_by,
        "diagnostics": res.diagnostics,
        "p": ic.p,
        "nobs": ic.nobs,
        "bic": ic.bic,
        "control": control.to_dict(),
    }
    _write_json(out / "fit_result.json", result)
    log.append(f"fit: loglik {res.loglik!r} after {res.em_iterations} EM E-steps "
               f"({res.converged_by})")
    log.extend(res.diagnostics)
    _emit(args, [f"loglik {res.loglik}", f"bic {ic.bic}"], result)
    return 0


def _cmd_loglik(args, out: Path, log) -> int:
    data, model, design = _inputs(args)
    ll = log_likelihood(model, data, design, args.mode, args.threads)
    _write_json(out / "loglik_result.json", {"loglik": ll})
    log.append(f"loglik {ll!r}")
    _emit(args, [str(ll)], {"loglik": ll})
    return 0


def _cmd_bic(args, out: Path, log) -> int:
    data, model, design = _inputs(args)
    ic = information_criteria(model, data, design, args.mode)
    result = {"loglik": ic.loglik, "p": ic.p, "nobs": ic.nobs, "bic": ic.bic}
    _write_json(out / "bic_result.json", result)
    log.append(f"bic {ic.bic!r} (p={ic.p}, nobs={ic.nobs!r})")
    _emit(args, [f"loglik {ic.loglik}", f"p {ic.p}", f"nobs {ic.nobs}", f"bic {ic.bic}"], result)
    return 0


def _state_names(model):
    if isinstance(model, MixtureModel):
        return _combined_state_names(model.cluster_names, model.clusters)
    return model.state_names


def _paths_csv(subject_ids, names, paths, clusters=None) -> str:
    """Path table text for an (N, T) array of state indices.

    One ``subject_id,t,state`` row per cell, plus a ``cluster`` column when
    ``clusters`` gives each subject's cluster name.  Every row of a subject
    starts with its id, so its rows are the id joined with precomputed
    ``",t,"`` prefixes and state-name suffixes.
    """
    times = [f",{t}," for t in range(1, paths.shape[1] + 1)]
    if clusters is None:
        parts = ["subject_id,t,state\n"]
        ends = ["\n"] * len(subject_ids)
    else:
        parts = ["subject_id,t,state,cluster\n"]
        ends = [f",{name}\n" for name in clusters]
    for sid, path, end in zip(subject_ids, paths.tolist(), ends):
        suffix = [name + end for name in names]
        parts.append(sid + sid.join([t + suffix[s] for t, s in zip(times, path)]))
    return "".join(parts)


def _cmd_viterbi(args, out: Path, log) -> int:
    data, model, design = _inputs(args)
    res = viterbi_paths(model, data, design=design)
    clusters = None
    if res.clusters is not None:
        clusters = [model.cluster_names[k] for k in res.clusters]
    text = _paths_csv(data.subject_ids, _state_names(model), res.paths, clusters)
    _write_text(out / "paths.csv", text)
    _write_json(
        out / "viterbi_result.json",
        {
            "log_joint": {sid: float(v) for sid, v in zip(data.subject_ids, res.log_joint)},
            "paths_csv": "paths.csv",
        },
    )
    log.append(f"viterbi: wrote paths for {data.n_subjects} subjects")
    if args.format == "csv":
        print(text, end="")
    else:
        _emit(args, [log[-1]], {"paths_csv": "paths.csv"})
    return 0


# Size of the row matrix for one block of subjects in _posterior_csv; it keeps
# the block's temporaries at a few MB, so the stage's peak memory does not grow.
_BLOCK_BYTES = 1 << 18


def _byte_rows(texts) -> np.ndarray:
    """UTF-8 ``texts`` as the rows of a uint8 matrix, padded with 0xFF."""
    raw = [t.encode() for t in texts]
    width = max(1, max(map(len, raw), default=0))
    rows = np.frombuffer(b"".join(r.ljust(width, b"\xff") for r in raw), np.uint8)
    return rows.reshape(len(raw), width)


def _posterior_csv(subject_ids, state_names, post) -> str:
    """Posterior table text for an (N, T, S) array of state probabilities.

    One ``subject_id,t,p_1,...,p_S`` row per cell, each probability as the
    bytes of ``'%.17g' % p``, computed for a block of subjects at a time by
    ``floattext.g17_fields`` (exact double-double digits, with '%.17g'
    itself as the fallback within 2**-40 of a tie or a decade edge and for
    inf and nan).  A block's rows are laid out as a byte matrix of about
    ``_BLOCK_BYTES``: id, ``,t,`` and fields, padded with 0xFF, which is
    then deleted.
    """
    # imported here, so that stages writing no posterior CSV never compile it
    from .floattext import WIDTH, g17_fields

    N, T, S = post.shape
    ids = _byte_rows(subject_ids)
    times = _byte_rows([f",{t}," for t in range(1, T + 1)])
    seps = np.full(S, ord(","), np.uint8)
    seps[-1:] = ord("\n")
    head = ids.shape[1] + times.shape[1]
    width = head + S * WIDTH
    text = bytearray(("subject_id,t," + ",".join(state_names) + "\n").encode())
    step = max(1, _BLOCK_BYTES // max(1, T * width))
    for i in range(0, N, step):
        fields = g17_fields(post[i : i + step], seps)
        n = fields.shape[0]
        rows = np.empty((n, T, width), np.uint8)
        rows[:, :, : ids.shape[1]] = ids[i : i + n, None]
        rows[:, :, ids.shape[1] : head] = times
        rows[:, :, head:] = fields.reshape(n, T, S * WIDTH)
        text += rows.tobytes().translate(None, b"\xff")
    return text.decode()


def _cmd_posterior(args, out: Path, log) -> int:
    data, model, design = _inputs(args)
    post = posterior_state_probs(model, data, design, args.mode, args.threads)
    text = _posterior_csv(data.subject_ids, _state_names(model), post)
    _write_text(out / "posterior.csv", text)
    _write_json(out / "posterior_result.json", {"posterior_csv": "posterior.csv"})
    log.append(f"posterior: wrote {data.n_subjects * data.n_time} rows")
    if args.format == "csv":
        print(text, end="")
    else:
        _emit(args, [log[-1]], {"posterior_csv": "posterior.csv"})
    return 0


def _cmd_summary(args, out: Path, log) -> int:
    data, model, design = _inputs(args)
    if not isinstance(model, MixtureModel):
        print("usage error: summary requires a mixture model", file=sys.stderr)
        return 2
    report = mixture_summary(model, data, design, args.mode)
    text = report.to_text()
    _write_text(out / "summary.txt", text)
    _write_json(out / "summary_result.json", report.to_dict())
    log.append(f"summary: loglik {report.loglik!r}, bic {report.bic!r}")
    log.extend(report.diagnostics)
    _emit(args, text.splitlines(), report.to_dict())
    return 0


def _cmd_simulate(args, out: Path, log) -> int:
    model = _load_model(args.model)
    if isinstance(model, MixtureModel):
        data, paths, labels = simulate_mhmm_data(
            model, None, args.n_subjects, args.n_time, args.seed, args.missing_rate
        )
        clines = ["subject_id,cluster"]
        clines += [
            f"{sid},{model.cluster_names[labels[i]]}"
            for i, sid in enumerate(data.subject_ids)
        ]
        _write_text(out / "clusters.csv", "\n".join(clines) + "\n")
    else:
        data, paths = simulate_hmm_data(
            model, args.n_subjects, args.n_time, args.seed, args.missing_rate
        )
    _write_dataset_files(data, out, "dataset")
    _write_text(out / "paths.csv", _paths_csv(data.subject_ids, _state_names(model), paths))
    _write_json(
        out / "simulate_result.json",
        {
            "n_subjects": args.n_subjects,
            "n_time": args.n_time,
            "seed": args.seed,
            "missing_rate": args.missing_rate,
            "dataset_json": "dataset.json",
            "manifest": "dataset_manifest.json",
        },
    )
    log.append(f"simulate: {args.n_subjects} subjects x {args.n_time} time points")
    _emit(args, [log[-1]], {"dataset_json": "dataset.json"})
    return 0


def _cmd_convert(args, out: Path, log) -> int:
    data, _ = ingest_dataset(args.manifest)
    combined = mc_to_sc(data, args.separator)
    _write_dataset_files(combined, out, "converted")
    result = {
        "n_channels_in": data.n_channels,
        "alphabet_size": combined.channels[0].alphabet.size,
        "dataset_json": "converted.json",
    }
    _write_json(out / "convert_result.json", result)
    log.append(
        f"convert: {data.n_channels} channels -> alphabet of "
        f"{combined.channels[0].alphabet.size}"
    )
    _emit(args, [log[-1]], result)
    return 0


def _cmd_trim(args, out: Path, log) -> int:
    model = _load_model(args.model)
    trimmed = trim_model(model, args.trim_tol)
    _write_json(out / "model_trimmed.json", model_to_json(trimmed))
    result = {"trim_tol": args.trim_tol, "model": "model_trimmed.json"}
    if args.manifest:
        data, cov = ingest_dataset(args.manifest)
        design = _resolve_design(model, cov)
        result["loglik_before"] = log_likelihood(model, data, design, args.mode)
        result["loglik_after"] = log_likelihood(trimmed, data, design, args.mode)
        log.append(
            f"trim: loglik {result['loglik_before']!r} -> {result['loglik_after']!r}"
        )
    else:
        log.append(f"trim: tol {args.trim_tol!r}")
    _write_json(out / "trim_result.json", result)
    _emit(args, [log[-1]], result)
    return 0


def _cmd_plot(args, out: Path, log) -> int:
    data, _ = ingest_dataset(args.manifest)
    svg = render_state_distribution_svg(data)
    _write_text(out / "plot.svg", svg)
    _write_json(out / "plot_result.json", {"svg": "plot.svg"})
    log.append(f"plot: {data.n_channels} panels")
    _emit(args, [log[-1]], {"svg": "plot.svg"})
    return 0


# each command's handler and the modules of _COLLABORATORS it uses
_HANDLERS = {
    "validate": (_cmd_validate, ()),
    "fit": (_cmd_fit, ("model", "inference", "estimation")),
    "loglik": (_cmd_loglik, ("model", "inference")),
    "bic": (_cmd_bic, ("model", "inference")),
    "viterbi": (_cmd_viterbi, ("model", "inference")),
    "posterior": (_cmd_posterior, ("model", "inference")),
    "summary": (_cmd_summary, ("model", "inference")),
    "simulate": (_cmd_simulate, ("model", "simulate")),
    "convert": (_cmd_convert, ()),
    "trim": (_cmd_trim, ("model", "inference")),
    "plot": (_cmd_plot, ("svgplot",)),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = Path(args.out)
    log: list[str] = [f"markovseq {args.command}"]
    try:
        with _writing(out):
            out.mkdir(parents=True, exist_ok=True)
        handler, modules = _HANDLERS[args.command]
        _bind(modules)
        code = handler(args, out, log)
        _write_log(out, log)
        return code
    except MarkovSeqError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        log.append(f"error: {type(err).__name__}: {err}")
        with suppress(UnwritableOutput):  # e.g. no --out directory; stderr has the error
            _write_log(out, log)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
