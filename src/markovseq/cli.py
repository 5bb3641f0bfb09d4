"""Command-line interface: reproducible batch runs over manifests and models.

Every subcommand writes a machine-readable ``<command>_result.json`` plus a
human-readable ``run.log`` into the output directory.  A command's handler
writes only its own artifacts (``model_fitted.json``, ``paths.csv``, ...)
and returns a ``_Done`` record; ``main`` is the one place that writes
``<command>_result.json`` and ``run.log`` and prints to stdout.  Artifacts are a
deterministic function of the inputs and flags; in particular the thread
count never appears in them, so reruns with different ``--threads`` are
byte-identical.  Exit codes: 0 success, 2 usage errors, 1 a ``MarkovSeqError``
(bad data or model, ``UnreadableFile`` for an input file that cannot be read,
or ``UnwritableOutput`` for an ``--out`` directory or artifact that cannot be
written), named on stderr and last in ``run.log`` where that can be written;
anything else is a bug.  JSON artifacts and ``--format json`` output are
strict JSON: a non-finite value (an impossible subject's -inf log-likelihood,
a NaN standard error) is written as null; text output and ``run.log`` keep
``-inf``, ``inf`` and ``nan``.  JSON artifacts are indented, except the
token-level dataset JSON of ``simulate`` and ``convert``, which is compact
JSON of ``SequenceDataset.to_json()``.

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
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple, Optional

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
        "_state_space",
        "combine_clusters",  # used by no stage; perfbench/tracing.py wraps it here
        "model_from_json",
        "model_to_json",
        "trim_model",
    ),
    "inference": (
        "_criteria",
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
    # no defaults: a flag left out leaves its FitControl field at FitControl's default
    fit.add_argument("--em-max-iter", type=int)
    fit.add_argument("--em-rel-tol", type=float)
    fit.add_argument("--restarts", type=int)
    fit.add_argument("--restart-perturb", type=float)
    fit.add_argument("--local-step", action="store_true", default=None)
    fit.add_argument("--local-max-iter", type=int)
    fit.add_argument("--local-grad-tol", type=float)
    fit.add_argument("--seed", type=int)

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


def _write_text(path: Path, text) -> None:
    """Write ``text``, a str or its UTF-8 bytes, to ``path``."""
    with _writing(path):
        path.write_bytes(text.encode() if isinstance(text, str) else text)


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


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, as the csv module's QUOTE_MINIMAL
    quotes it, where it holds a comma, a quote, CR or LF; else as it is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# Size of the row matrix for one block of subjects in _csv_table; it keeps
# the block's temporaries at a few MB, so a stage's peak memory does not grow.
_BLOCK_BYTES = 1 << 18
_COMMA, _LF = np.frombuffer(b",\n", np.uint8).reshape(2, 1, 1, 1)


def _byte_rows(texts) -> np.ndarray:
    """UTF-8 ``texts`` as the rows of a uint8 matrix, padded with 0xFF."""
    raw = [t.encode() for t in texts]
    width = max(1, max(map(len, raw), default=0))
    rows = np.frombuffer(b"".join(r.ljust(width, b"\xff") for r in raw), np.uint8)
    return rows.reshape(len(raw), width)


def _csv_table(header, ids, columns, values=None) -> bytes:
    """The CSV text, in UTF-8 bytes, of the ``header`` fields and R rows per
    subject: its id, the fields ``columns`` pick, then ``values``'
    ``'%.17g'`` text.

    The one writer of the CLI's CSV tables, so one dialect: fields as
    ``_csv_field`` writes them, comma-separated, LF after each row.  A
    column is (entries, codes): each entry, a field, is quoted once into a
    byte table; codes (N, R) pick an entry per row, (N, R, k) k side by
    side, MISSING (-1) the last.  ``values`` (N, R, S) go through
    ``floattext.g17_fields``.  A block of subjects' rows is a byte matrix
    of about ``_BLOCK_BYTES``, padded with 0xFF, which is then deleted.
    The bytes are written as they are, never decoded to be encoded again.
    """
    ids = _byte_rows(map(_csv_field, ids))
    tables = [(_byte_rows("," + _csv_field(e) for e in entries), codes) for entries, codes in columns]
    R = columns[0][1].shape[1]
    width = ids.shape[1] + sum(t.shape[1] * math.prod(c.shape[2:]) for t, c in tables) + 1
    if values is not None:
        from .floattext import WIDTH, g17_fields  # compiled only by stages that write numbers
        seps = np.full(values.shape[2], ord(","), np.uint8)
        seps[-1:] = 0xFF  # the row's LF follows
        width += 1 + seps.size * WIDTH
    text = bytearray((",".join(map(_csv_field, header)) + "\n").encode())
    step = max(1, _BLOCK_BYTES // max(1, R * width))
    for i in range(0, len(ids) if R else 0, step):  # T = 0 has no rows
        block = slice(i, i + step)
        n = len(ids[block])
        parts = [ids[block, None], *(t[c[block]].reshape(n, R, -1) for t, c in tables)]
        if values is not None:
            parts += [_COMMA, g17_fields(values[block], seps).reshape(n, R, -1)]
        rows, at = np.empty((n, R, width), np.uint8), 0
        for part in (*parts, _LF):
            rows[:, :, at : at + part.shape[2]] = part
            at += part.shape[2]
        text += rows.tobytes().translate(None, b"\xff")
    return text


def _times(n_subjects: int, n_time: int):
    """The ``t`` column of a table with a row per cell: 1..T for each subject."""
    return [str(t + 1) for t in range(n_time)], np.broadcast_to(np.arange(n_time), (n_subjects, n_time))


def _write_dataset_files(data: SequenceDataset, out: Path, stem: str):
    """Dataset JSON + per-channel wide CSVs + a manifest that re-ingests them.

    ``<stem>.json`` is ``data.to_json()`` as compact JSON, one line; no
    command reads it back.  Channel c's CSV is ``<stem>_<safe name>.csv``,
    or ``<stem>_<c + 1>_<safe name>.csv`` for every channel where two safe
    names (``_safe_name``) would be equal ignoring case."""
    _write_text(out / f"{stem}.json", json.dumps(data.to_json()) + "\n")
    header = ["id", *(f"t{t + 1}" for t in range(data.n_time))]
    safe = [_safe_name(ch.name) for ch in data.channels]
    if len({s.lower() for s in safe}) < len(safe):  # one file each, also where case folds
        safe = [f"{c + 1}_{s}" for c, s in enumerate(safe)]
    channel_entries = []
    for ch, name in zip(data.channels, safe):
        alpha = ch.alphabet
        fname = f"{stem}_{name}.csv"
        tokens = ([*alpha.labels, alpha.missing_token], ch.codes[:, None])
        _write_text(out / fname, _csv_table(header, data.subject_ids, [tokens]))
        channel_entries.append({"name": ch.name, "csv": fname, "alphabet": list(alpha.labels),
                                "missing_token": alpha.missing_token})
    _write_json(out / f"{stem}_manifest.json", {"id_column": "id", "channels": channel_entries})


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


class _Done(NamedTuple):
    """What a handler hands ``main``: the ``<command>_result.json`` document,
    the ``run.log`` lines, and where stdout shows something else, its text
    lines (default: the first log line), its ``--format json`` document
    (default: ``result``) and the CSV bytes whose text ``--format csv``
    prints (default: the text lines)."""

    result: dict
    log: list
    text: Optional[list] = None
    shown: Optional[dict] = None
    table: Optional[bytes] = None


class _UsageError(Exception):
    """A command the parser accepts but its inputs cannot serve: exit 2."""


def _cmd_validate(args, out: Path) -> _Done:
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
    return _Done(result, [f"manifest ok: {data.n_subjects} subjects x {data.n_time} "
                          f"time points x {data.n_channels} channels"])


def _cmd_fit(args, out: Path) -> _Done:
    data, model, design = _inputs(args)
    # a flag per FitControl field, named after it; FitControl checks those given and sets the rest
    given = {f.name: getattr(args, f.name) for f in fields(FitControl)}
    control = FitControl(**{name: v for name, v in given.items() if v is not None})
    res = fit_model(model, data, design, control)
    ic = _criteria(res.model, data, res.loglik)  # the BIC of the log-likelihood it reports
    _write_json(out / "model_fitted.json", model_to_json(res.model))
    # the model is model_fitted.json; ic.loglik is res.loglik, so it keeps its first place
    kept = [f.name for f in fields(res) if f.name not in ("model", "loglik_trace")]
    result = {name: getattr(res, name) for name in kept}
    result.update(asdict(ic), control=control.to_dict())
    log = [f"fit: loglik {res.loglik!r} after {res.em_iterations} EM E-steps "
           f"({res.converged_by})", *res.diagnostics]
    return _Done(result, log, [f"loglik {res.loglik}", f"bic {ic.bic}"])


def _cmd_loglik(args, out: Path) -> _Done:
    data, model, design = _inputs(args)
    ll = log_likelihood(model, data, design, args.mode, args.threads)
    return _Done({"loglik": ll}, [f"loglik {ll!r}"], [str(ll)])


def _cmd_bic(args, out: Path) -> _Done:
    data, model, design = _inputs(args)
    ic = information_criteria(model, data, design, args.mode)
    return _Done(
        asdict(ic),
        [f"bic {ic.bic!r} (p={ic.p}, nobs={ic.nobs!r})"],
        [f"loglik {ic.loglik}", f"p {ic.p}", f"nobs {ic.nobs}", f"bic {ic.bic}"],
    )


def _paths_table(subject_ids, model, paths) -> bytes:
    """paths.csv for an (N, T) array of combined states: a ``subject_id,t,state``
    row per cell, and for a mixture the cluster that owns the state."""
    space = _state_space(model)
    columns = [_times(*paths.shape), (space.names, paths)]
    if isinstance(model, MixtureModel):
        columns.append(([model.cluster_names[k] for k in space.owners], paths))
    header = ("subject_id", "t", "state", "cluster")[: len(columns) + 1]
    return _csv_table(header, subject_ids, columns)


def _cmd_viterbi(args, out: Path) -> _Done:
    data, model, design = _inputs(args)
    res = viterbi_paths(model, data, design=design)
    text = _paths_table(data.subject_ids, model, res.paths)
    _write_text(out / "paths.csv", text)
    return _Done(
        {
            "log_joint": {sid: float(v) for sid, v in zip(data.subject_ids, res.log_joint)},
            "paths_csv": "paths.csv",
        },
        [f"viterbi: wrote paths for {data.n_subjects} subjects"],
        shown={"paths_csv": "paths.csv"},
        table=text,
    )


def _cmd_posterior(args, out: Path) -> _Done:
    data, model, design = _inputs(args)
    post = posterior_state_probs(model, data, design, args.mode, args.threads)
    header = ("subject_id", "t", *_state_space(model).names)
    text = _csv_table(header, data.subject_ids, [_times(data.n_subjects, data.n_time)], post)
    _write_text(out / "posterior.csv", text)
    return _Done(
        {"posterior_csv": "posterior.csv"},
        [f"posterior: wrote {data.n_subjects * data.n_time} rows"],
        table=text,
    )


def _cmd_summary(args, out: Path) -> _Done:
    data, model, design = _inputs(args)
    if not isinstance(model, MixtureModel):
        raise _UsageError("summary requires a mixture model")
    report = mixture_summary(model, data, design, args.mode)
    text = report.to_text()
    _write_text(out / "summary.txt", text)
    log = [f"summary: loglik {report.loglik!r}, bic {report.bic!r}", *report.diagnostics]
    return _Done(report.to_dict(), log, text.splitlines())


def _cmd_simulate(args, out: Path) -> _Done:
    model = _load_model(args.model)
    if isinstance(model, MixtureModel):
        data, paths, labels = simulate_mhmm_data(
            model, None, args.n_subjects, args.n_time, args.seed, args.missing_rate
        )
        table = _csv_table(("subject_id", "cluster"), data.subject_ids,
                           [(model.cluster_names, labels[:, None])])
        _write_text(out / "clusters.csv", table)
    else:
        data, paths = simulate_hmm_data(
            model, args.n_subjects, args.n_time, args.seed, args.missing_rate
        )
    _write_dataset_files(data, out, "dataset")
    _write_text(out / "paths.csv", _paths_table(data.subject_ids, model, paths))
    return _Done(
        {
            "n_subjects": args.n_subjects,
            "n_time": args.n_time,
            "seed": args.seed,
            "missing_rate": args.missing_rate,
            "dataset_json": "dataset.json",
            "manifest": "dataset_manifest.json",
        },
        [f"simulate: {args.n_subjects} subjects x {args.n_time} time points"],
        shown={"dataset_json": "dataset.json"},
    )


def _cmd_convert(args, out: Path) -> _Done:
    data, _ = ingest_dataset(args.manifest)
    combined = mc_to_sc(data, args.separator)
    _write_dataset_files(combined, out, "converted")
    size = combined.channels[0].alphabet.size
    return _Done(
        {"n_channels_in": data.n_channels, "alphabet_size": size, "dataset_json": "converted.json"},
        [f"convert: {data.n_channels} channels -> alphabet of {size}"],
    )


def _cmd_trim(args, out: Path) -> _Done:
    model = _load_model(args.model)
    trimmed = trim_model(model, args.trim_tol)
    _write_json(out / "model_trimmed.json", model_to_json(trimmed))
    result = {"trim_tol": args.trim_tol, "model": "model_trimmed.json"}
    if args.manifest:
        data, cov = ingest_dataset(args.manifest)
        design = _resolve_design(model, cov)
        result["loglik_before"] = log_likelihood(model, data, design, args.mode)
        result["loglik_after"] = log_likelihood(trimmed, data, design, args.mode)
        line = f"trim: loglik {result['loglik_before']!r} -> {result['loglik_after']!r}"
    else:
        line = f"trim: tol {args.trim_tol!r}"
    return _Done(result, [line])


def _cmd_plot(args, out: Path) -> _Done:
    data, _ = ingest_dataset(args.manifest)
    _write_text(out / "plot.svg", render_state_distribution_svg(data))
    return _Done({"svg": "plot.svg"}, [f"plot: {data.n_channels} panels"])


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
    log = [f"markovseq {args.command}"]
    try:
        with _writing(out):
            out.mkdir(parents=True, exist_ok=True)
        handler, modules = _HANDLERS[args.command]
        _bind(modules)
        try:
            done = handler(args, out)
        except _UsageError as err:
            print(f"usage error: {err}", file=sys.stderr)
            _write_log(out, log)
            return 2
        _write_json(out / f"{args.command}_result.json", done.result)
        log += done.log
        if args.format == "json":
            print(_json_text(done.result if done.shown is None else done.shown))
        elif args.format == "csv" and done.table is not None:
            print(done.table.decode(), end="")
        else:
            print(*(done.text or done.log[:1]), sep="\n")
        _write_log(out, log)
        return 0
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
