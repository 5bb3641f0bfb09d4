"""Multichannel categorical sequence data: containers, ingestion, transforms.

A dataset holds N subjects observed over T time points on C parallel
channels.  Each channel has its own alphabet of categorical labels;
observations are stored as integer codes with ``MISSING`` (-1) marking
unobserved cells.  Sequences of unequal length are represented by leading
or trailing missing codes.

A channel CSV of plain ASCII is coded by a byte-level numpy path; every
other channel CSV, and every covariate CSV, goes through the ``csv``
module.  Both give the same ids, codes and typed errors: the byte path
declines any file on which they could differ.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DuplicateLabel,
    EmptyDataset,
    InvalidJson,
    InvalidParameter,
    MissingCovariate,
    MissingTokenCollision,
    ShapeMismatch,
    UnknownToken,
    UnreadableFile,
    check_instance,
    check_text,
)

#: Sentinel code for a missing observation; never a valid alphabet code.
MISSING = -1

INTERCEPT_NAME = "(Intercept)"


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of categorical labels plus a reserved missing token.

    Label order is significant: it fixes the integer coding and the
    reporting/plotting order of states.  A label or missing token with
    leading or trailing whitespace raises InvalidParameter: channel CSVs
    are read with their tokens stripped, so it could not be read back.
    """

    labels: tuple[str, ...]
    missing_token: str = "*"

    def __post_init__(self):
        labels = tuple(str(x) for x in check_instance(self.labels, Iterable, "Alphabet.labels"))
        object.__setattr__(self, "labels", labels)
        check_text(self.missing_token, "missing_token")
        if len(labels) == 0:
            raise DuplicateLabel("alphabet needs at least one label")
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"duplicate labels in alphabet: {labels}")
        if self.missing_token in labels:
            raise MissingTokenCollision(
                f"missing token {self.missing_token!r} collides with a label"
            )
        for token in (*labels, self.missing_token):
            if token != token.strip():
                raise InvalidParameter(f"alphabet token {token!r} has outer whitespace")

    @property
    def size(self) -> int:
        return len(self.labels)

    def code(self, token: str) -> int:
        """Map a token to its integer code; the missing token maps to MISSING."""
        if token == self.missing_token:
            return MISSING
        try:
            return self.labels.index(token)
        except ValueError:
            raise KeyError(token) from None

    def token(self, code: int) -> str:
        return self.missing_token if code == MISSING else self.labels[code]

    def tokens(self, codes: np.ndarray) -> np.ndarray:
        """Object array of tokens for an array of codes, in one indexing step."""
        table = np.array([*self.labels, self.missing_token], dtype=object)
        return table[codes]  # MISSING (-1) selects the missing token


def _code_rows(alpha: Alphabet, rows: Sequence[Sequence[str]], name: str) -> np.ndarray:
    """Code rows of tokens into an (N, T) array, as ``alpha.code`` would per cell.

    Raises ShapeMismatch if the rows differ in length and UnknownToken for
    the first unknown cell in row-major order.
    """
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ShapeMismatch(
                f"channel {name!r}: row {i} has {len(row)} tokens, expected {width}"
            )
    lookup = {label: k for k, label in enumerate(alpha.labels)}
    lookup[alpha.missing_token] = MISSING
    try:
        flat = [lookup[tok] for row in rows for tok in row]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON token
        for i, row in enumerate(rows):
            for t, tok in enumerate(row):
                try:
                    lookup[tok]
                except (KeyError, TypeError):
                    raise UnknownToken(name, i, t, tok) from None
        raise
    return np.array(flat, dtype=np.int64).reshape(len(rows), width)


def define_alphabet(labels: Sequence[str], missing_token: str = "*") -> Alphabet:
    """Build an alphabet assigning codes 0..M-1 in the given label order."""
    return Alphabet(tuple(check_instance(labels, Iterable, "define_alphabet")), missing_token)


@dataclass(frozen=True)
class Channel:
    """One named channel: an alphabet and an N x T matrix of codes."""

    name: str
    alphabet: Alphabet
    codes: np.ndarray

    def __post_init__(self):
        check_instance(self.alphabet, Alphabet, "Channel.alphabet")
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 2:
            raise ShapeMismatch(f"channel {self.name!r}: codes must be 2-d")
        bad = (codes < MISSING) | (codes >= self.alphabet.size)
        if np.any(bad):
            i, t = np.argwhere(bad)[0]
            raise ShapeMismatch(
                f"channel {self.name!r}: code {codes[i, t]} out of range at ({i}, {t})"
            )
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    @property
    def observed(self) -> np.ndarray:
        return self.codes != MISSING


@dataclass(frozen=True)
class SequenceDataset:
    """Immutable collection of aligned channels for N subjects x T times."""

    channels: tuple[Channel, ...]
    subject_ids: tuple[str, ...]

    def __post_init__(self):
        channels = tuple(check_instance(self.channels, Iterable, "SequenceDataset.channels"))
        for ch in channels:
            check_instance(ch, Channel, "SequenceDataset.channels")
        ids = check_instance(self.subject_ids, Iterable, "SequenceDataset.subject_ids")
        ids = tuple(str(s) for s in ids)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "subject_ids", ids)
        if not channels:
            raise ShapeMismatch("dataset needs at least one channel")
        if len(set(ids)) != len(ids):
            raise ShapeMismatch("subject ids must be distinct")
        shape = channels[0].codes.shape
        for ch in channels:
            if ch.codes.shape != shape:
                raise ShapeMismatch(
                    f"channel {ch.name!r} has shape {ch.codes.shape}, expected {shape}"
                )
        if shape[0] != len(ids):
            raise ShapeMismatch(
                f"{len(ids)} subject ids for {shape[0]} rows of observations"
            )
        if shape[1] == 0:
            raise ShapeMismatch("dataset needs at least one time point")

    @property
    def n_subjects(self) -> int:
        return self.channels[0].codes.shape[0]

    @property
    def n_time(self) -> int:
        return self.channels[0].codes.shape[1]

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(ch.name for ch in self.channels)

    @property
    def alphabets(self) -> tuple[Alphabet, ...]:
        return tuple(ch.alphabet for ch in self.channels)

    def to_json(self) -> dict:
        """Serialize to the documented token-level JSON form.  A dataset with
        no subjects raises EmptyDataset: its rows would carry no time points,
        so ``from_json`` could not read it back."""
        if self.n_subjects == 0:
            raise EmptyDataset("a dataset with no subjects has no JSON form")
        return {
            "subject_ids": list(self.subject_ids),
            "channels": [
                {
                    "name": ch.name,
                    "alphabet": list(ch.alphabet.labels),
                    "missing_token": ch.alphabet.missing_token,
                    "rows": ch.alphabet.tokens(ch.codes).tolist(),
                }
                for ch in self.channels
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SequenceDataset":
        """Read the form ``to_json`` writes.  A document of the wrong
        structure raises ShapeMismatch, EmptyDataset or InvalidParameter
        (see ``_channel_specs``)."""
        specs = _channel_specs(doc, "dataset document", "rows", _token_rows)
        where = "dataset document: 'subject_ids'"
        ids = _strings(_list(doc.get("subject_ids"), where), where)
        channels = [Channel(name, a, _code_rows(a, rows, name)) for name, rows, a in specs]
        return cls(tuple(channels), ids)


@dataclass(frozen=True)
class CovariateDesign:
    """Subject-level design matrix; the first column is always an intercept."""

    names: tuple[str, ...]
    X: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a private row-major copy: the caller's array stays writeable, and
        # every entry point fits the same bits whatever layout it passed
        X = np.array(self.X, dtype=float, order="C")
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if X.ndim != 2 or X.shape[1] != len(names):
            raise ShapeMismatch("design matrix columns must match names")
        if len(set(names)) != len(names):
            raise DuplicateLabel(f"duplicate covariate names: {names}")
        if not np.all(np.isfinite(X)):
            raise MissingCovariate("covariates must be completely observed")
        if not np.all(X[:, 0] == 1.0):
            raise ShapeMismatch("first design column must be an all-ones intercept")
        X.setflags(write=False)
        object.__setattr__(self, "X", X)

    @property
    def n_subjects(self) -> int:
        return self.X.shape[0]

    @property
    def n_columns(self) -> int:
        return self.X.shape[1]

    @classmethod
    def intercept(cls, n_subjects: int) -> "CovariateDesign":
        return cls((INTERCEPT_NAME,), np.ones((n_subjects, 1)))


def _object(doc, where: str, keys=()) -> dict:
    """``doc``, checked to be a JSON object that holds ``keys``; ShapeMismatch
    otherwise."""
    if not isinstance(doc, dict):
        raise ShapeMismatch(f"{where} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ShapeMismatch(f"{where} lacks {key!r}")
    return doc


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ShapeMismatch(f"{where} must be a list")
    return value


def _strings(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InvalidParameter(f"{where} must be a list of strings")
    return tuple(value)


def _token_rows(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise InvalidParameter(f"{where} must be a list of token lists")
    return value


def _alphabet(entry, key: str, where: str) -> Alphabet:
    """The alphabet of ``entry``, a JSON object as ``where`` names it: the
    labels under ``key`` and its "missing_token" ("*" when absent)."""
    entry = _object(entry, where, (key,))
    missing = check_text(entry.get("missing_token", "*"), f"{where}: 'missing_token'")
    return Alphabet(_strings(entry[key], f"{where}: {key!r}"), missing)


def _channel_specs(doc, what: str, source: str, check) -> list[tuple[str, object, Alphabet]]:
    """The channels of ``doc``, a manifest or a dataset document as ``what``
    names it, as (name, source value, alphabet) triples.  Each channel entry
    needs ``name``, ``alphabet`` and ``source`` (the manifest's "csv", the
    dataset document's "rows"), whose value ``check(value, where)`` returns
    checked.  A malformed structure raises ShapeMismatch (or EmptyDataset for
    no channels), a value of the wrong type InvalidParameter."""
    entries = _list(_object(doc, what, ("channels",))["channels"], f"{what}: 'channels'")
    if not entries:
        raise EmptyDataset(f"{what} lists no channels")
    specs = []
    for i, entry in enumerate(entries):
        where = f"channel entry {i}"
        entry = _object(entry, where, ("name", source, "alphabet"))
        name = check_text(entry["name"], f"{where}: 'name'")
        value = check(entry[source], f"{where}: {source!r}")
        specs.append((name, value, _alphabet(entry, "alphabet", where)))
    return specs


@contextmanager
def _open_text(path, what: str):
    """``path`` open as UTF-8 text for a ``with`` block that only reads it.  A
    file that cannot be opened or read, or is not UTF-8, raises
    UnreadableFile naming it as the ``what`` it should hold."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (OSError, ValueError) as err:  # ValueError: not UTF-8, or a NUL in the path
        reason = getattr(err, "strerror", None) or err  # strerror leaves out the path
        raise UnreadableFile(f"{what} {str(path)!r} cannot be read: {reason}") from err


def _read_json(path, what: str):
    """The JSON document in the file ``path``; a file that is not UTF-8 JSON
    raises InvalidJson naming it as the ``what`` it should hold."""
    with _open_text(path, what) as fh:
        # ValueError: not UTF-8, not JSON, or too long an integer; RecursionError: too deep
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:
            raise InvalidJson(f"{what} {str(path)!r} is not JSON: {err}") from err


def _read_table(path, what: str, empty=ShapeMismatch) -> tuple[list[str], list[list[str]]]:
    """The header and data rows of the CSV file ``path``, blank lines skipped.
    A file without a data row raises ``empty``, rows of unequal width
    ShapeMismatch, a file that csv cannot parse UnreadableFile."""
    name = f"{what} {str(path)!r}"
    with _open_text(path, what) as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except csv.Error as err:  # e.g. a field longer than csv.field_size_limit()
            raise UnreadableFile(f"{name} is not CSV: {err}") from err
    if len(rows) < 2:
        raise empty(f"{name} needs a header row and at least one data row")
    header, data = rows[0], rows[1:]
    for i, row in enumerate(data, 1):
        if len(row) != len(header):
            raise ShapeMismatch(f"{name}: row {i} has {len(row)} fields, expected {len(header)}")
    return header, data


def _read_wide_csv(path: Path, what: str):
    """Read a wide sequence CSV: header row, then one row of id + T tokens."""
    _, data = _read_table(path, what)
    return [row[0] for row in data], [list(map(str.strip, row[1:])) for row in data]


# Byte classes for _code_csv_bytes: 0 declines the file, 1 is part of a field,
# 2 ends a field, 3 ends a field and a row.  Only printable ASCII other than
# space and '"' is part of a field; tab, '\r', NUL and bytes >= 0x7f decline.
_BYTE_CLASS = np.zeros(256, np.uint8)
_BYTE_CLASS[0x21:0x7F] = 1
_BYTE_CLASS[[ord('"'), ord(","), ord("\n")]] = 0, 2, 3
# _KEY_MASK[n] keeps the first n bytes of a little-endian uint64
_KEY_MASK = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)


def _code_csv_bytes(path: Path, alpha: Alphabet):
    """The ``(ids, codes)`` that ``_read_wide_csv`` and ``_code_rows`` give for
    the wide CSV ``path``, computed from its bytes in numpy; or None, and the
    caller takes that path, which also raises every error.

    It codes a file only if its bytes are newlines and printable ASCII other
    than space and '"', it has a data row, and it has no blank line, empty
    field, ragged row, field over ``csv.field_size_limit()`` or token other
    than a label or the missing token, each of at most 8 bytes.  On such a
    file ``csv.reader`` and ``str.strip`` cannot differ from splitting on
    commas and newlines.  Each token is packed into a uint64 key and found by
    ``np.searchsorted`` among the keys of the labels and the missing token.
    """
    table = {}
    for code, label in ((MISSING, alpha.missing_token), *enumerate(alpha.labels)):
        raw = label.encode()
        if len(raw) > 8 or b"\0" in raw:  # a NUL would alias a shorter key
            return None
        table[int.from_bytes(raw, "little")] = code
    try:
        text = path.read_bytes()
    except (OSError, ValueError):  # ValueError: a NUL in the path
        return None
    if not text.endswith(b"\n"):
        text += b"\n"
    padded = np.frombuffer(text + bytes(8), np.uint8)  # 8 bytes readable from each byte
    cls = np.take(_BYTE_CLASS, padded[: len(text)])
    ends = np.flatnonzero(cls >= 2)
    rows = np.flatnonzero(cls[ends] == 3)
    width, n_rows = int(rows[0]) + 1, len(rows)
    if (
        not cls.all()
        or n_rows < 2
        or len(ends) != n_rows * width
        or not np.array_equal(rows, np.arange(width - 1, len(ends), width))
    ):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    lens = ends - starts
    if lens.min() == 0 or lens.max() > csv.field_size_limit():
        return None
    starts = starts.reshape(n_rows, width)[1:]
    lens = lens.reshape(n_rows, width)[1:]
    if width > 1 and lens[:, 1:].max() > 8:
        return None
    windows = np.ndarray((len(text),), "<u8", padded, strides=(1,))
    keys = np.take(windows, starts[:, 1:]) & np.take(_KEY_MASK, lens[:, 1:])
    known = np.array(sorted(table), np.uint64)
    at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    if not np.array_equal(np.take(known, at), keys):
        return None
    codes = np.take(np.array([table[k] for k in known.tolist()], np.int64), at)
    ids = [text[s : s + n].decode() for s, n in zip(starts[:, 0].tolist(), lens[:, 0].tolist())]
    return ids, codes


def _load_covariates(path: Path, subject_ids: Sequence[str]) -> CovariateDesign:
    """The design of the covariate CSV ``path`` for ``subject_ids``; a cell
    that is not a finite number raises MissingCovariate naming the file, the
    subject and the column."""
    header, data = _read_table(path, "covariate CSV", MissingCovariate)
    name = f"covariate CSV {str(path)!r}"
    names = (INTERCEPT_NAME, *header[1:])
    if len(set(names)) != len(names):
        raise DuplicateLabel(
            f"{name}: covariate columns must be distinct and not {INTERCEPT_NAME!r}: "
            f"{list(header[1:])}"
        )
    by_id = {}
    for row in data:
        if row[0] in by_id:
            raise ShapeMismatch(f"{name}: covariate rows for subject {row[0]!r} repeat")
        by_id[row[0]] = row[1:]
    X = np.ones((len(subject_ids), len(header)))
    for i, sid in enumerate(subject_ids):
        if sid not in by_id:
            raise MissingCovariate(f"{name}: no covariate row for subject {sid!r}")
        for q, cell in enumerate(by_id[sid], 1):
            try:
                X[i, q] = float(cell)
            except ValueError:
                X[i, q] = np.nan
            if not np.isfinite(X[i, q]):  # float() also reads 'nan' and 'inf'
                raise MissingCovariate(
                    f"{name}: covariate {header[q]!r} of subject {sid!r} is {cell!r},"
                    " not a finite number"
                )
    return CovariateDesign(names, X)


def ingest_dataset(manifest_path) -> tuple[SequenceDataset, Optional[CovariateDesign]]:
    """Load a dataset (and optional covariates) described by a JSON manifest.

    The manifest lists channels as ``{"name", "csv", "alphabet",
    "missing_token"}`` entries; CSV paths are resolved relative to the
    manifest.  All channels must agree on subject ids and sequence length.
    A plain ASCII channel CSV is coded from its bytes (``_code_csv_bytes``),
    any other through the ``csv`` module, with the same result and errors.
    A manifest that is not JSON raises InvalidJson; one of the wrong
    structure raises ShapeMismatch, EmptyDataset or InvalidParameter (see
    ``_channel_specs``); a file that cannot be read UnreadableFile.

    Returns
    -------
    (SequenceDataset, CovariateDesign | None)
    """
    manifest_path = Path(manifest_path)
    manifest = _read_json(manifest_path, "manifest")
    specs = _channel_specs(manifest, "manifest", "csv", check_text)
    cov = manifest.get("covariates_csv")
    if cov is not None:
        check_text(cov, "manifest: 'covariates_csv'")
    base = manifest_path.parent
    channels = []
    ref_ids = None
    for name, csv_name, alpha in specs:
        coded = _code_csv_bytes(base / csv_name, alpha)
        ids, cells = coded or _read_wide_csv(base / csv_name, f"channel {name!r} CSV")
        if ref_ids is None:
            ref_ids = ids
        elif ids != ref_ids:
            raise ShapeMismatch(f"channel {name!r}: subject ids disagree with first channel")
        if channels and len(cells[0]) != channels[0].codes.shape[1]:
            raise ShapeMismatch(f"channel {name!r}: sequence length disagrees with first channel")
        channels.append(Channel(name, alpha, cells if coded else _code_rows(alpha, cells, name)))
    data = SequenceDataset(tuple(channels), tuple(ref_ids))
    design = _load_covariates(base / cov, data.subject_ids) if cov else None
    return data, design


def mc_to_sc(data: SequenceDataset, separator: str = "/") -> SequenceDataset:
    """Collapse a multichannel dataset to a single combined channel.

    The combined alphabet is the set of cross-channel label combinations
    actually observed, ordered lexicographically by channel-wise code
    tuples and joined with ``separator``.  Any time point with at least one
    missing channel becomes missing in the combined channel, so a dataset
    with no time point where every channel is observed raises EmptyDataset.
    """
    check_text(separator, "separator")
    if check_instance(data, SequenceDataset, "mc_to_sc").n_channels == 1:
        return data
    all_observed = np.all([ch.observed for ch in data.channels], axis=0)
    if not all_observed.any():
        raise EmptyDataset("mc_to_sc: no time point has every channel observed")
    cells = [ch.codes[all_observed] for ch in data.channels]
    # rank the tuples as sorted() orders them, a channel at a time (rank * M_c
    # + code < cells * M_c, so no key overflows)
    inverse = 0
    for ch, c in zip(data.channels, cells):
        _, inverse = np.unique(inverse * ch.alphabet.size + c, return_inverse=True)
    first = np.zeros(inverse.max(initial=-1) + 1, dtype=np.intp)
    first[inverse] = np.arange(inverse.size)  # a cell of each combination
    labels = tuple(
        separator.join(ch.alphabet.labels[c] for ch, c in zip(data.channels, tup))
        for tup in zip(*(c[first].tolist() for c in cells))
    )
    codes = np.full((data.n_subjects, data.n_time), MISSING, dtype=np.int64)
    codes[all_observed] = inverse
    name = separator.join(data.channel_names)
    missing_token = data.channels[0].alphabet.missing_token
    channel = Channel(name, Alphabet(labels, missing_token), codes)
    return SequenceDataset((channel,), data.subject_ids)


def effective_size(data: SequenceDataset) -> float:
    """Missing-adjusted data size: sum over cells of observed fraction per (i, t).

    Equals N*T when fully observed; may be non-integer when C > 1.
    """
    check_instance(data, SequenceDataset, "effective_size")
    observed = np.stack([ch.observed for ch in data.channels])
    return float(observed.mean(axis=0).sum())
