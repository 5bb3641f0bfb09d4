import csv
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovseq import (
    Alphabet,
    Channel,
    SequenceDataset,
    build_hmm,
    define_alphabet,
    effective_size,
    ingest_dataset,
    mc_to_sc,
    model_to_json,
)
from markovseq import seqdata
from markovseq.cli import main
from markovseq.errors import (
    DuplicateLabel,
    EmptyDataset,
    InvalidJson,
    InvalidParameter,
    MarkovSeqError,
    MissingCovariate,
    MissingTokenCollision,
    ShapeMismatch,
    UnknownToken,
    UnreadableFile,
)
from markovseq.seqdata import MISSING, _code_csv_bytes, _code_rows, _read_wide_csv

from helpers import write_manifest


class TestAlphabet:
    def test_codes_follow_label_order(self):
        a = define_alphabet(["single", "married", "divorced"], "*")
        assert [a.code(x) for x in ("single", "married", "divorced")] == [0, 1, 2]
        assert a.code("*") == MISSING
        assert a.token(1) == "married"
        assert a.token(MISSING) == "*"

    def test_single_symbol(self):
        a = define_alphabet(["a"], "*")
        assert a.size == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            define_alphabet(["a", "a"], "*")

    def test_missing_token_collision_rejected(self):
        with pytest.raises(MissingTokenCollision):
            define_alphabet(["a", "*"], "*")

    def test_unknown_token_raises_keyerror(self):
        a = define_alphabet(["a", "b"])
        with pytest.raises(KeyError):
            a.code("z")


_DROP = object()


def _edit_entry(doc, **values):
    """``doc`` with its first channel entry's keys set (or dropped, for _DROP)."""
    entry = doc["channels"][0]
    for key, value in values.items():
        if value is _DROP:
            del entry[key]
        else:
            entry[key] = value
    return doc


class TestIngest:
    def test_basic_single_channel(self, tmp_path):
        manifest = write_manifest(
            tmp_path, [("work", ["a", "b"], [["a", "b", "a"], ["b", "b", "a"]])]
        )
        data, cov = ingest_dataset(manifest)
        assert cov is None
        assert (data.n_subjects, data.n_time, data.n_channels) == (2, 3, 1)
        np.testing.assert_array_equal(data.channels[0].codes, [[0, 1, 0], [1, 1, 0]])
        assert data.subject_ids == ("s1", "s2")

    def test_missing_cell_is_missing_not_error(self, tmp_path):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "*", "b"]])])
        data, _ = ingest_dataset(manifest)
        np.testing.assert_array_equal(data.channels[0].codes, [[0, MISSING, 1]])

    def test_unknown_token_reports_position(self, tmp_path):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "q", "b"]])])
        with pytest.raises(UnknownToken) as err:
            ingest_dataset(manifest)
        assert (err.value.channel, err.value.row, err.value.col) == ("work", 0, 1)

    def test_channels_must_share_ids_and_length(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [
                ("one", ["a", "b"], [["a", "b"], ["b", "a"]]),
                ("two", ["x", "y"], [["x", "y"], ["y", "x"]]),
            ],
        )
        # corrupt the second channel: drop a subject
        (tmp_path / "two.csv").write_text("id,t1,t2\ns1,x,y\n")
        with pytest.raises(ShapeMismatch):
            ingest_dataset(manifest)

    def test_covariates_loaded_and_aligned(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [("work", ["a", "b"], [["a", "b"], ["b", "a"]])],
            covariate_rows=[[1.5], [-0.5]],
            covariate_names=["age"],
        )
        _, cov = ingest_dataset(manifest)
        assert cov.names == ("(Intercept)", "age")
        np.testing.assert_array_equal(cov.X, [[1.0, 1.5], [1.0, -0.5]])

    def test_missing_covariate_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [("work", ["a", "b"], [["a", "b"], ["b", "a"]])],
            covariate_rows=[[1.5], ["NA"]],
            covariate_names=["age"],
        )
        with pytest.raises(MissingCovariate):
            ingest_dataset(manifest)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda doc: {"channels": "x"}, ShapeMismatch),
            (lambda doc: [], ShapeMismatch),
            (lambda doc: {"channels": []}, EmptyDataset),
            (lambda doc: {"channels": ["work.csv"]}, ShapeMismatch),
            (lambda doc: _edit_entry(doc, csv=3), InvalidParameter),
            (lambda doc: _edit_entry(doc, alphabet=_DROP), ShapeMismatch),
            (lambda doc: _edit_entry(doc, alphabet="ab"), InvalidParameter),
            (lambda doc: _edit_entry(doc, alphabet=["a", 2]), InvalidParameter),
            (lambda doc: _edit_entry(doc, missing_token=5), InvalidParameter),
            (lambda doc: _edit_entry(doc, name=None), InvalidParameter),
            (lambda doc: {**doc, "covariates_csv": 3}, InvalidParameter),
        ],
    )
    def test_malformed_structure_raises_typed_error(self, tmp_path, edit, error):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "b"], ["b", "*"]])])
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        with pytest.raises(error):
            ingest_dataset(manifest)

    @pytest.mark.parametrize("content", [b"", b"{not json", b"\xff\xfe{}"])
    def test_manifest_that_is_not_json_raises_invalid_json(self, tmp_path, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(content)
        with pytest.raises(InvalidJson, match="manifest .*manifest.json.* is not JSON"):
            ingest_dataset(manifest)

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"channels": ' + "1" * 5000 + "}"], ids=["deep", "long int"]
    )
    def test_json_python_cannot_parse_raises_invalid_json(self, tmp_path, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        with pytest.raises(InvalidJson, match="manifest .*manifest.json.* is not JSON"):
            ingest_dataset(manifest)

    def test_nul_in_csv_path_raises_unreadable_file(self, tmp_path):
        manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "b"]])])
        manifest.write_text(json.dumps(_edit_entry(json.loads(manifest.read_text()), csv="w\0")))
        with pytest.raises(UnreadableFile, match="channel 'work' CSV .* cannot be read"):
            ingest_dataset(manifest)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda doc: {"channels": "x", "subject_ids": []}, ShapeMismatch),
            (lambda doc: {"subject_ids": doc["subject_ids"]}, ShapeMismatch),
            (lambda doc: [doc], ShapeMismatch),
            (lambda doc: {**doc, "channels": []}, EmptyDataset),
            (lambda doc: {**doc, "channels": [["a", "b"]]}, ShapeMismatch),
            (lambda doc: _edit_entry(doc, rows=_DROP), ShapeMismatch),
            (lambda doc: _edit_entry(doc, rows=["ab", "b*"]), InvalidParameter),
            (lambda doc: _edit_entry(doc, rows="ab"), InvalidParameter),
            (lambda doc: _edit_entry(doc, alphabet="ab"), InvalidParameter),
            (lambda doc: _edit_entry(doc, alphabet=_DROP), ShapeMismatch),
            (lambda doc: _edit_entry(doc, name=_DROP), ShapeMismatch),
            (lambda doc: _edit_entry(doc, name=7), InvalidParameter),
            (lambda doc: _edit_entry(doc, missing_token=5), InvalidParameter),
            (lambda doc: {**doc, "subject_ids": "s1"}, ShapeMismatch),
            (lambda doc: {"channels": doc["channels"]}, ShapeMismatch),
            (lambda doc: {**doc, "subject_ids": [1, 2]}, InvalidParameter),
        ],
    )
    def test_malformed_dataset_document_raises_typed_error(self, edit, error):
        alpha = define_alphabet(["a", "b"])
        data = SequenceDataset(
            (Channel("work", alpha, np.array([[0, 1], [1, MISSING]])),), ("s1", "s2")
        )
        with pytest.raises(error):
            SequenceDataset.from_json(edit(data.to_json()))

    @pytest.mark.parametrize(
        "text, error, named",
        [
            ("id,x\ns1,1\ns2,2\ns1,5\n", ShapeMismatch, "'s1'"),
            ("id,x,x\ns1,1,2\ns2,3,4\n", DuplicateLabel, "'x', 'x'"),
            ("id,(Intercept)\ns1,1\ns2,1\n", DuplicateLabel, "'(Intercept)'"),
        ],
        ids=["repeated id", "repeated column", "intercept column"],
    )
    def test_covariate_csv_duplicates_rejected(self, tmp_path, text, error, named):
        manifest = write_manifest(
            tmp_path,
            [("work", ["a", "b"], [["a", "b"], ["b", "a"]])],
            covariate_rows=[[1.5], [-0.5]],
            covariate_names=["x"],
        )
        (tmp_path / "covariates.csv").write_text(text)
        with pytest.raises(error, match=re.escape(named)):
            ingest_dataset(manifest)

    def test_roundtrip_through_json(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [
                ("one", ["a", "b"], [["a", "*"], ["b", "a"]]),
                ("two", ["x", "y", "z"], [["z", "y"], ["*", "x"]]),
            ],
        )
        data, _ = ingest_dataset(manifest)
        doc = json.loads(json.dumps(data.to_json()))
        back = SequenceDataset.from_json(doc)
        assert back.subject_ids == data.subject_ids
        for ch_a, ch_b in zip(data.channels, back.channels):
            assert ch_a.alphabet == ch_b.alphabet
            np.testing.assert_array_equal(ch_a.codes, ch_b.codes)


def _code_per_cell(alpha, rows, name):
    """The former per-cell ingest loop: one ``Alphabet.code`` call per cell."""
    codes = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=np.int64)
    for i, row in enumerate(rows):
        for t, tok in enumerate(row):
            try:
                codes[i, t] = alpha.code(tok)
            except KeyError:
                raise UnknownToken(name, i, t, tok) from None
    return codes


class TestCodeRows:
    alpha = define_alphabet(["a", "b", "c"], "*")

    def _padded_rows(self):
        # unequal lengths padded with leading and trailing missing tokens
        rng = np.random.default_rng(30)
        rows = []
        for i in range(40):
            body = list(rng.choice(["a", "b", "c", "*"], size=int(rng.integers(5, 60))))
            lead = int(rng.integers(0, 60 - len(body) + 1))
            rows.append(["*"] * lead + body + ["*"] * (60 - lead - len(body)))
        return rows

    def test_codes_equal_per_cell_coding(self):
        rows = self._padded_rows()
        got = _code_rows(self.alpha, rows, "ch")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _code_per_cell(self.alpha, rows, "ch"))
        assert (got == MISSING).any()

    @pytest.mark.parametrize(
        "cells", [[(37, 58, "q")], [(21, 44, "A"), (30, 2, "z")], [(5, 59, 7), (5, 50, ["a"])]]
    )
    def test_first_unknown_cell_matches_per_cell_coding(self, cells):
        rows = self._padded_rows()
        for i, t, tok in cells:
            rows[i][t] = tok
        with pytest.raises(UnknownToken) as want:
            _code_per_cell(self.alpha, rows, "ch")
        with pytest.raises(UnknownToken) as got:
            _code_rows(self.alpha, rows, "ch")
        key = lambda e: (e.channel, e.row, e.col, e.token)  # noqa: E731
        assert key(got.value) == key(want.value)
        assert str(got.value) == str(want.value)

    def test_unknown_deep_in_row_through_ingest_and_json(self, tmp_path):
        rows = self._padded_rows()
        rows[33][57] = "bad"
        manifest = write_manifest(tmp_path, [("work", ["a", "b", "c"], rows)])
        with pytest.raises(UnknownToken) as err:
            ingest_dataset(manifest)
        assert (err.value.channel, err.value.row, err.value.col) == ("work", 33, 57)
        assert err.value.token == "bad"
        doc = {
            "subject_ids": [f"s{i}" for i in range(len(rows))],
            "channels": [{"name": "work", "alphabet": ["a", "b", "c"], "rows": rows}],
        }
        with pytest.raises(UnknownToken) as err:
            SequenceDataset.from_json(doc)
        assert (err.value.row, err.value.col, err.value.token) == (33, 57, "bad")

    def test_ragged_rows_raise_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="row 1 has 2 tokens, expected 3"):
            _code_rows(self.alpha, [["a", "b", "c"], ["a", "b"]], "ch")

    def test_tokens_decode_in_one_step(self):
        rows = self._padded_rows()
        codes = _code_rows(self.alpha, rows, "ch")
        assert self.alpha.tokens(codes).tolist() == rows
        per_cell = [[self.alpha.token(int(c)) for c in row] for row in codes]
        assert self.alpha.tokens(codes).tolist() == per_cell

    def test_json_bytes_equal_per_cell_formatter(self):
        rows = self._padded_rows()
        ch = Channel("ch", self.alpha, _code_rows(self.alpha, rows, "ch"))
        data = SequenceDataset((ch,), tuple(f"s{i}" for i in range(len(rows))))
        doc = data.to_json()
        doc["channels"][0]["rows"] = [[self.alpha.token(int(c)) for c in r] for r in ch.codes]
        assert json.dumps(data.to_json(), indent=2) == json.dumps(doc, indent=2)


def _csv_module_path(path, alpha):
    """The ``(ids, codes)`` of ``_read_wide_csv`` and ``_code_rows``, or None
    where they raise."""
    try:
        ids, cells = _read_wide_csv(path, "channel 'ch' CSV")
        return ids, _code_rows(alpha, cells, "ch")
    except MarkovSeqError:
        return None


def _assert_byte_path_exact(path, alpha):
    """``_code_csv_bytes`` on ``path`` declines or equals the csv module path."""
    got = _code_csv_bytes(path, alpha)
    if got is not None:
        want = _csv_module_path(path, alpha)
        assert want is not None
        assert type(got[0]) is list and got[0] == want[0]
        assert got[1].dtype == np.int64 and got[1].shape == want[1].shape
        np.testing.assert_array_equal(got[1], want[1])
    return got


# pools for generated channel CSVs: the plain entries can take the byte path;
# the odd ones make the csv module and a plain split differ, or make it raise
_PLAIN_IDS = ["s1", "s2", "s3", "S-4", "s" * 16]
_ODD_IDS = [" s5", "s6\t", "s\r7", "\u00e98", '"s9"', '"s,10"', "", "s" * 17]
_PLAIN_LABELS = ["a", "b", "c1", "12345678", "A"]
_ODD_LABELS = ["123456789", "\u00e9", "x y", "b ", " a", '"a"', "a\r", "a\0"]
_ODD_TOKENS = [" a", "a\t", "b ", '"a"', '"a,b"', "", "q", "123456789", "\u00e9", "a\r"]
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def channel_csvs(draw):
    """(file bytes, alphabet, small field limit) for a wide channel CSV.  Each
    odd feature is on in about one file of six: odd labels, ids or tokens
    (quotes, padding, CR, non-ASCII, empty, unknown, over 8 bytes or over the
    field limit), ragged rows, blank lines, a trailing comma, CRLF or CR line
    ends and a BOM."""
    rarely = st.sampled_from([False] * 5 + [True])
    labels = _PLAIN_LABELS + (_ODD_LABELS if draw(rarely) else [])
    labels = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
    missing = draw(st.sampled_from(["*", "NA"] + (["", "123456789"] if draw(rarely) else [])))
    if missing in labels:
        missing = "*"
    ids = _PLAIN_IDS + (_ODD_IDS if draw(rarely) else [])
    tokens = labels + [missing] + (_ODD_TOKENS if draw(rarely) else [])
    ragged = draw(rarely)
    width = draw(st.integers(1, 4))
    lines = ["id," + ",".join(f"t{t}" for t in range(1, width))] if width > 1 else ["id"]
    for _ in range(draw(st.integers(0, 4))):
        n = max(0, width - 1 + (draw(st.sampled_from([-1, 0, 1])) if ragged else 0))
        cells = draw(st.lists(st.sampled_from(tokens), min_size=n, max_size=n))
        lines.append(",".join([draw(st.sampled_from(ids)), *cells]))
    if draw(rarely):
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(rarely):
        lines[-1] += ","
    eol = draw(st.sampled_from(["\r\n", "\r"])) if draw(rarely) else "\n"
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    if draw(rarely):
        text = "\ufeff" + text
    return text.encode(), Alphabet(tuple(labels), missing), draw(st.booleans())


class TestCodeCsvBytes:
    """The byte-level channel coder against the csv module path it stands for."""

    plain = "id,t1,t2,t3\ns1,b,*,a\ns2,*,b1,a\n"
    alpha = define_alphabet(["a", "b", "b1"])

    def _code(self, tmp_path, text, alpha=None):
        path = tmp_path / "ch.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return _assert_byte_path_exact(path, alpha or self.alpha)

    @staticmethod
    def _check(text, alpha, small_limit):
        limit = csv.field_size_limit()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ch.csv"
            path.write_bytes(text)
            try:
                if small_limit:
                    csv.field_size_limit(16)
                return _assert_byte_path_exact(path, alpha)
            finally:
                csv.field_size_limit(limit)

    @SETTINGS
    @given(channel_csvs())
    def test_generated_files_decline_or_match_csv_module(self, case):
        self._check(*case)

    @SETTINGS
    @given(channel_csvs(), st.integers(0, 10**6), st.binary(min_size=1, max_size=2))
    def test_inserted_bytes_decline_or_match_csv_module(self, case, where, extra):
        text, alpha, small_limit = case
        at = where % (len(text) + 1)
        self._check(text[:at] + extra + text[at:], alpha, small_limit)

    def test_plain_file_takes_byte_path(self, tmp_path):
        ids, codes = self._code(tmp_path, self.plain)
        assert ids == ["s1", "s2"]
        np.testing.assert_array_equal(codes, [[1, MISSING, 0], [MISSING, 2, 0]])
        assert self._code(tmp_path, self.plain[:-1]) is not None  # no final newline

    # Each edit alone makes the file decline.  Where a label is added, it is
    # one that a plain split would match and the csv module would not.
    @pytest.mark.parametrize(
        "edit, label",
        [
            (lambda t: t.replace("b1", "b "), "b "),  # space
            (lambda t: t.replace("b1", "b\t"), "b\t"),  # tab
            (lambda t: t.replace("\n", "\r\n"), "a\r"),  # CRLF
            (lambda t: t.replace("s2", "s\r2"), None),  # CR
            (lambda t: t.replace("s2", '"s2"'), None),  # quote
            (lambda t: t.replace("s2", "s\x002"), None),  # NUL
            (lambda t: t.replace("s2", "s\x7f"), None),  # DEL
            (lambda t: t.replace("s2", "s\u00e9"), None),  # non-ASCII id
            (lambda t: t.encode().replace(b"t3", b"t\xff"), None),  # not UTF-8
            (lambda t: "\ufeff" + t, None),  # BOM
            (lambda t: t.split("\n")[0] + "\n", None),  # header only
            (lambda t: "", None),  # empty file
            (lambda t: "\n" + t, None),  # leading blank line
            (lambda t: t.replace("\ns2", "\n\ns2"), None),  # inner blank line
            (lambda t: t + "\n", None),  # trailing blank line
            (lambda t: t.replace(",*,a\n", ",*\n"), None),  # ragged row
            (lambda t: t.replace(",*,a\ns2,", ",*\na,a,"), None),  # ragged rows, same total
            (lambda t: t.replace("b1,a\n", "b1,a,\n"), None),  # trailing comma
            (lambda t: t.replace(",b,", ",,"), None),  # empty field
            (lambda t: t.replace("b1", "b12345678"), None),  # token over 8 bytes
            (lambda t: t.replace("b1", "q"), None),  # unknown token
            (lambda t: t.replace("s1", "s" * (csv.field_size_limit() + 1)), None),  # long id
        ],
    )
    def test_declines(self, tmp_path, edit, label):
        labels = [*self.alpha.labels, *([label] if label else [])]
        assert self._code(tmp_path, edit(self.plain), define_alphabet(labels)) is None

    def test_declines_label_over_8_bytes_or_with_nul(self, tmp_path):
        for labels in (["a", "b", "b1", "b12345678"], ["a", "b", "b1", "a\0"]):
            assert self._code(tmp_path, self.plain, define_alphabet(labels)) is None

    def test_declines_unreadable_path(self, tmp_path):
        assert _code_csv_bytes(tmp_path / "absent.csv", self.alpha) is None
        assert _code_csv_bytes(tmp_path, self.alpha) is None
        assert _code_csv_bytes(Path("w\0"), self.alpha) is None

    def test_id_at_the_field_limit_takes_byte_path(self, tmp_path):
        long_id = "s" * csv.field_size_limit()
        ids, _ = self._code(tmp_path, self.plain.replace("s1", long_id))
        assert ids == [long_id, "s2"]

    def test_simulated_channel_files_take_byte_path(self, tmp_path, monkeypatch):
        alphabets = [define_alphabet(["a1", "a2", "a3"]), define_alphabet(["b1", "b2"])]
        model = build_hmm(alphabets, n_states=2, rng_seed=3)
        (tmp_path / "model.json").write_text(json.dumps(model_to_json(model)))
        argv = ["simulate", "--model", str(tmp_path / "model.json"), "--n-subjects", "40",
                "--n-time", "12", "--seed", "1", "--missing-rate", "0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        manifest = tmp_path / "dataset_manifest.json"
        for entry in json.loads(manifest.read_text())["channels"]:
            alpha = Alphabet(tuple(entry["alphabet"]), entry["missing_token"])
            assert self._code(tmp_path, (tmp_path / entry["csv"]).read_bytes(), alpha)
        want, _ = ingest_dataset(manifest)

        def no_csv_module(*args):
            raise AssertionError("a simulated channel CSV fell back to the csv module")

        monkeypatch.setattr(seqdata, "_read_wide_csv", no_csv_module)
        got, _ = ingest_dataset(manifest)
        assert got.subject_ids == want.subject_ids
        for a, b in zip(got.channels, want.channels):
            np.testing.assert_array_equal(a.codes, b.codes)

    def test_padded_benchmark_shaped_file_takes_byte_path(self, tmp_path):
        # the wide CSV layout of perfbench's data writer: trailing "*" padding
        # for unequal lengths and about 5 % missing cells, "\n" line ends
        rng = np.random.default_rng(5)
        alpha = define_alphabet([f"a{j + 1}" for j in range(6)])
        cells = np.array([*alpha.labels, "*"])[rng.integers(0, 6, size=(200, 50))]
        cells[rng.random(cells.shape) < 0.05] = "*"
        cells[np.arange(50)[None, :] >= rng.integers(30, 51, size=200)[:, None]] = "*"
        lines = ["id," + ",".join(f"t{t + 1}" for t in range(50))]
        lines += [f"s{i + 1}," + ",".join(row) for i, row in enumerate(cells)]
        ids, codes = self._code(tmp_path, "\n".join(lines) + "\n", alpha)
        assert ids[-1] == "s200" and (codes == MISSING).mean() > 0.15


def _two_channel_dataset():
    marital = Alphabet(("single", "married"))
    kids = Alphabet(("childless", "children"))
    ch1 = Channel("marital", marital, np.array([[1, 0], [0, MISSING]]))
    ch2 = Channel("kids", kids, np.array([[1, 1], [MISSING, 0]]))
    return SequenceDataset((ch1, ch2), ("s1", "s2"))


class TestMcToSc:
    def test_labels_joined_by_separator(self):
        combined = mc_to_sc(_two_channel_dataset())
        labels = combined.channels[0].alphabet.labels
        assert "married/children" in labels
        # combination order is lexicographic in channel-code tuples
        assert labels == ("single/children", "married/children")

    def test_any_missing_channel_makes_combined_missing(self):
        combined = mc_to_sc(_two_channel_dataset())
        codes = combined.channels[0].codes
        labels = combined.channels[0].alphabet.labels
        assert labels[codes[0, 0]] == "married/children"
        assert labels[codes[0, 1]] == "single/children"
        assert codes[1, 0] == MISSING  # kids channel missing at (1, 0)
        assert codes[1, 1] == MISSING  # marital channel missing at (1, 1)

    def test_single_channel_input_unchanged(self):
        a = Alphabet(("a", "b", "c"))
        ch = Channel("only", a, np.array([[0, 2]]))
        data = SequenceDataset((ch,), ("s1",))
        out = mc_to_sc(data)
        assert out.channels[0].alphabet == a
        np.testing.assert_array_equal(out.channels[0].codes, ch.codes)

    def test_alphabet_bounded_by_product_and_decodable(self):
        rng = np.random.default_rng(7)
        sizes = (3, 2, 2)
        alphas = [Alphabet(tuple(f"c{c}m{j}" for j in range(m))) for c, m in enumerate(sizes)]
        channels = tuple(
            Channel(f"ch{c}", a, rng.integers(0, a.size, size=(6, 9)))
            for c, a in enumerate(alphas)
        )
        data = SequenceDataset(channels, tuple(f"s{i}" for i in range(6)))
        combined = mc_to_sc(data)
        labels = combined.channels[0].alphabet.labels
        assert len(labels) <= int(np.prod(sizes))
        assert len(set(labels)) == len(labels)
        # every combined label splits back into exactly one per-channel label
        for label in labels:
            parts = label.split("/")
            assert len(parts) == 3
            for part, a in zip(parts, alphas):
                assert part in a.labels


def _mc_to_sc_reference(data, separator="/"):
    """mc_to_sc as it was before np.unique: a per-cell set of code tuples,
    sorted, then a per-cell lookup."""
    if data.n_channels == 1:
        return data
    stacked = np.stack([ch.codes for ch in data.channels])  # (C, N, T)
    all_observed = np.all(stacked != MISSING, axis=0)
    tuples = sorted({tuple(stacked[:, i, t]) for i, t in np.argwhere(all_observed)})
    index = {tup: k for k, tup in enumerate(tuples)}
    labels = tuple(
        separator.join(ch.alphabet.labels[c] for ch, c in zip(data.channels, tup))
        for tup in tuples
    )
    codes = np.full((data.n_subjects, data.n_time), MISSING, dtype=np.int64)
    for i, t in np.argwhere(all_observed):
        codes[i, t] = index[tuple(stacked[:, i, t])]
    name = separator.join(data.channel_names)
    missing_token = data.channels[0].alphabet.missing_token
    channel = Channel(name, Alphabet(labels, missing_token), codes)
    return SequenceDataset((channel,), data.subject_ids)


def _coded_dataset(rng, sizes, n_subjects, n_time, missing_rate, high=None):
    """Channels of random codes; ``high`` caps every channel's codes to
    fewer symbols than its alphabet has."""
    channels = []
    for c, m in enumerate(sizes):
        codes = rng.integers(0, high or m, size=(n_subjects, n_time))
        codes[rng.random(codes.shape) < missing_rate] = MISSING
        channels.append(Channel(f"ch{c}", Alphabet(tuple(f"s{j}" for j in range(m))), codes))
    return SequenceDataset(tuple(channels), tuple(f"id{i}" for i in range(n_subjects)))


class TestMcToScAgainstReference:
    """The np.unique mc_to_sc returns what the per-cell loops returned."""

    @pytest.mark.parametrize(
        "sizes, missing_rate, high",
        [
            ((3, 4), 0.0, None),
            ((2, 5), 0.1, None),
            ((3, 2, 4), 0.2, None),
            ((12, 11, 3), 0.1, None),
            ((3, 4, 2), 0.3, 1),
            ((300,) * 8, 0.1, None),  # 300 ** 8 combinations overflow int64
        ],
        ids=["2ch", "2ch-missing", "3ch-missing", "3ch-wide", "one-tuple", "8ch-beyond-int64"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_output(self, sizes, missing_rate, high, seed):
        data = _coded_dataset(np.random.default_rng(seed), sizes, 40, 9, missing_rate, high)
        got, want = mc_to_sc(data, "+"), _mc_to_sc_reference(data, "+")
        assert got.channels[0].alphabet == want.channels[0].alphabet
        assert got.channels[0].name == want.channels[0].name
        assert got.subject_ids == want.subject_ids
        assert got.channels[0].codes.dtype == want.channels[0].codes.dtype
        np.testing.assert_array_equal(got.channels[0].codes, want.channels[0].codes)
        if high == 1:
            assert got.channels[0].alphabet.labels == ("s0+s0+s0",)

    def test_no_fully_observed_cell_raises_the_same_error(self):
        a = Alphabet(("x", "y"))
        data = SequenceDataset(
            (
                Channel("a", a, np.array([[0, MISSING], [MISSING, 1]])),
                Channel("b", a, np.array([[MISSING, 1], [0, MISSING]])),
            ),
            ("s1", "s2"),
        )
        with pytest.raises(MarkovSeqError) as want:
            _mc_to_sc_reference(data)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            mc_to_sc(data)

class TestEffectiveSize:
    def test_fully_observed_equals_nt(self):
        a = Alphabet(("a", "b"))
        data = SequenceDataset(
            (Channel("x", a, np.array([[0, 1, 0], [1, 1, 0]])),), ("s1", "s2")
        )
        assert effective_size(data) == 6.0

    def test_half_weight_for_missing_channel(self):
        a = Alphabet(("a", "b"))
        ch1 = Channel("x", a, np.array([[0, 1]]))
        ch2 = Channel("y", a, np.array([[0, MISSING]]))
        data = SequenceDataset((ch1, ch2), ("s1",))
        assert effective_size(data) == 1.5

    def test_all_missing_is_zero(self):
        a = Alphabet(("a", "b"))
        data = SequenceDataset(
            (Channel("x", a, np.full((2, 3), MISSING)),), ("s1", "s2")
        )
        assert effective_size(data) == 0.0

    def test_bounded_by_nt_with_equality_iff_complete(self):
        rng = np.random.default_rng(3)
        a = Alphabet(("a", "b", "c"))
        for _ in range(20):
            rate = rng.choice([0.0, 0.3])
            codes = rng.integers(0, 3, size=(4, 5))
            gaps = rng.random((4, 5)) < rate
            codes = np.where(gaps, MISSING, codes)
            data = SequenceDataset((Channel("x", a, codes),), tuple(f"s{i}" for i in range(4)))
            size = effective_size(data)
            assert size <= 20.0
            assert (size == 20.0) == (not gaps.any())
