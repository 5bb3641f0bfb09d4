"""Channel CSVs the CLI writes read back to the same dataset.

``simulate`` and ``convert`` write one wide CSV per channel; ``validate`` and
``ingest_dataset`` must give back the same subject ids and codes, also for
ids and labels that hold commas, quotes, line breaks or non-ASCII text.  The
reader strips every token, so an alphabet label or missing token with outer
whitespace is rejected where the alphabet is made.
"""

import json

import numpy as np
import pytest

from markovseq import (
    Alphabet,
    Channel,
    SequenceDataset,
    build_hmm,
    ingest_dataset,
    mc_to_sc,
    model_to_json,
)
from markovseq.cli import _write_dataset_files, main
from markovseq.errors import InvalidParameter

from helpers import write_manifest

LABELS = [
    ("x,y", "z"),
    ('say "hi"', '"', "plain"),
    ("two\nlines", "cr\rhere", "mid\r\nline"),
    ("grüße", "日本", "ä,ö", "mid dle"),
]


def _hmm(labels):
    return build_hmm(
        (Alphabet(tuple(labels), "?"),),
        initial=[0.6, 0.4],
        transition=[[0.7, 0.3], [0.2, 0.8]],
        emissions=[np.tile(1.0 / len(labels), (2, len(labels)))],
        channel_names=("work, or play",),
    )


@pytest.mark.parametrize("labels", LABELS)
def test_simulate_then_validate_gives_back_the_data(tmp_path, labels):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_json(_hmm(labels))))
    out = tmp_path / "sim"
    code = main(["simulate", "--model", str(model), "--n-subjects", "20", "--n-time", "6",
                 "--seed", "3", "--missing-rate", "0.2", "--out", str(out)])
    assert code == 0
    manifest = out / "dataset_manifest.json"
    assert main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "v")]) == 0
    data, _ = ingest_dataset(manifest)
    want = SequenceDataset.from_json(json.loads((out / "dataset.json").read_text()))
    assert data.subject_ids == want.subject_ids
    assert data.alphabets == want.alphabets
    np.testing.assert_array_equal(data.channels[0].codes, want.channels[0].codes)


@pytest.mark.parametrize(
    "labels, missing",
    [((" lead", "b"), "*"), (("a", "trail "), "*"), (("a", "b"), "\tNA"), (("a", "b\r"), "*")],
)
def test_labels_with_outer_whitespace_are_rejected(labels, missing):
    with pytest.raises(InvalidParameter, match="outer whitespace"):
        Alphabet(labels, missing)


def test_a_hand_written_file_with_padded_tokens_is_read(tmp_path):
    (tmp_path / "ch.csv").write_text("id, t1, t2\ns1, a, b\ns2,b ,*\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"channels": [{"name": "ch", "csv": "ch.csv",
                                                  "alphabet": ["a", "b"]}]}))
    data, _ = ingest_dataset(manifest)
    np.testing.assert_array_equal(data.channels[0].codes, [[0, 1], [1, -1]])


def test_ids_that_need_quotes_come_back(tmp_path):
    ids = ("a,b", 'q"uote', "line\nbreak", "carriage\rreturn", "naïve", " spaced ")
    alpha = Alphabet(("x,1", "y"))
    codes = np.array([[0, 1, -1], [1, 1, 0], [0, 0, 0], [-1, -1, 1], [1, 0, 1], [0, 1, 0]])
    data = SequenceDataset((Channel("c", alpha, codes),), ids)
    _write_dataset_files(data, tmp_path, "dataset")
    back, _ = ingest_dataset(tmp_path / "dataset_manifest.json")
    assert back.subject_ids == ids
    np.testing.assert_array_equal(back.channels[0].codes, codes)


def test_convert_with_comma_separator_validates(tmp_path):
    manifest = write_manifest(
        tmp_path,
        [
            ("one", ["a", "b"], [["a", "b", "*"], ["b", "b", "a"]]),
            ("two", ["x", "y"], [["y", "x", "x"], ["x", "*", "y"]]),
        ],
    )
    out = tmp_path / "conv"
    code = main(["convert", "--manifest", str(manifest), "--separator", ",", "--out", str(out)])
    assert code == 0
    converted = out / "converted_manifest.json"
    assert main(["validate", "--manifest", str(converted), "--out", str(tmp_path / "v")]) == 0
    back, _ = ingest_dataset(converted)
    want = mc_to_sc(ingest_dataset(manifest)[0], ",")
    assert back.alphabets == want.alphabets
    assert all("," in label for label in back.alphabets[0].labels)
    np.testing.assert_array_equal(back.channels[0].codes, want.channels[0].codes)


@pytest.mark.parametrize("names", [("a,b", "a;b"), ("A", "a")])
def test_channels_whose_file_names_would_collide_get_their_own_files(tmp_path, names):
    # "a,b" and "a;b" have one safe name; "A" and "a" one on a file system
    # that ignores case
    alphabets = (Alphabet(("p", "q")), Alphabet(("r", "s", "t")))
    hmm = build_hmm(alphabets, initial=[1.0], transition=[[1.0]],
                    emissions=[[[0.5, 0.5]], [[0.2, 0.3, 0.5]]], channel_names=names)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_json(hmm)))
    out = tmp_path / "sim"
    assert main(["simulate", "--model", str(model), "--n-subjects", "5", "--n-time", "4",
                 "--seed", "1", "--out", str(out)]) == 0
    manifest = out / "dataset_manifest.json"
    files = [entry["csv"] for entry in json.loads(manifest.read_text())["channels"]]
    assert len({f.lower() for f in files}) == 2 and all(f.startswith("dataset_") for f in files)
    assert main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "v")]) == 0
    data, _ = ingest_dataset(manifest)
    want = SequenceDataset.from_json(json.loads((out / "dataset.json").read_text()))
    assert data.channel_names == names
    for got, ch in zip(data.channels, want.channels):
        np.testing.assert_array_equal(got.codes, ch.codes)
