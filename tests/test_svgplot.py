import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from markovseq import (
    Alphabet,
    Channel,
    SequenceDataset,
    render_state_distribution_svg,
)
from markovseq.cli import main
from markovseq.errors import EmptyDataset, InvalidParameter
from markovseq.seqdata import MISSING
from markovseq.svgplot import DEFAULT_PALETTE

from helpers import write_manifest

SVG = "{http://www.w3.org/2000/svg}"


def _dataset(codes_per_channel, labels_per_channel):
    channels = []
    for c, (codes, labels) in enumerate(zip(codes_per_channel, labels_per_channel)):
        channels.append(Channel(f"ch{c}", Alphabet(tuple(labels)), np.asarray(codes)))
    n = channels[0].codes.shape[0]
    return SequenceDataset(tuple(channels), tuple(f"s{i}" for i in range(n)))


def _bars(svg):
    # bar rects carry .2f-formatted coordinates; legend squares use bare ints
    return re.findall(
        r'<rect x="\d+\.\d+" y="(\d+\.\d+)" width="\d+\.\d+" height="(\d+\.\d+)" fill="([^"]+)"',
        svg,
    )


class TestStateDistributionSvg:
    def test_single_state_data_one_full_bar_per_time(self):
        data = _dataset([np.zeros((4, 3), dtype=int)], [["only"]])
        svg = render_state_distribution_svg(data)
        bars = [b for b in _bars(svg) if b[2] == DEFAULT_PALETTE[0]]
        assert len(bars) == 3  # one per time point
        assert all(float(h) == 150.0 for _, h, _ in bars)

    def test_half_half_split_at_half_height(self):
        codes = np.array([[0, 0], [1, 1]])
        data = _dataset([codes], [["a", "b"]])
        svg = render_state_distribution_svg(data)
        heights = [float(h) for _, h, fill in _bars(svg) if fill in DEFAULT_PALETTE[:2]]
        assert heights == [75.0] * 4

    def test_three_channels_three_panels_in_order(self):
        codes = np.zeros((2, 2), dtype=int)
        data = _dataset([codes, codes, codes], [["a"], ["x"], ["p"]])
        svg = render_state_distribution_svg(data)
        panels = re.findall(r'data-channel="([^"]+)"', svg)
        assert panels == ["ch0", "ch1", "ch2"]

    def test_missing_drawn_as_hatched_band(self):
        codes = np.array([[0, MISSING], [0, 0]])
        data = _dataset([codes], [["a"]])
        svg = render_state_distribution_svg(data)
        assert 'fill="url(#missing-hatch)"' in svg
        hatched = [b for b in _bars(svg) if b[2] == "url(#missing-hatch)"]
        assert len(hatched) == 1
        assert float(hatched[0][1]) == 75.0  # one of two subjects missing

    def test_deterministic_output(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 3, size=(5, 7))
        data = _dataset([codes], [["a", "b", "c"]])
        assert render_state_distribution_svg(data) == render_state_distribution_svg(data)

    def test_custom_palette_per_channel(self):
        codes = np.zeros((2, 2), dtype=int)
        data = _dataset([codes, codes], [["a"], ["x"]])
        svg = render_state_distribution_svg(data, palette=[["#111111"], ["#222222"]])
        assert 'fill="#111111"' in svg and 'fill="#222222"' in svg

    def test_empty_dataset_rejected(self):
        data = _dataset([np.zeros((0, 3), dtype=int)], [["a"]])
        with pytest.raises(EmptyDataset):
            render_state_distribution_svg(data)

    def test_names_and_labels_are_escaped(self):
        channel = Channel('ch"1', Alphabet(("a<b", "x&y")), np.array([[0, 1], [1, 0]]))
        svg = render_state_distribution_svg(SequenceDataset((channel,), ("s0", "s1")))
        root = ET.fromstring(svg)  # raises on a document that is not well-formed
        ns = {"svg": "http://www.w3.org/2000/svg"}
        panel = root.find("svg:g", ns)
        assert panel.get("data-channel") == 'ch"1'
        texts = [t.text for t in panel.iterfind("svg:text", ns)]
        assert texts[0] == 'ch"1'
        assert texts[-2:] == ["a<b", "x&y"]


def test_palette_entries_are_escaped():
    data = _dataset([np.array([[0, 1]])], [["a", "b"]])
    svg = render_state_distribution_svg(data, palette=["#111", '"/><x'])
    root = ET.fromstring(svg)  # raises on a document that is not well-formed
    assert '"/><x' in [rect.get("fill") for rect in root.iter(f"{SVG}rect")]


def test_tabs_and_line_breaks_are_written():
    channel = Channel("tab\there", Alphabet(("line\nbreak", "b")), np.array([[0, 1]]))
    root = ET.fromstring(render_state_distribution_svg(SequenceDataset((channel,), ("s0",))))
    texts = [t.text for t in root.iter(f"{SVG}text")]
    assert texts[0] == "tab\there"
    assert texts[-2:] == ["line\nbreak", "b"]


def test_tab_lf_and_cr_read_back_in_attributes_and_text():
    channel = Channel("tab\there\nx", Alphabet(("a\rb", "c")), np.array([[0, 1]]))
    root = ET.fromstring(render_state_distribution_svg(SequenceDataset((channel,), ("s0",))))
    assert root.find(f"{SVG}g").get("data-channel") == "tab\there\nx"
    texts = [t.text for t in root.iter(f"{SVG}text")]
    assert texts[0] == "tab\there\nx"
    assert texts[-2:] == ["a\rb", "c"]


@pytest.mark.parametrize(
    "name, labels, palette",
    [
        ("c\x01", ("a", "b"), None),
        ("c", ("a\x02", "b"), None),
        ("c", ("a", "b\ufffe"), None),
        ("c\ud800", ("a", "b"), None),
        ("c", ("a", "b"), ["#111", "#2\x1b2"]),
    ],
    ids=["name", "label", "noncharacter", "surrogate", "palette"],
)
def test_text_xml_cannot_hold_raises(name, labels, palette):
    channel = Channel(name, Alphabet(labels), np.array([[0, 1]]))
    with pytest.raises(InvalidParameter, match=f"channel {re.escape(repr(name))}"):
        render_state_distribution_svg(SequenceDataset((channel,), ("s0",)), palette)


def test_plot_of_a_name_xml_cannot_hold_exits_one(tmp_path, capsys):
    manifest = write_manifest(tmp_path, [("work", ["a", "b"], [["a", "b"], ["b", "a"]])])
    doc = json.loads(manifest.read_text())
    doc["channels"][0]["name"] = "c\x01"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["plot", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("InvalidParameter: channel 'c\\x01'")
    assert (out / "run.log").read_text().splitlines()[-1].startswith("error: InvalidParameter")
    assert not (out / "plot.svg").exists()
