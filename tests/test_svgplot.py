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
from markovseq.errors import EmptyDataset
from markovseq.seqdata import MISSING
from markovseq.svgplot import DEFAULT_PALETTE


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
