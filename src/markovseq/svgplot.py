"""Stacked state-distribution plots as standalone SVG documents.

One panel per channel, stacked vertically over a shared time axis.  Each
time point shows a stacked bar of state proportions among observed cells;
the missing share of subjects appears as a separate hatched band on top,
so colored segment heights are counts/N and the full bar always reaches
height one.  Output is a deterministic function of the input.
"""

from __future__ import annotations

from html import escape
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyDataset, check_instance
from .seqdata import MISSING, SequenceDataset

#: Fixed qualitative palette (12 colors), cycled when a channel has more states.
DEFAULT_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
    "#86bcb6",
    "#d37295",
)

_MISSING_FILL = "url(#missing-hatch)"

_LEFT = 56
_LEGEND_W = 170
_PANEL_H = 150
_PANEL_GAP = 42
_TOP = 28
_BOTTOM = 34
_PLOT_W = 480


def _channel_palette(palette, c: int, n_states: int) -> list[str]:
    if palette is None:
        base = DEFAULT_PALETTE
    elif palette and isinstance(palette[0], (list, tuple)):
        base = palette[c % len(palette)]
    else:
        base = palette
    return [base[m % len(base)] for m in range(n_states)]


def render_state_distribution_svg(
    data: SequenceDataset, palette: Optional[Sequence] = None
) -> str:
    """Render per-time-point state distributions for every channel.

    ``palette`` may be a flat color list shared by all channels or one
    list per channel; channels with any missing cells get an extra hatched
    legend entry.
    """
    check_instance(data, SequenceDataset, "render_state_distribution_svg")
    if data.n_subjects == 0 or data.n_time == 0:
        raise EmptyDataset("nothing to plot")
    N, T, C = data.n_subjects, data.n_time, data.n_channels
    width = _LEFT + _PLOT_W + _LEGEND_W
    height = _TOP + C * (_PANEL_H + _PANEL_GAP) + _BOTTOM - _PANEL_GAP

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">'
    )
    out.append(
        '<defs><pattern id="missing-hatch" width="6" height="6" '
        'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
        '<rect width="6" height="6" fill="#ffffff"/>'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#888888" stroke-width="2"/>'
        "</pattern></defs>"
    )
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    bar_w = _PLOT_W / T
    tick_every = max(1, T // 10)
    for c, ch in enumerate(data.channels):
        top = _TOP + c * (_PANEL_H + _PANEL_GAP)
        bottom = top + _PANEL_H
        colors = _channel_palette(palette, c, ch.alphabet.size)
        name = escape(ch.name, quote=True)  # names and labels come from manifests
        out.append(f'<g class="panel" data-channel="{name}">')
        out.append(f'<text x="{_LEFT}" y="{top - 8:.2f}" font-weight="bold">{name}</text>')
        counts = np.stack(
            [(ch.codes == m).sum(axis=0) for m in range(ch.alphabet.size)]
        )  # (M, T)
        miss = (ch.codes == MISSING).sum(axis=0)
        for t in range(T):
            x = _LEFT + t * bar_w
            y = bottom
            for m in range(ch.alphabet.size):
                h = counts[m, t] / N * _PANEL_H
                if h == 0:
                    continue
                y -= h
                out.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                    f'height="{h:.2f}" fill="{colors[m]}"/>'
                )
            if miss[t] > 0:
                h = miss[t] / N * _PANEL_H
                y -= h
                out.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                    f'height="{h:.2f}" fill="{_MISSING_FILL}" stroke="#888888" '
                    'stroke-width="0.5"/>'
                )
        # axes
        out.append(
            f'<line x1="{_LEFT}" y1="{bottom}" x2="{_LEFT + _PLOT_W}" y2="{bottom}" '
            'stroke="#000000"/>'
        )
        out.append(
            f'<line x1="{_LEFT}" y1="{top}" x2="{_LEFT}" y2="{bottom}" stroke="#000000"/>'
        )
        for frac, lab in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
            y = bottom - frac * _PANEL_H
            out.append(
                f'<text x="{_LEFT - 6}" y="{y + 4:.2f}" text-anchor="end">{lab}</text>'
            )
        for t in range(0, T, tick_every):
            x = _LEFT + (t + 0.5) * bar_w
            out.append(
                f'<text x="{x:.2f}" y="{bottom + 14}" text-anchor="middle">{t + 1}</text>'
            )
        # legend
        lx = _LEFT + _PLOT_W + 16
        entries = list(zip(ch.alphabet.labels, colors))
        if miss.sum() > 0:
            entries.append(("missing", _MISSING_FILL))
        for j, (label, fill) in enumerate(entries):
            ly = top + j * 18
            out.append(
                f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{fill}" '
                'stroke="#555555" stroke-width="0.5"/>'
            )
            out.append(f'<text x="{lx + 17}" y="{ly + 10}">{escape(label, quote=True)}</text>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
