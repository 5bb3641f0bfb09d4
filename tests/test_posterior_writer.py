"""The posterior CSV writer against ``'%.17g' % x`` and ``csv.writer``.

``floattext.g17_fields`` formats a whole array at once: exact 17-digit
significands from a double-double product, with ``'%.17g'`` itself as the
fallback near rounding ties and decade edges.  ``_ref_posterior_csv``
writes each cell's row with ``csv.writer``, the reference for whole tables.
"""

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovseq import floattext
from markovseq.cli import _BLOCK_BYTES, _csv_field, _csv_table, _times
from markovseq.floattext import WIDTH, g17_fields

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _posterior_csv(subject_ids, state_names, post) -> bytes:
    """posterior.csv's bytes, as the ``posterior`` command lays them out."""
    header = ("subject_id", "t", *state_names)
    return _csv_table(header, subject_ids, [_times(*post.shape[:2])], post)


def _ref_posterior_csv(subject_ids, state_names, post) -> bytes:
    """The same table from ``csv.writer``, one row per cell, in UTF-8."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["subject_id", "t", *state_names])
    for sid, probs in zip(subject_ids, post):
        writer.writerows([sid, t, *("%.17g" % p for p in row)] for t, row in enumerate(probs, 1))
    return fh.getvalue().encode()


def _wrong(values) -> list:
    """(value, formatter text, '%.17g' text) for the first few values the
    formatter gets wrong; empty when all agree."""
    values = np.ravel(values)
    fields = g17_fields(values, np.uint8(ord("\n")))
    assert fields.shape == (values.size, WIDTH)
    got = fields.tobytes().translate(None, b"\xff").decode().split("\n")[:-1]
    assert len(got) == values.size
    return [(x, g, "%.17g" % x) for x, g in zip(values.tolist(), got) if g != "%.17g" % x][:5]


def _first_difference(got: bytes, want: bytes):
    """The first differing line of two tables as (index, got, want), or None."""
    for i, pair in enumerate(itertools.zip_longest(got.split(b"\n"), want.split(b"\n"))):
        if pair[0] != pair[1]:
            return i, *pair
    return None


def _families(rng, n):
    """About ``n`` doubles from each family, plus every power of ten with
    its neighbours one ulp away and the special values."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate(
        [
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
            rng.random(n),
            np.exp(-745.0 * rng.random(n)),
            rng.integers(-(2**62), 2**62, n).astype(float),
            np.arange(-n // 2, n // 2, dtype=float),
            tens,
            np.nextafter(tens, 0.0),
            np.nextafter(tens, np.inf),
            -tens,
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.7976931348623157e308],
        ]
    )


def test_fields_equal_percent_format_on_a_million_values():
    values = _families(np.random.default_rng(15), 200_000)
    assert values.size >= 1_000_000
    assert _wrong(values) == []


def test_rounding_ties_and_decade_edges():
    # exact ties at the 17th digit round half to even; 9.99...95e-5 carries
    # into the next decade
    values = np.array(
        [1 + 2.0**-17, 1 + 3 * 2.0**-17, 2.0**-17 * 3, 0.5, 1.0, 10.0, 1e22, 1e23,
         9.9999999999999995e-5, 99999999999999999.0, 0.1, 1e-5, 1e16, 1e17]
    )
    assert _wrong(values) == []
    assert _wrong(-values) == []


@SETTINGS
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=50))
def test_fields_equal_percent_format_on_any_floats(xs):
    assert _wrong(np.array(xs, dtype=float)) == []


def _near_ties(exponents):
    """Doubles M * 2**E whose y = M * 2**E * 10**(16 - X) lies within 2**-54
    of a half-integer but not on it, for M of 53 bits.

    With F = -(E + 16 - X) fraction bits, frac(y) = (M * c mod 2**F) / 2**F
    for c = 5**(16 - X) mod 2**F, so such M are lattice points of
    {(M, M * c - j * 2**F)} near (1.5 * 2**52, 2**(F - 1)): a Gauss-reduced
    basis and the points next to the rounded coordinates find them.
    """
    found = []
    for E in exponents:
        X = math.floor(math.log10(1.5 * 2.0 ** (52 + E)))
        k, F = 16 - X, X - 16 - E
        c, scale = 5**k % 2**F, 2 ** (F - 54)
        u, v = (scale, c << 51), (0, 2**F << 51)
        while True:  # Gauss reduction
            if u[0] ** 2 + u[1] ** 2 > v[0] ** 2 + v[1] ** 2:
                u, v = v, u
            mu = round(Fraction(u[0] * v[0] + u[1] * v[1], u[0] ** 2 + u[1] ** 2))
            if mu == 0:
                break
            v = (v[0] - mu * u[0], v[1] - mu * u[1])
        t = (3 * 2**51 * scale, 2 ** (F - 1) << 51)
        det = u[0] * v[1] - u[1] * v[0]
        x = round(Fraction(t[0] * v[1] - t[1] * v[0], det))
        y = round(Fraction(u[0] * t[1] - u[1] * t[0], det))
        for i, j in itertools.product(range(-3, 4), repeat=2):
            M = ((x + i) * u[0] + (y + j) * v[0]) // scale
            d = M * c % 2**F - 2 ** (F - 1)
            value = math.ldexp(M, E)
            if 2**52 <= M < 2**53 and 0 < abs(d) < 2 ** (F - 54):
                if math.floor(math.log10(value)) == X:
                    found.append(value)
    return np.array(found)


def test_near_ties_take_the_fallback():
    # the double-double y is within 2**-46 of the truth, so on these the
    # fast path alone would round to the wrong side about half the time
    values = _near_ties(range(-1000, -200))
    assert values.size > 200
    assert _wrong(values) == []


def test_fallback_for_every_value_gives_the_same_bytes(monkeypatch):
    values = _families(np.random.default_rng(16), 2_000)
    monkeypatch.setattr(floattext, "_MARGIN", 1.0)  # every y is "near" a tie
    assert _wrong(values) == []


def test_separators_follow_values():
    values = np.array([[0.25, -0.0, np.nan], [2.0**-24, 3.0, np.inf]])
    fields = g17_fields(values, np.frombuffer(b",;\n", np.uint8))
    want = b"0.25,-0;nan\n5.9604644775390625e-08,3;inf\n"
    assert fields.tobytes().translate(None, b"\xff") == want


def _posteriors(rng, N, T, S):
    post = rng.dirichlet(np.full(S, 0.3), size=(N, T))
    flat = post.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, 12), replace=False)
    flat[picks] = [0.0, 1.0, 1e-300, 5e-324, 1 + 2.0**-17, -0.0, 0.5, 1e-5, 1e22, np.nan,
                   np.inf, -2.5e-7][: picks.size]
    return post


_IDS = ("a", "b%s", "c,d", "10", "süßes Ω", "x" * 40, "%d,%s", "")


@pytest.mark.parametrize("N, T, S", [(1, 1, 1), (5, 1, 3), (4, 7, 1), (8, 50, 6)])
def test_table_equals_csv_writer(N, T, S):
    post = _posteriors(np.random.default_rng(N * 100 + T * 10 + S), N, T, S)
    ids = _IDS[:N]
    names = tuple(f"State {s + 1}" for s in range(S))
    got, want = _posterior_csv(ids, names, post), _ref_posterior_csv(ids, names, post)
    assert _first_difference(got, want) is None
    assert got == want


def test_blocks_with_a_short_last_one_equal_csv_writer():
    T, S = 20, 3
    ids = tuple(f"{_IDS[i % len(_IDS)]}-{i}" for i in range(1001))
    # the writer's row: id, ",t", a comma, S fields and the LF
    width = max(len(_csv_field(s).encode()) for s in ids) + len(f",{T},") + S * WIDTH + 1
    step = _BLOCK_BYTES // (T * width)
    assert 2 < len(ids) / step and len(ids) % step
    post = _posteriors(np.random.default_rng(3), len(ids), T, S)
    names = ("x", "y,z", "%s")
    got, want = _posterior_csv(ids, names, post), _ref_posterior_csv(ids, names, post)
    assert _first_difference(got, want) is None
    assert got == want


def test_empty_tables_equal_csv_writer():
    for shape in [(0, 5, 2), (3, 0, 2)]:
        post = np.zeros(shape)
        ids = _IDS[: shape[0]]
        assert _posterior_csv(ids, ("a", "b"), post) == _ref_posterior_csv(ids, ("a", "b"), post)
