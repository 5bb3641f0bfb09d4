"""Exception hierarchy shared by all markovseq modules, and one check per kind of argument."""

import numbers


class MarkovSeqError(Exception):
    """Base class for every error raised by this package."""


# -- sequence data ------------------------------------------------------


class DuplicateLabel(MarkovSeqError):
    pass


class MissingTokenCollision(MarkovSeqError):
    pass


class UnknownToken(MarkovSeqError):
    def __init__(self, channel, row, col, token):
        self.channel = channel
        self.row = row
        self.col = col
        self.token = token
        super().__init__(
            f"unknown token {token!r} in channel {channel!r} at row {row}, column {col}"
        )


class ShapeMismatch(MarkovSeqError):
    pass


class MissingCovariate(MarkovSeqError):
    pass


class InvalidJson(MarkovSeqError):
    """A manifest or model file that is not UTF-8 JSON; the message names
    the file."""


class UnreadableFile(MarkovSeqError):
    """An input file that cannot be opened, is not UTF-8 text, or (a CSV
    file) cannot be parsed as CSV; the message names the file."""


class UnwritableOutput(MarkovSeqError):
    """An output directory that cannot be created, or an artifact in it
    that cannot be written; the message names the path."""


# -- model construction -------------------------------------------------


class DimensionMismatch(MarkovSeqError):
    """Shapes only: arrays, or counts of states, channels or clusters, that do not fit."""


class RowSumError(MarkovSeqError):
    def __init__(self, where, row, total):
        self.where = where
        self.row = row
        self.total = total
        super().__init__(f"{where} row {row} sums to {total!r}, expected 1 within 1e-8")


class NegativeProbability(MarkovSeqError):
    pass


class MultichannelNotAllowed(MarkovSeqError):
    pass


class GammaReferenceNotZero(MarkovSeqError):
    pass


class InvalidParameter(MarkovSeqError):
    """A value that is not of its kind or lies outside its domain: an
    argument that fails its check below, or a model or manifest value
    outside its domain (a non-zero value at a structural zero, say)."""


class RowAnnihilated(MarkovSeqError):
    pass


# -- inference -----------------------------------------------------------


class NumericalUnderflow(MarkovSeqError):
    """A NaN log-likelihood, or a scaled forward pass that underflowed for a
    possible subject where the call needs its posteriors or E-step statistics."""


class AlphabetMismatch(MarkovSeqError):
    pass


class ImpossibleData(MarkovSeqError):
    """A subject the model gives zero probability, where a call divides by its likelihood."""


class DegenerateData(MarkovSeqError):
    pass


# -- estimation ----------------------------------------------------------


class RankDeficientDesign(MarkovSeqError):
    pass


class NonInvertibleHessian(MarkovSeqError):
    pass


# -- plotting / cli -------------------------------------------------------


class EmptyDataset(MarkovSeqError):
    pass


# -- argument checks: one per kind, run at public entry points only --------


def check_count(value, name: str, low: int, optional: bool = False):
    """``value`` as an int: an integer >= ``low`` (a numpy integer is one, a
    bool is not), or None where ``optional``."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameter(f"{name} must be an integer >= {low}, got {value!r}")
    if value < low:
        raise InvalidParameter(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def check_real(value, name: str, low: float, high: float, open_low: bool = False) -> float:
    """``value`` as a float: a real number (not a bool) in [low, high], or in
    (low, high] where ``open_low``.  NaN is in no range; ``high`` may be inf."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (low < value if open_low else low <= value) and value <= high):
        interval = f"{'(' if open_low else '['}{low:g}, {high:g}]"
        raise InvalidParameter(f"{name} must be a number in {interval}, got {value!r}")
    return float(value)


def check_text(value, name: str, choices=()) -> str:
    """``value`` if it is a string; with ``choices``, its lower-case form,
    which must be one of them."""
    if choices and not (isinstance(value, str) and value.lower() in choices):
        raise InvalidParameter(f"unknown {name} {value!r}, expected one of {', '.join(choices)}")
    if not isinstance(value, str):
        raise InvalidParameter(f"{name} must be a string, not {type(value).__name__}")
    return value.lower() if choices else value


def check_instance(value, kind, caller: str):
    """``value`` if it is a ``kind``, a type or a tuple of types; the error
    names ``caller``, which takes it."""
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        article = "an" if kinds[0] in "AEIOU" else "a"
        raise InvalidParameter(f"{caller} takes {article} {kinds}, got {type(value).__name__}")
    return value
