"""Exception hierarchy shared by all markovseq modules."""


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
    pass


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
    """A parameter value outside its domain: a non-zero value at a
    structural zero, a non-finite covariate coefficient, a model entry that
    is not a number, a manifest value of the wrong type, a negative seed,
    or a simulation size below 1 or missing rate outside [0, 1]."""


class RowAnnihilated(MarkovSeqError):
    pass


# -- inference -----------------------------------------------------------


class NumericalUnderflow(MarkovSeqError):
    """Scaled forward pass hit a zero or non-finite normalizer (or log-space
    produced NaN).

    Log-space mode is more robust; retry with mode="log".
    """


class AlphabetMismatch(MarkovSeqError):
    pass


class ImpossibleData(MarkovSeqError):
    pass


class DegenerateData(MarkovSeqError):
    pass


# -- estimation ----------------------------------------------------------


class NonFiniteLikelihood(MarkovSeqError):
    pass


class RankDeficientDesign(MarkovSeqError):
    pass


class NonInvertibleHessian(MarkovSeqError):
    pass


# -- plotting / cli -------------------------------------------------------


class EmptyDataset(MarkovSeqError):
    pass
