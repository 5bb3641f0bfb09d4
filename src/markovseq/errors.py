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
