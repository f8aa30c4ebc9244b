"""Exception types shared across the package.

The hierarchy groups failures by origin so callers (notably the CLI) can
map them to coarse outcomes: configuration problems, data problems,
numerical problems during training, and model/data mismatches at
inference time.
"""


class JcmsplError(Exception):
    """Base class for all package-specific errors."""


# linear algebra kernel

class LinalgError(JcmsplError):
    pass


class NotSquareError(LinalgError):
    pass


class NotSymmetricError(LinalgError):
    pass


class NonFiniteError(LinalgError):
    pass


class DimensionMismatchError(LinalgError):
    pass


class NonUniqueError(LinalgError):
    """The Sylvester operator has a (near-)zero eigenvalue; no unique solution."""


class SingularError(LinalgError):
    pass


class TooLargeError(LinalgError):
    pass


class NotPositiveDefiniteError(LinalgError):
    pass


# dataset handling

class DatasetError(JcmsplError):
    pass


class MissingFileError(DatasetError):
    pass


class ManifestError(DatasetError):
    pass


class ShapeMismatchError(DatasetError):
    pass


class OverlappingSplitsError(DatasetError):
    pass


class UnknownClassIdError(DatasetError):
    pass


class InvalidSpecError(DatasetError):
    """Invalid synthetic-data generation spec."""


# training

class TrainerError(JcmsplError):
    pass


class InvalidHyperparamsError(TrainerError):
    pass


class TooFewRowsError(TrainerError):
    """Concept dimension smaller than the number of seen classes."""


# recognition / evaluation

class RecognizerError(JcmsplError):
    pass


class UnsupportedVariantError(RecognizerError):
    pass


class EmptyCandidatesError(RecognizerError):
    pass


class AllZeroNormError(RecognizerError):
    pass


class NonFiniteDistanceError(RecognizerError):
    """A query-candidate distance is NaN or infinite, so no ranking exists."""


class InvalidKError(RecognizerError):
    pass


class InvalidFractionError(RecognizerError):
    pass


class OutOfRangeError(RecognizerError):
    pass


# model archives

class ArchiveError(JcmsplError):
    pass
