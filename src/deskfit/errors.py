"""Exception hierarchy shared by all deskfit modules."""


class DeskfitError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfig(DeskfitError, ValueError):
    """A configuration field or call argument lies outside its valid range.

    Also a ValueError, the conventional type of a bad argument value.
    """


# -- dataset ingestion and sampling --------------------------------------

class EmptyDataset(DeskfitError):
    """A dataset (or dataset file) contains no examples."""


class MalformedRecord(DeskfitError):
    """A dataset record could not be parsed; the message carries the line number."""


class LabelOutOfRange(DeskfitError):
    """A label index or name falls outside the declared label set."""


class InsufficientClassSize(DeskfitError):
    """A class has fewer examples than a few-shot sample requires."""


# -- contrastive pair generation ------------------------------------------

class DegenerateClass(DeskfitError):
    """A class is too small to yield distinct positive pairs in strict mode."""


class NeedTwoClasses(DeskfitError):
    """Negative pairs require examples from at least two classes."""


# -- encoding --------------------------------------------------------------

class EmptyInput(DeskfitError):
    """No tokens survived tokenization, so the text cannot be embedded."""


class ZeroNorm(DeskfitError):
    """A vector with (near-)zero Euclidean norm has no cosine direction."""


# -- classification head ----------------------------------------------------

class SingleClass(DeskfitError):
    """Head training needs at least two distinct labels."""


class DimensionMismatch(DeskfitError):
    """Embedding or parameter dimensions do not agree."""


class InvalidDistribution(DeskfitError):
    """A soft target is not a valid probability vector."""


# -- distillation ------------------------------------------------------------

class TooFewTexts(DeskfitError):
    """Unlabeled pair generation needs at least two texts."""


# -- model persistence --------------------------------------------------------

class BadFormat(DeskfitError):
    """A model file is not in the expected container format."""


class UnsupportedVersion(DeskfitError):
    """A model file declares a format version this build cannot read."""


class ChecksumMismatch(BadFormat):
    """A model file's trailing CRC-32 does not match its contents."""


# -- cost model ------------------------------------------------------------

class InvalidSpec(DeskfitError):
    """A cost specification has nonpositive or unknown fields."""


# -- metrics -----------------------------------------------------------------

class LengthMismatch(DeskfitError):
    """Prediction and gold sequences differ in length."""


class EmptyPredictions(DeskfitError):
    """A metric was asked to score zero examples."""


class NonBinary(DeskfitError):
    """A binary-only metric received labels outside {0, 1}."""


class NoPositives(DeskfitError):
    """Average precision is undefined without at least one positive example."""
