"""Exception types shared across the toolkit."""


class DeskSpeakerError(Exception):
    """Base class for all toolkit errors."""


class EmptyInputError(DeskSpeakerError, ValueError):
    """Input carries no usable frames (e.g. a frame matrix with no rows)."""


class TooShortUtteranceError(DeskSpeakerError, ValueError):
    """Utterance shorter than the network's total temporal context."""


class DegenerateWeightsError(DeskSpeakerError, ValueError):
    """Frame weights collapsed to zero total mass and cannot be renormalized."""


class MissingAttentionError(DeskSpeakerError, ValueError):
    """An attentive operation was requested from a network trained without attention."""


class NumericsError(DeskSpeakerError, RuntimeError):
    """Internal numerical consistency violated (e.g. strongly negative variance radicand)."""


class FormatError(DeskSpeakerError, ValueError):
    """A serialized artifact has the wrong magic, shape, or payload."""


class StageDependencyError(DeskSpeakerError, RuntimeError):
    """A pipeline stage was invoked before the stage(s) it depends on."""


class DegenerateScoreSetError(DeskSpeakerError, ValueError):
    """A trial set misses one of the two classes, so error rates are undefined."""
