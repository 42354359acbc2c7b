"""Exception taxonomy shared across the package.

Every error raised by this package derives from :class:`SlimeError` so that
callers can catch one base class.  The CLI maps these onto exit codes:
validation and degenerate-input problems exit with 2, model-query failures
with 3.
"""

from __future__ import annotations

__all__ = ["SlimeError", "ValidationError", "DegenerateInputError",
           "SingularityError", "ModelQueryError"]


class SlimeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SlimeError, ValueError):
    """An argument or input file is malformed or out of its documented range."""


class DegenerateInputError(SlimeError, ValueError):
    """Input is well-formed but statistically unusable.

    Examples: fewer than two rows with positive weight, or a covariance
    estimate requested from a single observation.
    """


class SingularityError(SlimeError):
    """A linear system over the named feature set is rank deficient."""

    def __init__(self, message: str, features: tuple[str, ...] = ()):
        super().__init__(message)
        self.features = tuple(features)


class ModelQueryError(SlimeError):
    """The black-box model failed to answer a prediction request.

    ``batch_index`` identifies the failing request (0-based) and
    ``payload_excerpt`` carries up to a few hundred characters of whatever
    the model returned, to make protocol bugs diagnosable.
    """

    def __init__(self, message: str, batch_index: int | None = None,
                 payload_excerpt: str | None = None):
        super().__init__(message)
        self.batch_index = batch_index
        self.payload_excerpt = payload_excerpt
