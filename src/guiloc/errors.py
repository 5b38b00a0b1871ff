"""Exception types shared across the package."""

from __future__ import annotations


class GuilocError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GuilocError):
    """Bad input data: missing files, malformed JSON, empty ground truth."""


class ValidationError(InputError):
    """Structurally valid input that violates a domain rule."""


class ConfigError(GuilocError):
    """Bad configuration: unknown strategy names, out-of-range parameters."""


def check_choice(kind: str, value: object, allowed: tuple[str, ...]) -> None:
    """Raise ConfigError unless `value` is one of the `allowed` names."""
    if value not in allowed:
        raise ConfigError(f"unknown {kind} {value!r}; expected one of {', '.join(allowed)}")


class UnparseableStepError(InputError):
    """A sentence could not be parsed into a reproduction step."""

    def __init__(self, sentence: str, reason: str = "no action verb found"):
        super().__init__(f"cannot parse step {sentence!r}: {reason}")
        self.sentence = sentence
        self.reason = reason


class RemoteClassifierError(GuilocError):
    """The remote sentence classifier failed or returned a bad response."""
