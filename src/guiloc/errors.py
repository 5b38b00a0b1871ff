"""Exception types shared across the package."""

from __future__ import annotations


class GuilocError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GuilocError):
    """Bad input data: missing files, malformed JSON, rule-breaking traces, unparseable steps."""


class ConfigError(GuilocError):
    """Bad configuration: unknown strategy names, out-of-range parameters."""


def check_choice(kind: str, value: object, allowed: tuple[str, ...]) -> None:
    """Raise ConfigError unless `value` is one of the `allowed` names."""
    if value not in allowed:
        raise ConfigError(f"unknown {kind} {value!r}; expected one of {', '.join(allowed)}")


class RemoteClassifierError(GuilocError):
    """The remote sentence classifier failed or returned a bad response."""
