"""Exception types shared across the package, and the field check of its config classes."""


class ProxboError(Exception):
    """Base class for package errors."""


class ParseError(ProxboError, ValueError):
    """Malformed input file (carries a line number where possible)."""


class DataError(ProxboError, ValueError):
    """Inconsistent data, e.g. duplicate sequences with conflicting scores."""


class BudgetError(ProxboError, RuntimeError):
    """Query budget exhausted."""


class DomainError(ProxboError, KeyError):
    """Sequence outside the landscape's evaluable domain."""

    def __str__(self):  # KeyError quotes its repr by default
        return self.args[0] if self.args else ""


class DomainExhausted(ProxboError):
    """No unmeasured in-domain sequence is left to propose."""


class TrainingError(ProxboError, RuntimeError):
    """Surrogate training diverged or was misused."""


class ConfigError(ProxboError, ValueError):
    """Invalid campaign configuration (carries the offending key path)."""


def check_positive(obj, *names: str) -> None:
    """Raise ValueError, naming the field first, unless every field in `names` is > 0.

    The message starts with the field name, so the campaign config can name
    the key it came from (see `harness._checked`).
    """
    for name in names:
        value = getattr(obj, name)
        if not value > 0:
            raise ValueError(f"{name}: must be > 0, got {value!r}")
