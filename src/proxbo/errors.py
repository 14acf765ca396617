"""Exception types shared across the package."""


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
