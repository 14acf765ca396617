"""Exception types shared across the package, the field check of its config classes,
and the decoding of the text files it reads."""


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


def text_line_ends(raw: bytes) -> bytes:
    """`raw` with each CR LF and lone CR read as LF, as text mode reads line ends;
    `raw` itself, not a copy, when it holds no CR."""
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw


def decode_utf8(raw: bytes, path) -> str:
    """The UTF-8 text of the bytes of file `path`, line ends read as text mode reads them
    and a leading byte-order mark skipped.

    A byte that is not UTF-8 is a ParseError naming `path` and its line: 1
    plus the newlines before it.
    """
    raw = text_line_ends(raw)
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text: {e.reason} "
                         f"(byte 0x{raw[e.start]:02x})") from None
