"""Exception types shared across the package."""


class InconsistentProgram(Exception):
    """An operation that requires a consistent program received one that
    derives an atom together with its negation."""


class SizeLimitExceeded(Exception):
    """Maximal-subset enumeration was asked to search more candidate rules
    than the configured cap allows."""


class EmptyProfile(Exception):
    """A profile must contain at least one program."""


class IncompleteBinding(Exception):
    """A postulate was evaluated with bindings that do not cover exactly
    its free variables."""


class CorpusError(Exception):
    """A corpus expectation table is malformed."""


class ConfigError(Exception):
    """Invalid fuzzing or runtime configuration."""


class PredicateNotHolding(Exception):
    """shrink() was called on an instance the predicate rejects."""


class SourceError(Exception):
    """Malformed program text.  Positions are 1-based; path, if given, names
    the file the text was read from and leads the message."""

    def __init__(self, line: int, column: int, message: str, path: str | None = None):
        super().__init__(f"{path + ':' if path else ''}{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
