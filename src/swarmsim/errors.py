"""The package's two errors: ``ConfigError`` for bad input, rejected by the
parser before anything runs, and ``RunInvariantError`` for a simulator
defect. The library raises no other exception of its own."""


class ConfigError(ValueError):
    """Configuration file is malformed or out of range."""


class RunInvariantError(RuntimeError):
    """The simulator broke one of its own invariants: a defect, not bad input."""
