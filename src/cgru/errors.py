"""Exception types shared across the package."""


class CgruError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CgruError, ValueError):
    """A tensor does not have the shape a layer or op requires."""


class ConfigError(CgruError, ValueError):
    """Bad configuration: unknown key, wrong type, or invalid value."""


class ScheduleError(CgruError, ValueError):
    """Degenerate or invalid noise schedule."""


class CheckpointError(CgruError, ValueError):
    """Corrupt, truncated, or incompatible checkpoint file."""


class MissingArtifact(CgruError, FileNotFoundError):
    """A pipeline phase needs an artifact that does not exist yet."""


class PhaseFailure(CgruError, RuntimeError):
    """A pipeline phase ran but did not meet its exit condition."""


class LockError(CgruError, RuntimeError):
    """Another run already holds the output directory lock."""


class Divergence(CgruError, FloatingPointError):
    """A network produced non-finite values: the run has diverged."""
