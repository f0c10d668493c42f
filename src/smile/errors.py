"""Exception taxonomy shared across the package.

Validation failures (bad inputs, bad configs, incompatible files) map to CLI
exit code 1; runtime/numerical failures map to exit code 2.
"""


class SmileError(Exception):
    """Base class for all package errors."""


class ValidationError(SmileError):
    """Caller supplied something malformed (exit code 1)."""


class InvalidInputError(ValidationError):
    """Operation precondition violated (shape/dim/range mismatch)."""


class ConfigError(ValidationError):
    """Config file or config object failed validation. ``keys`` names the
    fields the failed check read, so a config file's loader can point at the
    line that sets one."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


class CheckpointVersionError(ValidationError):
    """Checkpoint file has an unsupported format version."""


class RuntimeFailure(SmileError):
    """Something went wrong while running (exit code 2)."""


class TrainingError(RuntimeFailure):
    """Non-finite loss/gradient or other optimization failure."""


class EnvironmentFault(RuntimeFailure):
    """Simulation produced a non-finite state."""
