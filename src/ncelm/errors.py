"""Exception types shared across the package."""

from __future__ import annotations


class NcelmError(Exception):
    """Base class for all package-specific errors."""


class IngestionError(NcelmError):
    """Corpus text could not be decoded; carries the offending byte offset."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


class ConfigError(NcelmError):
    """A configuration value is out of range or inconsistent."""


class SupportError(NcelmError):
    """A zero-probability word was looked up in a noise distribution."""


class DegenerateWeightsError(NcelmError):
    """All importance weights underflowed to zero for some example."""


class DivergenceError(NcelmError):
    """A parameter tensor became non-finite during an SGD step.

    Carries the offending tensor name and, when raised from a training
    run, the estimator, epoch, and last_good_checkpoint: the path of the
    last checkpoint written before the failing update, or None when
    checkpointing was off or no checkpoint had been written yet. No
    parameter snapshot is kept in memory.
    """

    def __init__(
        self,
        tensor: str,
        estimator: str | None = None,
        epoch: int | None = None,
        last_good_checkpoint=None,
    ):
        detail = f"non-finite values in tensor '{tensor}'"
        if estimator is not None:
            detail += f" (estimator={estimator}"
            detail += f", epoch={epoch})" if epoch is not None else ")"
        super().__init__(detail)
        self.tensor = tensor
        self.estimator = estimator
        self.epoch = epoch
        self.last_good_checkpoint = last_good_checkpoint


class CheckpointFormatError(NcelmError):
    """A checkpoint file has bad magic bytes, an unsupported version or
    mode flag, or is cut short or followed by trailing bytes."""
