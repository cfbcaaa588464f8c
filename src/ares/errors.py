"""Exception types shared across the pipeline."""


class AresError(Exception):
    """Base class for pipeline-specific failures."""


class ConfigError(AresError, ValueError):
    """A configuration key, value, or file is invalid; message names the offender."""


class NumericalError(AresError, ArithmeticError):
    """A numerical routine could not produce a usable result (e.g. factorization failure)."""


class SynthesisUnderflowError(AresError, RuntimeError):
    """Fewer candidate points qualified as virtual outliers than were requested."""

    def __init__(self, requested: int, available: int, context: str = ""):
        self.requested = requested
        self.available = available
        self.deficit = requested - available
        msg = (
            f"virtual outlier synthesis underflow: requested {requested}, "
            f"only {available} qualify (deficit {self.deficit})"
        )
        if context:
            msg += f" [{context}]"
        super().__init__(msg)


class TrainingDiverged(AresError, RuntimeError):
    """Training produced a non-finite loss ``term`` (``cls``, ``dis`` or ``total``); carries
    the last good run ``state`` to resume from, and ``checkpoint_path``, where it was
    written (``None`` when no checkpoint directory was given)."""

    def __init__(self, epoch: int, batch: int, term: str, state, checkpoint_path: str | None = None):
        self.epoch = epoch
        self.batch = batch
        self.term = term
        self.state = state
        self.checkpoint_path = checkpoint_path
        where = f"written to {checkpoint_path}" if checkpoint_path else "not written to disk"
        super().__init__(
            f"non-finite {term} loss at epoch {epoch}, batch {batch}; "
            f"last good state (epoch {state.epoch}) {where}"
        )
