"""Exception types shared across the pipeline."""


class AresError(Exception):
    """Base class for pipeline-specific failures."""


class ConfigError(AresError, ValueError):
    """A configuration key, value, or file is invalid; message names the offender."""


class NumericalError(AresError, ArithmeticError):
    """A numerical routine could not produce a usable result (e.g. factorization failure)."""


class TrainingDiverged(AresError, RuntimeError):
    """Training produced a non-finite loss ``term`` (``cls``, ``dis`` or ``total``); carries
    the last good run ``state`` to resume from. Nothing is written to disk: a caller that
    wants the state on file saves it (``ares train`` writes ``last_good_checkpoint.json``)."""

    def __init__(self, epoch: int, batch: int, term: str, state):
        self.epoch = epoch
        self.batch = batch
        self.term = term
        self.state = state
        super().__init__(
            f"non-finite {term} loss at epoch {epoch}, batch {batch}; "
            f"last good state (epoch {state.epoch})"
        )

    def __reduce__(self):
        return type(self), (self.epoch, self.batch, self.term, self.state)
