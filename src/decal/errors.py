"""Exception types shared across the package."""


class DecalError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DecalError):
    """Invalid configuration: bad values, unknown keys, inconsistent pairs."""


class DataError(DecalError):
    """Invalid dataset content or structure."""


class CsvParseError(DataError):
    """A CSV row or header could not be parsed."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


class PatientOverlapError(DataError):
    """A patient appears in both the pool and the test split."""

    def __init__(self, patient: str):
        super().__init__(f"patient {patient!r} appears in both pool and test splits")
        self.patient = patient


class FeatureDimensionError(DataError):
    """Feature vectors with inconsistent dimensions."""


class InvariantViolation(DecalError):
    """An internal bookkeeping invariant failed; indicates a bug, not bad input."""


class TrainingDiverged(DecalError):
    """Training produced a non-finite loss, non-finite parameters or non-finite logits."""
