"""Exception hierarchy shared across the package."""


class LevitomoError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LevitomoError):
    """Invalid or unparsable experiment configuration."""


class SimulationError(LevitomoError):
    """Trajectory simulation cannot proceed with the requested parameters."""


class DetectionError(LevitomoError):
    """Detection model preconditions violated (windowing, linearity, sensitivity)."""


class TomographyError(LevitomoError):
    """Marginal binning or reconstruction preconditions violated."""


class SpectralError(LevitomoError):
    """Spectral estimation or fitting failed."""


class ArtifactError(LevitomoError):
    """A file does not hold what its format promises. Written: a result holds a value the format cannot store, NaN or
    infinity in a JSON report or a count that its record's int32 file would not hold exactly. Read back: text that is
    not a JSON object, a number key that holds no finite number, or a non-finite sample of a record."""
