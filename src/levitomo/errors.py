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
    """A result holds a value its file format cannot store: NaN or infinity in a JSON report, or a count that its
    record's int32 file would not hold exactly."""
