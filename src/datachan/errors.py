"""Exception hierarchy for the data-channel toolkit."""


class DataChanError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DataChanError):
    """Invalid configuration value or file."""


class ContentionError(DataChanError):
    """Two selector blocks drove the same shared line with conflicting values."""


class FramingError(DataChanError):
    """A serial bit slot could not be decoded unambiguously from the line states."""


class IncompleteTraceError(DataChanError):
    """The trace horizon ended while a protocol transition was still pending."""


class NoTransitionError(DataChanError):
    """The waveform contains no usable transition between settled levels."""


class NoSettleError(DataChanError):
    """The waveform never settles into distinguishable levels."""


class AlignmentError(DataChanError):
    """Two traces that must share a sampling grid do not."""


class ResolutionError(DataChanError):
    """Spectral resolution too coarse for the requested band measurement."""


class SeedError(ConfigError):
    """Invalid seed for an LFSR-based generator."""


class MaskError(ConfigError, ValueError):
    """Eye-mask vertices that do not form a convex polygon symmetric about the eye center."""
