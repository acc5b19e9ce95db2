"""Exception taxonomy shared across the package and the CLI exit-code map."""


class ConfigurationError(ValueError):
    """Invalid parameter or parameter combination (CLI exit code 2)."""


class DataError(ValueError):
    """Malformed or unusable input data (CLI exit code 3)."""


class DegenerateBandwidthError(DataError):
    """Median pairwise distance is zero or overflows the kernel, so the bandwidth is undefined."""
