"""Exception types shared across the package."""


class NtrrError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(NtrrError):
    """Operands have incompatible shapes; message names both."""


class ContractError(NtrrError):
    """A caller violated an internal precondition."""


class ConfigError(NtrrError):
    """Bad configuration value or unknown key; message names the key."""


class NumericsError(NtrrError):
    """A training step produced a non-finite loss."""


class ParseError(NtrrError):
    """Malformed input file; message carries the file location."""


class CheckpointError(NtrrError):
    """Corrupt or foreign checkpoint; message carries the byte offset."""
