"""Exception types shared across the package."""


class ZicountError(Exception):
    """Base class for package-specific errors."""


class ParameterRangeError(ZicountError, ValueError):
    """Parameter outside the open domain of a model or prior."""


class DegenerateSampleError(ZicountError, ValueError):
    """Sample cannot identify the requested quantity (e.g. no positive counts)."""


class QuadratureError(ZicountError, RuntimeError):
    """Numerical integration did not reach the requested accuracy."""


class MissingCellError(ZicountError, KeyError):
    """A reference cell is absent from a computed power grid."""
