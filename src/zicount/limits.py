"""Input limits shared by the model modules and the command line parser,
and the one check of a level or size in (0, 1).

They live here, free of numpy, so that the parser reads them without loading
the modules that enforce them; ``power`` and ``bayes`` re-export their own.
"""

# fewest replications per cell of a power study
MIN_REPS = 100
# fewest points of a density curve
MIN_CURVE_POINTS = 16


def require_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies strictly between 0 and 1
    (NaN does not)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")
