"""Input limits shared by the model modules and the command line parser.

They live here, free of numpy, so that the parser reads them without loading
the modules that enforce them; ``power`` and ``bayes`` re-export their own.
"""

# fewest replications per cell of a power study
MIN_REPS = 100
# fewest points of a density curve
MIN_CURVE_POINTS = 16
