"""The frequency table of a count sample.

A ``CountSample`` maps each nonnegative count to its positive frequency and
caches the sufficient statistics.  The module loads numpy only to tabulate
raw counts, so a bundled dataset is served without it.
"""

from __future__ import annotations

from dataclasses import dataclass

# The largest count a sample may hold, the int64 maximum.
_MAX_COUNT = 2**63 - 1


@dataclass(frozen=True)
class CountSample:
    """A frequency table of nonnegative counts with cached sufficient stats.

    Attributes
    ----------
    freq : dict
        Map from count value to positive frequency.
    n : int
        Total sample size.
    n0 : int
        Number of zeros.
    s : int
        Sum of all counts.
    ybar : float
        Sample mean ``s / n``.
    """

    freq: dict

    def __post_init__(self):
        clean = {}
        for value, count in self.freq.items():
            v, c = int(value), int(count)
            if v != value or c != count:
                raise ValueError(f"non-integer entry {value!r}: {count!r}")
            if v < 0:
                raise ValueError(f"negative count value {v}")
            if v > _MAX_COUNT:
                raise ValueError(f"count value {v} above the largest supported, 2**63 - 1")
            if c <= 0:
                raise ValueError(f"frequency for value {v} must be positive, got {c}")
            clean[v] = clean.get(v, 0) + c
        if not clean:
            raise ValueError("empty sample")
        object.__setattr__(self, "freq", clean)
        object.__setattr__(self, "n", sum(clean.values()))
        object.__setattr__(self, "n0", clean.get(0, 0))
        object.__setattr__(self, "s", sum(v * c for v, c in clean.items()))
        object.__setattr__(self, "ybar", self.s / self.n)

    @classmethod
    def from_values(cls, values) -> "CountSample":
        """Tabulate a 1-d sequence of raw counts by sorting, in memory that
        does not grow with the largest count."""
        import numpy as np

        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"raw counts must be 1-d, got shape {values.shape}")
        if values.size == 0:
            raise ValueError("empty sample")
        if not np.issubdtype(values.dtype, np.integer):
            fractional = values[np.mod(values, 1) != 0]
            if fractional.size:
                raise ValueError(f"non-integer entry {fractional[0]!r}")
        # the sorted distinct values; the dict route checks their range
        return cls(dict(zip(*(a.tolist() for a in np.unique(values, return_counts=True)))))

    def items(self):
        """Frequency table entries in increasing count order."""
        return sorted(self.freq.items())

    def __eq__(self, other):
        return isinstance(other, CountSample) and self.items() == other.items()

    def __hash__(self):
        return hash(tuple(self.items()))
