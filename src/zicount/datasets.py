"""Bundled count datasets and count-file input and output.

Three classic datasets ship with the package:

* ``uti`` - urinary tract infection counts for 98 HIV-infected men;
* ``terror`` - monthly counts of terrorism incidents in the United States,
  1968 to 1974;
* ``cholera`` - cholera cases per household in an Indian village.

Each is pinned by a SHA-256 checksum of its canonical serialization, so
accidental edits fail loudly.

Count files come in two forms: frequency rows ``value,count`` (an optional
``value,count`` header is allowed) or raw counts, one nonnegative integer
per line.  Blank lines and ``#`` comments are ignored.  A raw-count file
with no ``#`` is read by ``numpy.loadtxt`` first and by the line parser
where that fails, so a 10**6-line file takes a fraction of the line
parser's time and every error message is the line parser's.  A file with
a ``#`` goes to the line parser alone.

The module loads numpy only where it reads or tabulates raw counts, so the
command line parser reads the dataset names, and the ``datasets`` command
serves the bundled tables, without it.
"""

from __future__ import annotations

import warnings

DATASETS = {
    "uti": {0: 81, 1: 9, 2: 7, 3: 1},
    "terror": {0: 38, 1: 26, 2: 8, 3: 2, 4: 1},
    "cholera": {0: 168, 1: 32, 2: 16, 3: 6, 4: 1},
}

_CHECKSUMS = {
    "uti": "cd355cccfaea710109e778732a1ea5db4198d2393a8d9c11c23a84fa5c492e6c",
    "terror": "98ace075f25077b12dbfa63d600017917a6011b14c73c3ea145f353f92cde9ac",
    "cholera": "eaa6203355f5986eb89cf1a42ea99f826ce7decf87f667fb1f1d6ce65daeb931",
}


def _canonical(freq: dict) -> str:
    return ";".join(f"{v}:{c}" for v, c in sorted(freq.items()))


def dataset_names():
    return sorted(DATASETS)


def load_dataset(name: str) -> CountSample:
    """Return a bundled dataset by name, verifying its checksum."""
    import hashlib

    from .counts import CountSample

    key = name.lower()
    if key not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {', '.join(dataset_names())}")
    digest = hashlib.sha256(_canonical(DATASETS[key]).encode()).hexdigest()
    if digest != _CHECKSUMS[key]:
        raise RuntimeError(f"bundled dataset {key!r} failed its checksum")
    return CountSample(dict(DATASETS[key]))


def dataset_table(name: str) -> str:
    """Human-readable frequency table of a bundled dataset."""
    sample = load_dataset(name)
    rows = sample.items()
    width = max(len(str(v)) for v, _ in rows)
    lines = [f"{name.lower()} data"]
    lines.append("Y         " + "  ".join(f"{v:>{width + 3}d}" for v, _ in rows) + "    Total")
    lines.append("Frequency " + "  ".join(f"{c:>{width + 3}d}" for _, c in rows)
                 + f"  {sample.n:>7d}")
    return "\n".join(lines)


def _raw_counts(text: str):
    """The raw counts of ``text`` as an int64 array, or None where
    ``np.loadtxt`` may not read them as the line parser would: a comma (the
    frequency form), a '#', a parse error, any warning (no data, or a float
    that an older numpy truncates) or a negative count."""
    if "," in text or "#" in text:
        return None
    import numpy as np

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the line parser's lines; with no comma, each is one field
            values = np.loadtxt(text.splitlines(), dtype=np.int64, delimiter=",", ndmin=1)
    except (ValueError, Warning):
        return None
    if values.min() < 0:
        return None
    return values


def parse_counts_text(text: str, name: str = "<input>") -> CountSample:
    """Parse dataset text in frequency or raw form.

    The form is decided by the first data line; mixing forms is an error.
    Errors carry the offending line number and content.
    """
    from .counts import CountSample

    values = _raw_counts(text)
    if values is not None:
        return CountSample.from_values(values)
    freq_mode = None
    freq: dict[int, int] = {}
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            if line.replace(" ", "").lower() == "value,count":
                continue  # optional header
            if freq_mode is False:
                raise ValueError(f"{name}:{lineno}: frequency row {line!r} in a raw-count file")
            freq_mode = True
            parts = [piece.strip() for piece in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"{name}:{lineno}: expected 'value,count', got {line!r}")
            try:
                value, count = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{name}:{lineno}: non-integer entry {line!r}") from None
            if value < 0 or count <= 0:
                raise ValueError(f"{name}:{lineno}: need value >= 0 and count >= 1, got {line!r}")
            freq[value] = freq.get(value, 0) + count
        else:
            if freq_mode is True:
                raise ValueError(f"{name}:{lineno}: raw count {line!r} in a frequency file")
            freq_mode = False
            try:
                value = int(line)
            except ValueError:
                raise ValueError(f"{name}:{lineno}: non-integer count {line!r}") from None
            if value < 0:
                raise ValueError(f"{name}:{lineno}: negative count {line!r}")
            values.append(value)
    if freq_mode is None:
        raise ValueError(f"{name}: no data rows found")
    if freq_mode:
        return CountSample(freq)
    return CountSample.from_values(values)


def load_counts(path) -> CountSample:
    """Read a dataset file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_counts_text(handle.read(), name=str(path))


def format_freq_csv(sample: CountSample) -> str:
    """Serialize a sample in frequency form; re-ingesting reproduces it."""
    lines = ["value,count"]
    lines.extend(f"{v},{c}" for v, c in sample.items())
    return "\n".join(lines) + "\n"
