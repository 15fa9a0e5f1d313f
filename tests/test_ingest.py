"""Raw count files read by numpy agree with the line parser.

``parse_counts_text`` reads comma-free text with ``np.loadtxt`` first and
hands it to the line parser whenever numpy cannot read it the same way.
Each check here parses a text both ways and requires the same sample or the
same error message.  A file that starts with a UTF-8 byte-order mark reads
as the same file without one.
"""

import random

import numpy as np
import pytest

from zicount import datasets
from zicount.datasets import parse_counts_text


def _outcome(text: str):
    try:
        return "sample", parse_counts_text(text, name="f.txt").items()
    except (ValueError, OverflowError) as err:
        return type(err).__name__, str(err)


def _both_ways(monkeypatch, text: str):
    """(outcome with the numpy path, outcome of the line parser alone)."""
    fast = _outcome(text)
    with monkeypatch.context() as patch:
        patch.setattr(datasets, "_raw_counts", lambda text: None)
        slow = _outcome(text)
    return fast, slow


def _generated(n: int) -> str:
    rng = np.random.default_rng(1)
    y = rng.poisson(1.5, n)
    y[rng.random(n) < 0.05] = 0
    return "\n".join(map(str, y)) + "\n"


# the raw-count texts the other test files ingest, then edge cases of both
# parsers: comments, blank and space-only lines, line breaks other than
# "\n", signs, separators inside a number, and values int64 cannot hold
TEXTS = (
    "0\n0\n3\n1\n", "0\n0\n0\n", "x\n", "", _generated(20_000),
    "# header\n0\n2\n\n1\n", "#\n#\n5\n", "  # indented comment\n1\n",
    "3 # trailing comment\n", "# a # b\n4\n", "1\n# c\r2 # d\n",
    "# c\f3\n", "# c\r3\n", "1\r\n2\r\n", "1\r2\r3", "1\v2\n", "1\x1c2\n",
    "1 2\n", " 3 \n\t4\t\n", "\xa03\n", "\n  \n\t\n7\n", "+3\n", "-0\n",
    "-1\n", "2\n-1\n", "3.0\n", "1e3\n", "1_000\n", "1 000\n", "1 2\n",
    "1 2\n3 4\n", "0x10\n", "﻿1\n", "٣\n", "99999999999999999999\n",
    "nan\n", "1\n\n\n",
)


@pytest.mark.parametrize("text", TEXTS, ids=lambda text: repr(text[:24]))
def test_numpy_path_matches_line_parser(monkeypatch, text):
    fast, slow = _both_ways(monkeypatch, text)
    assert fast == slow


def test_numpy_path_matches_line_parser_on_random_texts(monkeypatch):
    pieces = ("0", "1", "7", "12", "-", "+", " ", "\t", "\n", "\n", "\r", "\f",
              "#", "x", ".", "_", "\x85")
    rng = random.Random(5)
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        fast, slow = _both_ways(monkeypatch, text)
        assert fast == slow, repr(text)


@pytest.mark.parametrize("text, counts", [
    ("0\n2\n1\n", [0, 2, 1]),
    ("1\r\n0\r\n", [1, 0]),
])
def test_plain_raw_text_takes_the_numpy_path(text, counts):
    assert datasets._raw_counts(text).tolist() == counts


@pytest.mark.parametrize("text", ["0,2\n3,1\n", "# header\n0\n2\n", "3.5\n", ""])
def test_other_texts_take_the_line_parser(text):
    # loadtxt would read "0,2" as two counts and "3 # c" as 3, and an older
    # numpy reads "3.5" as 3 with only a warning
    assert datasets._raw_counts(text) is None


def test_many_comments_with_carriage_returns(monkeypatch):
    # lines broken by "\r" alone, with a comment every hundredth line
    lines = [str(k % 5) if k % 100 else f"# line {k}" for k in range(100_000)]
    text = "\r".join(lines)
    fast, slow = _both_ways(monkeypatch, text)
    assert fast == slow
    assert sum(count for _, count in fast[1]) == 99_000


@pytest.mark.parametrize("text, freq", [
    ("0\n0\n3\n1\n", {0: 2, 1: 1, 3: 1}),
    ("value,count\n0,30\n1,6\n2,4\n", {0: 30, 1: 6, 2: 4}),
], ids=["raw", "frequency"])
def test_byte_order_mark_is_skipped(tmp_path, text, freq):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    sample = datasets.load_counts(marked)
    assert sample == datasets.load_counts(plain)
    assert sample.freq == freq
