"""Work in proportion to the input: each stage run on one shape at size n and
at 4n does at most ``FACTOR`` times the work, where linear work gives 4 and
quadratic work 16. Work is measured with no clock: as the calls a run makes
(Python functions and C functions alike, counted with ``sys.setprofile`` on
this thread), as the peak of the memory it allocates (``tracemalloc``), and
for the PENMAN reader as the tokens its pattern reads, which a scan that
starts again for each token would multiply.

The shapes stress one axis of a PENMAN document each: a chain of
re-entrant references, a star, nesting near ``MAX_NESTING``, and distinct
concepts.
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from xkg import amr
from xkg.amr import MAX_NESTING, parse_penman
from xkg.translate import translate

FACTOR = 5


def chain(n: int) -> str:
    """A root over ``n`` nodes, each with an edge to the next."""
    return "(r / chain " + " ".join(f":op{i} (v{i} / link :ARG0 v{i + 1})" for i in range(n)) \
        + f" :op{n} (v{n} / link))"


def star(n: int) -> str:
    return "(r / hub " + " ".join(f':mod (v{i} / leaf :quant {i} :name "L{i}")'
                                  for i in range(n)) + ")"


def nesting(n: int) -> str:
    return "".join(f"(v{i} / thing :mod " for i in range(n - 1)) + f"(v{n - 1} / thing" + ")" * n


def distinct(n: int) -> str:
    """A star whose ``n`` leaves each have a concept of their own."""
    return "(r / hub " + " ".join(f":ARG0 (v{i} / kind{i}-01 :mod (w{i} / sort-{i}))"
                                  for i in range(n)) + ")"


SHAPES = {"chain": (chain, 250), "star": (star, 250), "distinct": (distinct, 250),
          "nesting": (nesting, MAX_NESTING // 4)}


def calls(fn, arg) -> int:
    count = 0

    def profile(frame, event, _):
        nonlocal count
        count += event == "call" or event == "c_call"

    sys.setprofile(profile)
    try:
        fn(arg)
    finally:
        sys.setprofile(None)
    return count


def peak(fn, arg) -> int:
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class CountingPattern:
    """Stands in for ``amr._TOKEN`` and counts the tokens it reads."""

    def __init__(self, pattern):
        self.pattern, self.read = pattern, 0

    def split(self, text):
        parts = self.pattern.split(text)
        self.read += (len(parts) - 1) // (self.pattern.groups + 1)
        return parts

    def finditer(self, text, *args):
        for m in self.pattern.finditer(text, *args):
            self.read += 1
            yield m


def stage(name: str):
    """The function to measure, and its input built from a document."""
    if name == "parse_penman":
        return parse_penman, lambda text: text
    return translate, parse_penman


@pytest.mark.parametrize("name", ["parse_penman", "translate"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_work_grows_with_the_input(shape, name, monkeypatch):
    make, n = SHAPES[shape]
    fn, prepare = stage(name)
    small, large = prepare(make(n)), prepare(make(4 * n))
    fn(small)  # compiled patterns, logger caches and the like
    for measure in (calls, peak):
        at_n, at_4n = measure(fn, small), measure(fn, large)
        assert at_4n <= FACTOR * at_n, (measure.__name__, at_n, at_4n)
    if name == "parse_penman":
        pattern = CountingPattern(amr._TOKEN)
        monkeypatch.setattr(amr, "_TOKEN", pattern)
        fn(small)
        at_n, pattern.read = pattern.read, 0
        fn(large)
        assert 0 < pattern.read <= FACTOR * at_n, ("tokens", at_n, pattern.read)
