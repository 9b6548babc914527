"""Rater-agreement statistics over 5-point Likert annotations.

Ratings arrive as a CSV with header ``item_id,heuristic,annotator,score``
(blank score = missing; ``load_ratings`` says what else it accepts) and
become a RatingsMatrix. Each statistic is a function of one heuristic's
dense table, ``RatingsMatrix.rows``, which ``build_report`` builds once per
heuristic: its items by every annotator, each in first-appearance order,
``None`` where a score is missing. A statistic is ``None`` where the table
does not define it:

* ``mean_sd``, arithmetic mean and population standard deviation;
* ``percent_agreement``, the share of annotator pairs with exactly equal
  scores over all items of a heuristic, which is also what the summary
  report labels inter-rater agreement;
* ``cohen_kappa_pairwise``, unweighted kappa per annotator pair;
* ``krippendorff_alpha`` in the coincidence-matrix formulation with the
  standard ordinal metric, tolerating missing values by pairing only within
  items that carry at least two scores.
"""

from __future__ import annotations

import csv
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Union

from .records import Record

SCORES = (1, 2, 3, 4, 5)
COLUMNS = ("item_id", "heuristic", "annotator", "score")


def _sum(values: Iterable[float]) -> float:
    """Floats added left to right, as ``sum`` adds them before CPython 3.12,
    which compensates for rounding and so changes the reports' last digits."""
    total = 0
    for value in values:
        total += value
    return total


class AgreementError(Exception):
    """Base class for ratings/statistics errors."""


class BadScoreError(AgreementError):
    def __init__(self, row: int, value: str):
        self.row = row
        self.value = value
        super().__init__(f"row {row}: score {value!r} is not an integer in 1..5")


class DuplicateCellError(AgreementError):
    def __init__(self, item_id: str, annotator: str):
        self.item_id = item_id
        self.annotator = annotator
        super().__init__(f"duplicate score for item {item_id!r} by annotator {annotator!r}")


class NoDataError(AgreementError):
    def __init__(self, heuristic: str):
        self.heuristic = heuristic
        super().__init__(f"no scores for heuristic {heuristic!r}")


class RatingsMatrix(Record):
    """Items x annotators ordinal scores; each item belongs to one heuristic."""

    _fields = ("item_heuristic", "annotators", "scores", "heuristic_items")
    __slots__ = (*_fields, "_seen")

    def __init__(self, item_heuristic: Optional[dict[str, str]] = None,
                 annotators: Optional[list[str]] = None,
                 scores: Optional[dict[tuple[str, str], int]] = None,
                 heuristic_items: Optional[dict[str, list[str]]] = None):
        self.item_heuristic = {} if item_heuristic is None else item_heuristic
        self.annotators = [] if annotators is None else annotators
        self.scores = {} if scores is None else scores
        self.heuristic_items = {} if heuristic_items is None else heuristic_items
        self._seen = set(self.annotators)

    def add(self, item_id: str, heuristic: str, annotator: str, score: Optional[int]) -> None:
        known = self.item_heuristic.get(item_id)
        if known is None:
            self.item_heuristic[item_id] = heuristic
            self.heuristic_items.setdefault(heuristic, []).append(item_id)
        elif known != heuristic:
            raise AgreementError(
                f"item {item_id!r} assigned to both {known!r} and {heuristic!r}")
        if annotator not in self._seen:
            self._seen.add(annotator)
            self.annotators.append(annotator)
        if score is None:
            return
        key = (item_id, annotator)
        if key in self.scores:
            raise DuplicateCellError(item_id, annotator)
        self.scores[key] = score

    def heuristics(self) -> list[str]:
        return list(self.heuristic_items)

    def rows(self, heuristic: str) -> list[list[Optional[int]]]:
        """The heuristic's items by all annotators; ``None`` where unscored."""
        get = self.scores.get
        return [[get((item, a)) for a in self.annotators]
                for item in self.heuristic_items.get(heuristic, ())]


def load_ratings(path: Union[str, Path]) -> RatingsMatrix:
    """Load the ratings CSV; raises AgreementError for malformed input. The
    header names item_id, heuristic, annotator and score once each, and maybe
    other columns, which are ignored; a UTF-8 BOM and blank lines are skipped.
    Every row has as many fields as the header; a score is blank or an
    integer in 1..5 as ``int()`` reads it. An error of the CSV reader names
    the line where it failed."""
    matrix = RatingsMatrix()
    add = matrix.add
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or not set(COLUMNS).issubset(header):
                raise AgreementError(
                    f"ratings CSV must have header item_id,heuristic,annotator,score, found {header}")
            for name in COLUMNS:
                if header.count(name) > 1:
                    raise AgreementError(f"ratings CSV header names column {name!r} more than once")
            width = len(header)
            item_at, heuristic_at, annotator_at, score_at = map(header.index, COLUMNS)
            row_number = 1
            for row in reader:
                if not row:
                    continue
                row_number += 1
                if len(row) != width:
                    raise AgreementError(f"row {row_number}: not as many fields as the header")
                raw = row[score_at].strip()
                if raw == "":
                    score: Optional[int] = None
                else:
                    try:
                        score = int(raw)
                    except ValueError:
                        raise BadScoreError(row_number, raw)
                    if score not in SCORES:
                        raise BadScoreError(row_number, raw)
                add(row[item_at].strip(), row[heuristic_at].strip(), row[annotator_at].strip(),
                    score)
        except csv.Error as exc:
            raise AgreementError(f"ratings CSV line {reader.line_num}: {exc}")
    return matrix


# ---------------------------------------------------------------------------
# Descriptive statistics
# ---------------------------------------------------------------------------

Table = list[list[Optional[int]]]


def mean_sd(table: Table) -> Optional[tuple[float, float]]:
    """Mean and population standard deviation over the table's scores."""
    values = [score for row in table for score in row if score is not None]
    if not values:
        return None
    n = len(values)
    mean = sum(values) / n
    variance = _sum((v - mean) ** 2 for v in values) / n
    return mean, variance ** 0.5


def annotator_means(annotators: list[str], table: Table) -> dict[str, float]:
    """Mean score per annotator (the table's columns), for each annotator
    with a score in the table."""
    out = {}
    for annotator, column in zip(annotators, zip(*table)):
        values = [score for score in column if score is not None]
        if values:
            out[annotator] = sum(values) / len(values)
    return out


# ---------------------------------------------------------------------------
# Pairwise statistics
# ---------------------------------------------------------------------------


def percent_agreement(table: Table) -> Optional[float]:
    """Fraction of annotator pairs with exactly equal scores, over all items.
    An item with ``n`` scores holds C(n, 2) pairs; a score given ``k`` times, C(k, 2)."""
    equal = 0
    total = 0
    for row in table:
        scores = [score for score in row if score is not None]
        n = len(scores)
        total += n * (n - 1) // 2
        for k in map(scores.count, set(scores)):
            equal += k * (k - 1) // 2
    return equal / total if total else None


class KappaPair(NamedTuple):
    annotator_a: str
    annotator_b: str
    kappa: Optional[float]  # None when expected agreement is 1 (degenerate)
    items: int


class KappaResult(NamedTuple):
    pairs: list[KappaPair]
    mean: Optional[float]  # over defined pairs


def _pair_kappa(shared: list[tuple[int, int]]) -> Optional[float]:
    n = len(shared)
    marg_a = Counter(a for a, _ in shared)
    marg_b = Counter(b for _, b in shared)
    p_o = sum(1 for a, b in shared if a == b) / n
    p_e = sum(marg_a[c] * marg_b[c] for c in SCORES) / (n * n)
    if 1.0 - p_e == 0:
        return None
    return (p_o - p_e) / (1.0 - p_e)


def cohen_kappa_pairwise(annotators: list[str], table: Table) -> Optional[KappaResult]:
    """Kappa for each annotator pair (the table's columns) sharing at least
    two items; ``None`` without such a pair.

    Pairs with zero expected disagreement are reported with ``kappa=None``
    (degenerate) and excluded from the mean.
    """
    columns = list(zip(*table))
    pairs = []
    for i, j in combinations(range(len(columns)), 2):
        shared = [(a, b) for a, b in zip(columns[i], columns[j])
                  if a is not None and b is not None]
        if len(shared) >= 2:
            pairs.append(KappaPair(annotators[i], annotators[j], _pair_kappa(shared),
                                   len(shared)))
    if not pairs:
        return None
    defined = [p.kappa for p in pairs if p.kappa is not None]
    mean = _sum(defined) / len(defined) if defined else None
    return KappaResult(pairs, mean)


# ---------------------------------------------------------------------------
# Krippendorff's alpha
# ---------------------------------------------------------------------------


class AlphaResult(NamedTuple):
    value: float
    degenerate: bool = False  # expected disagreement was zero


def _ordinal_delta_squared(c: int, k: int, marginals: dict[int, float]) -> float:
    if c == k:
        return 0.0
    lo, hi = min(c, k), max(c, k)
    between = 0  # as _sum adds
    for g in range(lo, hi + 1):
        between += marginals.get(g, 0.0)
    return (between - (marginals.get(lo, 0.0) + marginals.get(hi, 0.0)) / 2.0) ** 2


def krippendorff_alpha(table: Table) -> Optional[AlphaResult]:
    """Ordinal alpha via the coincidence matrix; only items with >= 2 scores
    pair up, and ``None`` without such an item.

    When every pairable score is identical the expected disagreement is zero;
    that case is reported as alpha 1.0 with the degenerate flag set.
    """
    units = [scores for row in table
             if len(scores := [score for score in row if score is not None]) >= 2]
    if not units:
        return None
    n = sum(len(u) for u in units)

    # Coincidence matrix: each ordered pair within a unit contributes
    # 1/(m_u - 1) to o[c][k], added in the order of an i != j double loop.
    coincidence: dict[tuple[int, int], float] = {}
    get = coincidence.get
    for unit in units:
        weight = 1.0 / (len(unit) - 1)
        for pair in permutations(unit, 2):
            coincidence[pair] = get(pair, 0.0) + weight

    marginals: dict[int, float] = {}
    for (c, _k), weight in coincidence.items():
        marginals[c] = marginals.get(c, 0.0) + weight

    # o is symmetric, so delta covers every cell (c, k) of it.
    delta = {(c, k): _ordinal_delta_squared(c, k, marginals) for c in marginals for k in marginals}
    observed = _sum(weight * delta[pair] for pair, weight in coincidence.items())
    expected = _sum(marginals[c] * marginals[k] * delta[(c, k)]
                    for c in marginals for k in marginals) / (n - 1)
    if expected == 0.0:
        return AlphaResult(1.0, degenerate=True)
    return AlphaResult(1.0 - observed / expected)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


class HeuristicStats(NamedTuple):
    heuristic: str
    items: int
    mean: float
    sd: float
    percent_agreement: Optional[float]
    mean_kappa: Optional[float]
    krippendorff_alpha: Optional[float]
    alpha_degenerate: bool
    annotator_means: dict[str, float]


class AgreementReport(NamedTuple):
    annotators: list[str]
    heuristics: list[HeuristicStats]

    def to_dict(self) -> dict:
        return {"annotators": list(self.annotators),
                "heuristics": [{**h._asdict(), "annotator_means": dict(h.annotator_means)}
                               for h in self.heuristics]}

    def format_table(self) -> str:
        def cell(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.2f}"

        rows = [["Heuristic", "Items", "Mean", "SD", "Agreement", "Kappa", "Alpha"]]
        rows += [[h.heuristic, str(h.items), cell(h.mean), cell(h.sd), cell(h.percent_agreement),
                  cell(h.mean_kappa),
                  cell(h.krippendorff_alpha) + ("*" if h.alpha_degenerate else "")]
                 for h in self.heuristics]
        widths = [max(map(len, column)) for column in zip(*rows)]
        rows.insert(1, ["-" * w for w in widths])
        return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n" for row in rows)


def build_report(matrix: RatingsMatrix, heuristic_order: Optional[Iterable[str]] = None) -> AgreementReport:
    """Compute the full per-heuristic report from one table per heuristic.

    ``heuristic_order`` pins the row order (unknown names keep first
    appearance order at the end); a statistic the table does not define is
    None in its row. A heuristic without any score raises NoDataError.
    """
    present = matrix.heuristics()
    ordered = [h for h in dict.fromkeys(heuristic_order or ()) if h in present]
    ordered.extend(h for h in present if h not in ordered)

    annotators = matrix.annotators
    stats = []
    for heuristic in ordered:
        table = matrix.rows(heuristic)
        moments = mean_sd(table)
        if moments is None:
            raise NoDataError(heuristic)
        kappa = cohen_kappa_pairwise(annotators, table)
        alpha = krippendorff_alpha(table) or (None, False)  # value, degenerate
        stats.append(HeuristicStats(
            heuristic, len(table), *moments, percent_agreement(table),
            None if kappa is None else kappa.mean, *alpha, annotator_means(annotators, table)))
    return AgreementReport(list(annotators), stats)
