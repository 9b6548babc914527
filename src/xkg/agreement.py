"""Rater-agreement statistics over 5-point Likert annotations.

Ratings arrive as a CSV with header ``item_id,heuristic,annotator,score``
(blank score = missing; ``load_ratings`` says what else it accepts) and
become a RatingsMatrix with stable first-appearance ordering of items and
annotators. On top of it:

* ``mean_sd``, arithmetic mean and population standard deviation (sample
  standard deviation behind a flag, since either convention is defensible);
* ``percent_agreement``, the share of annotator pairs with exactly equal
  scores over all items of a heuristic, which is also what the summary
  report labels inter-rater agreement;
* ``cohen_kappa_pairwise``, unweighted kappa per annotator pair with an
  optional quadratically weighted variant for sensitivity analysis;
* ``krippendorff_alpha`` in the coincidence-matrix formulation with the
  standard ordinal metric, tolerating missing values by pairing only within
  items that carry at least two scores.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

SCORES = (1, 2, 3, 4, 5)


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


class NoOverlapError(AgreementError):
    def __init__(self, heuristic: str):
        self.heuristic = heuristic
        super().__init__(f"no annotator pair shares items for heuristic {heuristic!r}")


@dataclass
class RatingsMatrix:
    """Items x annotators ordinal scores; each item belongs to one heuristic."""

    items: list[str] = field(default_factory=list)
    item_heuristic: dict[str, str] = field(default_factory=dict)
    annotators: list[str] = field(default_factory=list)
    scores: dict[tuple[str, str], int] = field(default_factory=dict)

    def add(self, item_id: str, heuristic: str, annotator: str, score: Optional[int]) -> None:
        known = self.item_heuristic.get(item_id)
        if known is None:
            self.items.append(item_id)
            self.item_heuristic[item_id] = heuristic
        elif known != heuristic:
            raise AgreementError(
                f"item {item_id!r} assigned to both {known!r} and {heuristic!r}")
        if annotator not in self.annotators:
            self.annotators.append(annotator)
        if score is None:
            return
        key = (item_id, annotator)
        if key in self.scores:
            raise DuplicateCellError(item_id, annotator)
        self.scores[key] = score

    def heuristics(self) -> list[str]:
        seen: list[str] = []
        for item in self.items:
            h = self.item_heuristic[item]
            if h not in seen:
                seen.append(h)
        return seen

    def items_for(self, heuristic: str) -> list[str]:
        return [i for i in self.items if self.item_heuristic[i] == heuristic]

    def score(self, item_id: str, annotator: str) -> Optional[int]:
        return self.scores.get((item_id, annotator))

    def item_scores(self, item_id: str) -> list[int]:
        return [self.scores[(item_id, a)] for a in self.annotators
                if (item_id, a) in self.scores]

    def heuristic_scores(self, heuristic: str) -> list[int]:
        out = []
        for item in self.items_for(heuristic):
            out.extend(self.item_scores(item))
        return out


def load_ratings(path: Union[str, Path]) -> RatingsMatrix:
    """Load the ratings CSV; raises AgreementError for malformed input. The
    header names item_id, heuristic, annotator and score, and maybe other
    columns, which are ignored; a UTF-8 BOM is skipped. Every row has as many
    fields as the header."""
    matrix = RatingsMatrix()
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        try:
            expected = {"item_id", "heuristic", "annotator", "score"}
            if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
                raise AgreementError(
                    f"ratings CSV must have header item_id,heuristic,annotator,score, found {reader.fieldnames}")
            last = reader.fieldnames[-1]
            for row_number, row in enumerate(reader, start=2):
                # DictReader gives a short row None values, a long row a None key.
                if row[last] is None or None in row:
                    raise AgreementError(f"row {row_number}: not as many fields as the header")
                raw = row["score"].strip()
                if raw == "":
                    score: Optional[int] = None
                else:
                    try:
                        score = int(raw)
                    except ValueError:
                        raise BadScoreError(row_number, raw)
                    if score not in SCORES:
                        raise BadScoreError(row_number, raw)
                matrix.add(row["item_id"].strip(), row["heuristic"].strip(),
                           row["annotator"].strip(), score)
        except csv.Error as exc:
            raise AgreementError(f"ratings CSV after line {reader.line_num}: {exc}")
    return matrix


# ---------------------------------------------------------------------------
# Descriptive statistics
# ---------------------------------------------------------------------------


def mean_sd(matrix: RatingsMatrix, heuristic: str, sample: bool = False) -> tuple[float, float]:
    """Mean and standard deviation over all present scores of a heuristic.

    Population standard deviation by default; ``sample=True`` applies the
    n-1 correction.
    """
    values = matrix.heuristic_scores(heuristic)
    if not values:
        raise NoDataError(heuristic)
    n = len(values)
    mean = sum(values) / n
    denominator = (n - 1) if sample and n > 1 else n
    variance = sum((v - mean) ** 2 for v in values) / denominator
    return mean, variance ** 0.5


def annotator_means(matrix: RatingsMatrix, heuristic: str) -> dict[str, float]:
    """Mean score per annotator, restricted to the heuristic's items."""
    out = {}
    for annotator in matrix.annotators:
        values = [matrix.scores[(i, annotator)] for i in matrix.items_for(heuristic)
                  if (i, annotator) in matrix.scores]
        if values:
            out[annotator] = sum(values) / len(values)
    return out


# ---------------------------------------------------------------------------
# Percent agreement
# ---------------------------------------------------------------------------


def percent_agreement(matrix: RatingsMatrix, heuristic: str) -> float:
    """Fraction of annotator pairs with exactly equal scores, over all items."""
    equal = 0
    total = 0
    annotators = matrix.annotators
    for item in matrix.items_for(heuristic):
        for i in range(len(annotators)):
            for j in range(i + 1, len(annotators)):
                a = matrix.score(item, annotators[i])
                b = matrix.score(item, annotators[j])
                if a is None or b is None:
                    continue
                total += 1
                if a == b:
                    equal += 1
    if total == 0:
        raise NoOverlapError(heuristic)
    return equal / total


# ---------------------------------------------------------------------------
# Cohen's kappa
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaPair:
    annotator_a: str
    annotator_b: str
    kappa: Optional[float]  # None when expected agreement is 1 (degenerate)
    items: int


@dataclass
class KappaResult:
    pairs: list[KappaPair]
    mean: Optional[float]  # over defined pairs


def _pair_kappa(shared: list[tuple[int, int]], weighted: bool) -> Optional[float]:
    n = len(shared)
    marg_a = {c: 0 for c in SCORES}
    marg_b = {c: 0 for c in SCORES}
    for a, b in shared:
        marg_a[a] += 1
        marg_b[b] += 1

    if weighted:
        # Quadratic penalty; kappa_w = 1 - sum(w*o) / sum(w*e).
        observed = sum((a - b) ** 2 for a, b in shared) / n
        expected = sum(
            marg_a[c] * marg_b[k] * (c - k) ** 2 for c in SCORES for k in SCORES
        ) / (n * n)
        if expected == 0:
            return None
        return 1.0 - observed / expected

    p_o = sum(1 for a, b in shared if a == b) / n
    p_e = sum(marg_a[c] * marg_b[c] for c in SCORES) / (n * n)
    if 1.0 - p_e == 0:
        return None
    return (p_o - p_e) / (1.0 - p_e)


def cohen_kappa_pairwise(matrix: RatingsMatrix, heuristic: str,
                         weighted: bool = False) -> KappaResult:
    """Kappa for each annotator pair sharing at least two items.

    Pairs with zero expected disagreement are reported with ``kappa=None``
    (degenerate) and excluded from the mean.
    """
    annotators = matrix.annotators
    items = matrix.items_for(heuristic)
    pairs: list[KappaPair] = []
    for i in range(len(annotators)):
        for j in range(i + 1, len(annotators)):
            shared = []
            for item in items:
                a = matrix.score(item, annotators[i])
                b = matrix.score(item, annotators[j])
                if a is not None and b is not None:
                    shared.append((a, b))
            if len(shared) < 2:
                continue
            pairs.append(KappaPair(annotators[i], annotators[j],
                                   _pair_kappa(shared, weighted), len(shared)))
    if not pairs:
        raise NoOverlapError(heuristic)
    defined = [p.kappa for p in pairs if p.kappa is not None]
    mean = sum(defined) / len(defined) if defined else None
    return KappaResult(pairs, mean)


# ---------------------------------------------------------------------------
# Krippendorff's alpha
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaResult:
    value: float
    degenerate: bool = False  # expected disagreement was zero

    def __float__(self) -> float:
        return self.value


def _ordinal_delta_squared(c: int, k: int, marginals: dict[int, float]) -> float:
    if c == k:
        return 0.0
    lo, hi = min(c, k), max(c, k)
    between = sum(marginals.get(g, 0.0) for g in range(lo, hi + 1))
    return (between - (marginals.get(lo, 0.0) + marginals.get(hi, 0.0)) / 2.0) ** 2


def _nominal_delta_squared(c: int, k: int, marginals: dict[int, float]) -> float:
    return 0.0 if c == k else 1.0


_METRICS = {"ordinal": _ordinal_delta_squared, "nominal": _nominal_delta_squared}


def krippendorff_alpha(matrix: RatingsMatrix, heuristic: str,
                       metric: str = "ordinal") -> AlphaResult:
    """Alpha via the coincidence matrix; only items with >= 2 scores pair up.

    When every pairable score is identical the expected disagreement is zero;
    that case is reported as alpha 1.0 with the degenerate flag set.
    """
    delta = _METRICS[metric]
    units = [scores for item in matrix.items_for(heuristic)
             if len(scores := matrix.item_scores(item)) >= 2]
    n = sum(len(u) for u in units)
    if n < 2:
        raise NoDataError(heuristic)

    # Coincidence matrix: each ordered pair within a unit contributes
    # 1/(m_u - 1) to o[c][k].
    coincidence: dict[tuple[int, int], float] = {}
    for unit in units:
        m = len(unit)
        for idx, c in enumerate(unit):
            for jdx, k in enumerate(unit):
                if idx == jdx:
                    continue
                coincidence[(c, k)] = coincidence.get((c, k), 0.0) + 1.0 / (m - 1)

    marginals: dict[int, float] = {}
    for (c, _k), weight in coincidence.items():
        marginals[c] = marginals.get(c, 0.0) + weight

    observed = sum(weight * delta(c, k, marginals)
                   for (c, k), weight in coincidence.items())
    expected = sum(marginals[c] * marginals[k] * delta(c, k, marginals)
                   for c in marginals for k in marginals) / (n - 1)
    if expected == 0.0:
        return AlphaResult(1.0, degenerate=True)
    return AlphaResult(1.0 - observed / expected)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class HeuristicStats:
    heuristic: str
    items: int
    mean: float
    sd: float
    percent_agreement: Optional[float]
    mean_kappa: Optional[float]
    alpha: Optional[float]
    alpha_degenerate: bool
    annotator_means: dict[str, float]


@dataclass
class AgreementReport:
    heuristics: list[HeuristicStats]
    annotators: list[str]

    def to_dict(self) -> dict:
        return {
            "annotators": self.annotators,
            "heuristics": [
                {
                    "heuristic": h.heuristic,
                    "items": h.items,
                    "mean": h.mean,
                    "sd": h.sd,
                    "percent_agreement": h.percent_agreement,
                    "mean_kappa": h.mean_kappa,
                    "krippendorff_alpha": h.alpha,
                    "alpha_degenerate": h.alpha_degenerate,
                    "annotator_means": h.annotator_means,
                }
                for h in self.heuristics
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def format_table(self) -> str:
        headers = ["Heuristic", "Items", "Mean", "SD", "Agreement", "Kappa", "Alpha"]
        rows = []
        for h in self.heuristics:
            rows.append([
                h.heuristic,
                str(h.items),
                f"{h.mean:.2f}",
                f"{h.sd:.2f}",
                "-" if h.percent_agreement is None else f"{h.percent_agreement:.2f}",
                "-" if h.mean_kappa is None else f"{h.mean_kappa:.2f}",
                "-" if h.alpha is None else f"{h.alpha:.2f}" + ("*" if h.alpha_degenerate else ""),
            ])
        widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        lines.append("")
        return "\n".join(lines)


def build_report(matrix: RatingsMatrix, heuristic_order: Optional[Iterable[str]] = None) -> AgreementReport:
    """Compute the full per-heuristic report.

    ``heuristic_order`` pins the row order (unknown names keep first
    appearance order at the end); statistics that need overlap fall back to
    None instead of failing the other rows.
    """
    present = matrix.heuristics()
    ordered = []
    if heuristic_order:
        ordered = [h for h in heuristic_order if h in present]
    ordered.extend(h for h in present if h not in ordered)

    stats = []
    for heuristic in ordered:
        mean, sd = mean_sd(matrix, heuristic)
        try:
            agreement: Optional[float] = percent_agreement(matrix, heuristic)
        except NoOverlapError:
            agreement = None
        try:
            kappa = cohen_kappa_pairwise(matrix, heuristic).mean
        except NoOverlapError:
            kappa = None
        try:
            alpha_result = krippendorff_alpha(matrix, heuristic)
            alpha: Optional[float] = alpha_result.value
            degenerate = alpha_result.degenerate
        except NoDataError:
            alpha = None
            degenerate = False
        stats.append(HeuristicStats(
            heuristic=heuristic,
            items=len(matrix.items_for(heuristic)),
            mean=mean,
            sd=sd,
            percent_agreement=agreement,
            mean_kappa=kappa,
            alpha=alpha,
            alpha_degenerate=degenerate,
            annotator_means=annotator_means(matrix, heuristic),
        ))
    return AgreementReport(stats, list(matrix.annotators))
