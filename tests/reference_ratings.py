"""The ratings CSV loader as it was before ``xkg.agreement.load_ratings`` read
rows with ``csv.reader``: one ``csv.DictReader`` dict per row. It shares the
matrix, error types and constants with ``xkg.agreement``; the differential
property in ``test_agreement.py`` compares the two.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional, Union

from xkg.agreement import COLUMNS, SCORES, AgreementError, BadScoreError, RatingsMatrix


def load_ratings(path: Union[str, Path]) -> RatingsMatrix:
    """Load the ratings CSV; raises AgreementError for malformed input. The
    header names item_id, heuristic, annotator and score once each, and maybe
    other columns, which are ignored; a UTF-8 BOM is skipped. Every row has
    as many fields as the header."""
    matrix = RatingsMatrix()
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        try:
            header = reader.fieldnames
            if header is None or not set(COLUMNS).issubset(header):
                raise AgreementError(
                    f"ratings CSV must have header item_id,heuristic,annotator,score, found {header}")
            for name in COLUMNS:
                if header.count(name) > 1:
                    raise AgreementError(f"ratings CSV header names column {name!r} more than once")
            last = header[-1]
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
