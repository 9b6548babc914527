"""Hypothesis strategies for the package's untrusted text inputs, shared by
the differential properties against the reference readers and by the CLI's
exit-code contract."""

from __future__ import annotations

import csv

from hypothesis import strategies as st

from xkg.agreement import COLUMNS
from xkg.rdf import FRED_NS, MAX_NESTING

# ---------------------------------------------------------------------------
# Turtle
# ---------------------------------------------------------------------------

_NAMES = (["ex:a", "ex:b", "ex:", "fred:x", "f:y", "ex:a.b", "ex:d-e", "ex:1"],
          ["nope:z", ":c", "a:b", "ex:a..", "PREFIX ex: <http://e/>", "base <http://e/>",
           "@base <http://e/> ."])
_NODES = (["<http://e/x>", "<urn:x>", "_:b1", "_:n"],
          ["<nocolon>", "_:x.y", "<a b>", "( ex:b )", "()"])
_STRING_PARTS = (["x", " ", "\\t", "\\n", "\\r", '\\"', "\\\\", "\\u00e9", "\\uFFFD", "é"],
                 ["\\u12", "\\uD800", "\\uZZZZ", "\\q", "\\", "\ud800", '"', "\n"])
_LITERAL_TAILS = (["", "@en", "@en-US", "^^xsd:integer", "^^<http://e/dt>", "^^ex:dt"],
                  ["@1", "@en-", "^^xsd:boolean", "^^<http://www.w3.org/2001/XMLSchema#boolean>",
                   "^^<x>", "^^", "^^_:b"])
_OTHER_LITERALS = (["42", "-3.5", "+7", "true", "false"],
                   ["1.", "3.5a", "1:a", "1.5.3", "1e5", "truex", "true.x", "a", "'x'",
                    "'''x'''", '"""x"""', '"""x\ny"""', '""""""', '"""a\\q"""@en'])
_PREDICATES = (["a", *_NAMES[0]], ["_:b1", "a.p", "true", '"x"', "<nocolon>"])
# "f" aliases fred's namespace; the bad ones rebind fred or are no label.
_PREFIXES = ([("ex", "http://e/"), ("f", FRED_NS), ("fred", FRED_NS),
              ("xsd", "http://www.w3.org/2001/XMLSchema#")],
             [("fred", "http://e/"), ("1x", "urn:x:")])
_gaps = st.sampled_from([" ", " ", "\n", "\r\n", "\t", "", " # note\n", "#c\n  "])


@st.composite
def turtle_documents(draw) -> str:
    """Turtle documents with escapes, comments, dangling ';' and nesting near
    MAX_NESTING. A clean one holds only valid tokens; a dirty one also bad
    tokens, and may then be edited at a few places."""
    dirty = draw(st.booleans())

    def pick(choices):
        valid, bad = choices
        # A few bad tokens at most, so that the first error is not always
        # the scanner's.
        return draw(st.sampled_from(bad if dirty and draw(st.integers(0, 7)) == 0 else valid))

    def gap():
        return draw(_gaps)

    def literal():
        if draw(st.integers(0, 2)):
            return pick(_OTHER_LITERALS)
        body = "".join(pick(_STRING_PARTS) for _ in range(draw(st.integers(0, 3))))
        return f'"{body}"{pick(_LITERAL_TAILS)}'

    def objects(depth):
        out = []
        for _ in range(draw(st.integers(1, 2))):
            roll = draw(st.integers(0, 3))
            if depth and roll == 0:
                out.append(f"[{gap()}{predicate_objects(depth - 1)}{gap()}]")
            else:
                out.append(literal() if roll == 1 else pick(_NAMES if roll == 2 else _NODES))
        return f"{gap()},{gap()}".join(out)

    def predicate_objects(depth):
        pairs = [f"{pick(_PREDICATES)} {objects(depth)}"
                 for _ in range(draw(st.integers(1, 2)))]
        return f"{gap()};{gap()}".join(pairs) + draw(st.sampled_from(["", "", " ;", ";"]))

    parts = [f"@prefix {label}: <{ns}> .{gap()}"
             for label, ns in [*_PREFIXES[0][:2], *(pick(_PREFIXES)
                                                    for _ in range(draw(st.integers(0, 2))))]]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 5)) == 0:  # a chain of '[ ]' around MAX_NESTING deep
            depth = draw(st.sampled_from([1, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1]))
            parts.append("ex:s " + "ex:p [ " * depth + "ex:q ex:o" + " ]" * depth + " .")
            continue
        subject = (f"[{gap()}{predicate_objects(1)}{gap()}]" if draw(st.integers(0, 4)) == 0
                   else pick(_NODES) if draw(st.booleans()) else pick(_NAMES))
        parts.append(f"{subject} {predicate_objects(2)}{gap()}.{gap()}")
    text = "".join(parts)
    for _ in range(draw(st.sampled_from([0, 1, 2])) if dirty else 0):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.one_of(st.sampled_from(
            ["", ".", ";", ",", "[", "]", "<", '"', "\\", "@", "#", "\n", " ", "_:", ":", "^^",
             "1", "a", "\ud800", "!"]), st.characters()))
        text = text[:at] + edit + text[at + draw(st.integers(0, 2)):]
    return text


# ---------------------------------------------------------------------------
# Ratings CSV
# ---------------------------------------------------------------------------

# Scores that int() reads as 1..5, and scores that are blank, not an integer
# or out of range.
_GOOD_SCORES = st.sampled_from(["1", "2", "3", "4", "5", "+4", "04", " 4 ", "\u0664"])
_BAD_SCORES = st.sampled_from(["", " ", "4.0", "x", "four", "6", "0", "-1"])
# Fields in any column: quoted commas, line ends and quotes, an unclosed
# quote and one field past the CSV size limit.
_NOISE = st.sampled_from(['"a,b"', '"two\nlines"', '"two\r\nlines"', '"say ""hi"""', '"open',
                          'a"b', "", "x" * (csv.field_size_limit() + 1)])
_ITEMS = {"i1": "H", "i2": "H", "i3": "G", "i4": "G"}
_ITEM = st.sampled_from(sorted(_ITEMS))
_ANNOTATOR = st.sampled_from(["a", "b", " c ", "d"])
_EXTRA_COLUMNS = st.lists(st.sampled_from(["note", "", "x"]), max_size=2)
_COLUMN = st.sampled_from(COLUMNS)
_LINE_END = st.sampled_from(["\n", "\r\n"])
# A roll of 0 to 39; a rare case is the top roll, a less rare one a range.
_ROLL = st.integers(0, 39)


@st.composite
def ratings_csv_texts(draw) -> str:
    """A ratings CSV: the four columns and maybe others, in any order; a few
    rows over four items and four annotators with scores in the forms
    ``int()`` reads and some it does not; blank lines anywhere after the
    header; LF or CRLF line ends and maybe a BOM. Now and then a header names
    a column twice or leaves one out, an item is put under a second
    heuristic, a row is short or long, or a field is noise (``_NOISE``)."""
    extra = draw(_EXTRA_COLUMNS)
    roll = draw(_ROLL)
    if roll == 38:
        extra.append(draw(_COLUMN))
    columns = draw(st.permutations([*COLUMNS, *extra]))
    if roll == 39:
        del columns[draw(st.integers(0, len(columns) - 1))]
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 6))):
        item = draw(_ITEM)
        values = {"item_id": item,
                  "heuristic": "K" if draw(_ROLL) == 39 else _ITEMS[item],
                  "annotator": draw(_ANNOTATOR),
                  "score": draw(_BAD_SCORES if draw(_ROLL) >= 36 else _GOOD_SCORES)}
        row = [values.get(name, "n") for name in columns]
        roll = draw(_ROLL)
        if roll >= 36:
            row[draw(st.integers(0, len(row) - 1))] = draw(_NOISE)
        elif roll == 35:
            row.pop()
        elif roll == 34:
            row.append("extra")
        lines.append(",".join(row))
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(_LINE_END)
    text = newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))
    return ("\ufeff" if draw(st.booleans()) else "") + text
