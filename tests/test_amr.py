import logging
import random
import re

import pytest

import reference_base
import reference_penman
from generators import random_amr_graph, random_penman_file, serialize_penman
from isomorphism import amr_isomorphic, concepts
from reference_base import _invert
from xkg.amr import (
    MAX_NESTING,
    AmrConstant,
    AmrEdge,
    AmrError,
    AmrGraph,
    AmrNode,
    DanglingVariableError,
    DuplicateVariableError,
    FRAME_CONCEPT,
    PenmanSyntaxError,
    parse_penman,
    parse_penman_file,
)


def is_frame(node: AmrNode) -> bool:
    return FRAME_CONCEPT.match(node.concept) is not None


def normalize_inverse_roles(graph: AmrGraph) -> AmrGraph:
    """Flip every ``-of`` edge between nodes, as ``parse_penman`` does."""
    return AmrGraph(graph.root, graph.nodes, tuple(dict.fromkeys(map(_invert, graph.edges))))


def amr_equal(g1: AmrGraph, g2: AmrGraph) -> bool:
    """Same root, node set, and edge set (edge order ignored)."""
    return g1.root == g2.root and set(g1.nodes) == set(g2.nodes) and set(g1.edges) == set(g2.edges)


class TestParse:
    def test_single_node(self):
        graph = parse_penman("(a / athlete)")
        assert graph.root == "a"
        assert len(graph.nodes) == 1
        assert graph.edges == ()
        assert concepts(graph)["a"] == "athlete"

    def test_nested_frames(self):
        graph = parse_penman("(c / celebrate-01 :ARG0 (a / athlete) :ARG1 (w / win-01))")
        assert len(graph.nodes) == 3
        assert len(graph.edges) == 2
        nodes = {n.variable: n for n in graph.nodes}
        assert is_frame(nodes["c"])
        assert not is_frame(nodes["a"])
        assert {e.role for e in graph.edges} == {":ARG0", ":ARG1"}

    def test_reentrancy_resolves_to_one_node(self):
        graph = parse_penman("(c / cheer-01 :ARG0 a :ARG1 (a / athlete))")
        assert len(graph.nodes) == 2
        targets = {e.target for e in graph.edges}
        assert targets == {"a"}

    def test_inverse_role_normalized(self):
        graph = parse_penman("(a / athlete :ARG0-of (w / win-01))")
        (edge,) = graph.edges
        assert edge == AmrEdge("w", ":ARG0", "a")

    def test_an_inverse_role_to_a_constant_is_kept(self):
        graph = parse_penman('(a / athlete :ARG0-of "s" :quant-of 5 :mod-of (w / win-01))')
        assert graph.edges == (AmrEdge("a", ":ARG0-of", AmrConstant("s", quoted=True)),
                               AmrEdge("a", ":quant-of", AmrConstant("5")),
                               AmrEdge("w", ":mod", "a"))

    def test_duplicate_edges_keep_first_occurrence_order(self):
        text = "(w / win-01 :ARG0 (a / athlete :ARG0-of w :mod (t / team)) :ARG0 a :mod t :ARG1 t)"
        expected = (AmrEdge("w", ":ARG0", "a"), AmrEdge("a", ":mod", "t"),
                    AmrEdge("w", ":mod", "t"), AmrEdge("w", ":ARG1", "t"))
        assert parse_penman(text).edges == expected

    def test_normalization_is_involution_safe(self):
        # (a / athlete :ARG0-of (w / win-01) :mod (t / team)) as written
        graph = AmrGraph("a", (AmrNode("a", "athlete"), AmrNode("w", "win-01"),
                               AmrNode("t", "team")),
                         (AmrEdge("a", ":ARG0-of", "w"), AmrEdge("a", ":mod", "t")))
        once = normalize_inverse_roles(graph)
        twice = normalize_inverse_roles(once)
        assert amr_equal(once, twice)
        assert once == parse_penman("(a / athlete :ARG0-of (w / win-01) :mod (t / team))")

    def test_constants(self):
        graph = parse_penman('(t / team :quant 3 :polarity - :name (n / name :op1 "Alfa"))')
        constants = [e.target for e in graph.edges if isinstance(e.target, AmrConstant)]
        assert AmrConstant("3") in constants
        assert AmrConstant("-") in constants
        assert AmrConstant("Alfa", quoted=True) in constants

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateVariableError):
            parse_penman("(a / athlete :mod (a / athlete))")

    def test_dangling_variable(self):
        with pytest.raises(DanglingVariableError):
            parse_penman("(a / athlete :mod b)")

    def test_syntax_errors(self):
        for bad in ["(a / athlete", "(a athlete)", "a / athlete)", "(a / athlete) junk",
                    "(a / athlete :mod)"]:
            with pytest.raises(PenmanSyntaxError):
                parse_penman(bad)

    @pytest.mark.parametrize("text, message", [
        ("(a / b : (c / d))", "at offset 7: role ':' has no name"),
        ("(a / b :-of (c / d))", "at offset 7: role ':-of' has no name"),
        ("(a / b :mod c\n   :-of 5)", "at offset 17: role ':-of' has no name"),
        ("(a / b :-of-of (c / d))", "at offset 7: role ':-of-of' has no name"),
        ("(a / b :mod c :-of-of-of c)", "at offset 14: role ':-of-of-of' has no name"),
    ])
    def test_a_role_needs_a_name(self, text, message):
        with pytest.raises(PenmanSyntaxError) as raised:
            parse_penman(text)
        assert str(raised.value) == message

    def test_nesting_limit(self):
        def nested(depth):
            return "".join(f"(v{i} / thing :mod " for i in range(depth - 1)) \
                + f"(v{depth - 1} / thing" + ")" * depth
        assert len(parse_penman(nested(MAX_NESTING)).nodes) == MAX_NESTING
        with pytest.raises(PenmanSyntaxError, match="nested deeper"):
            parse_penman(nested(MAX_NESTING + 1))
        with pytest.raises(PenmanSyntaxError, match="nested deeper"):
            parse_penman(nested(3000))

    def test_alignment_markers_stripped(self):
        graph = parse_penman("(c / celebrate-01~e.2 :ARG0 (a / athlete~e.4))")
        assert concepts(graph)["c"] == "celebrate-01"
        assert concepts(graph)["a"] == "athlete"

    def test_node_count_equals_declaration_sites(self):
        rng = random.Random(3)
        for _ in range(25):
            graph = random_amr_graph(rng)
            text = serialize_penman(graph)
            quoteless = []
            in_string = False
            for ch in text:
                if ch == '"':
                    in_string = not in_string
                elif not in_string:
                    quoteless.append(ch)
            assert "".join(quoteless).count("/") == len(graph.nodes)


class TestSerialize:
    def test_single_node(self):
        graph = AmrGraph("a", (AmrNode("a", "athlete"),), ())
        assert serialize_penman(graph) == "(a / athlete)"

    def test_reentrancy_not_redeclared(self):
        text = serialize_penman(parse_penman("(c / cheer-01 :ARG0 a :ARG1 (a / athlete))"))
        assert text.count("/") == 2
        assert text.count("(") == 2

    def test_inverse_direction_uses_of_role(self):
        graph = AmrGraph(
            "a",
            (AmrNode("a", "athlete"), AmrNode("w", "win-01")),
            (AmrEdge("w", ":ARG0", "a"),),
        )
        text = serialize_penman(graph)
        assert ":ARG0-of (w / win-01)" in text

    def test_unreachable_node_rejected(self):
        graph = AmrGraph(
            "a",
            (AmrNode("a", "athlete"), AmrNode("w", "win-01")),
            (),
        )
        with pytest.raises(Exception):
            serialize_penman(graph)

    def test_fifty_random_round_trips(self):
        rng = random.Random(99)
        for _ in range(50):
            graph = random_amr_graph(rng)
            back = parse_penman(serialize_penman(graph))
            assert amr_isomorphic(graph, back)
            assert amr_equal(graph, back)  # variable names survive


class TestIsomorphism:
    def test_renamed_variables(self):
        g1 = parse_penman("(c / celebrate-01 :ARG0 (a / athlete))")
        g2 = parse_penman("(x / celebrate-01 :ARG0 (y / athlete))")
        assert amr_isomorphic(g1, g2)
        assert not amr_equal(g1, g2)

    def test_role_mismatch(self):
        g1 = parse_penman("(c / celebrate-01 :ARG0 (a / athlete))")
        g2 = parse_penman("(c / celebrate-01 :ARG1 (a / athlete))")
        assert not amr_isomorphic(g1, g2)

    def test_concept_mismatch(self):
        g1 = parse_penman("(c / celebrate-01 :ARG0 (a / athlete))")
        g2 = parse_penman("(c / celebrate-01 :ARG0 (a / runner))")
        assert not amr_isomorphic(g1, g2)


class TestPenmanFile:
    def test_comment_separated_blocks(self):
        text = """# first sentence
(a / athlete)
# second sentence
(c / celebrate-01 :ARG0 (b / athlete))
"""
        graphs = parse_penman_file(text)
        assert [g.root for g in graphs] == ["a", "c"]

    def test_single_graph_spanning_lines(self):
        graphs = parse_penman_file("(c / celebrate-01\n   :ARG0 (a / athlete))\n")
        assert len(graphs) == 1
        assert len(graphs[0].nodes) == 2

    def test_parentheses_in_a_quoted_constant_on_its_own_line(self):
        text = '(s / smile-01\n   :op1 "smile :)"\n   :ARG0 (b / boy))\n'
        graphs = parse_penman_file(text)
        assert len(graphs) == 1
        assert graphs[0].edges[0].target == AmrConstant("smile :)", quoted=True)

    def test_parenthesis_in_a_quoted_constant_does_not_join_graphs(self):
        text = '(a / say-01 :ARG1 "x(")\n(b / dog :mod "\\"(")\n(c / cat)\n'
        assert [g.root for g in parse_penman_file(text)] == ["a", "b", "c"]

    def test_quoted_constant_across_lines(self):
        text = '(a / say-01 :ARG1 "x\n# (not a comment\n")\n(b / dog)\n'
        graphs = parse_penman_file(text)
        assert [g.root for g in graphs] == ["a", "b"]
        assert graphs[0].edges[0].target.value == "x\n# (not a comment\n"

    def test_comment_lines_anywhere_outside_strings(self):
        text = ('#(\n(a / say-01\n  # :ARG0 (b / boy)\n\t:ARG1 "x\n  # kept"\n'
                '# )\n :mod (d / dog))\n  # "\n')
        (graph,) = parse_penman_file(text)
        assert [n.variable for n in graph.nodes] == ["a", "d"]
        assert graph.edges[0].target.value == "x\n  # kept"

    def test_a_comment_mark_inside_a_line_is_part_of_a_word(self):
        (graph,) = parse_penman_file("(a / b#c :mod (d / #e))")
        assert [n.concept for n in graph.nodes] == ["b#c", "#e"]

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\u2028", "\x85"])
    def test_every_line_end_is_one_newline(self, end):
        text = f'(a / say-01 :ARG1 "x{end}y"{end}# c{end}:mod (b / big)){end}'
        (graph,) = parse_penman_file(text)
        assert graph.edges[0].target.value == "x\ny"
        assert len(graph.nodes) == 2

    def test_an_empty_document_holds_no_graph(self):
        assert parse_penman_file("") == parse_penman_file("# only\n\n  # comments\n") == []

    @pytest.mark.parametrize("text, count", [("", 0), ("# c\n", 0), ("(a / b)\n(c / d)", 2)])
    def test_parse_penman_wants_one_graph(self, text, count):
        with pytest.raises(AmrError, match=f"^expected one PENMAN graph, found {count}$"):
            parse_penman(text)

    def test_error_offsets_count_in_the_stripped_document(self):
        with pytest.raises(PenmanSyntaxError, match="^at offset 12: expected a token$"):
            parse_penman_file("(a / b~e.1)\r\n(c /)")

    def test_one_alignment_warning_per_file(self, caplog):
        with caplog.at_level(logging.WARNING, logger="xkg.amr"):
            parse_penman_file("(a / b~e.1)\n(c / d~e.2 :mod (e / f~e.3))\n")
        assert [r.getMessage() for r in caplog.records] == [
            "stripped 3 alignment marker(s) from PENMAN input"]

    # Layouts that read differently from the line splitter that came before
    # (tests/reference_penman.py), as README documents.

    @pytest.mark.parametrize("text", ["(a / b)\n  ~e.3\n(c / d)\n", "(a / b) (c / d)",
                                      "(a / b\n) (c\n/ d)", "(a / b)\n~e.3 # c\n(c / d)"])
    def test_widened_layouts(self, text):
        with pytest.raises(AmrError):
            reference_penman.parse_penman_file(text)
        assert [g.root for g in parse_penman_file(text)] == ["a", "c"]

    def test_a_quote_inside_a_word_opens_no_string(self):
        text = '(a / b"c)\n(d / e)'
        with pytest.raises(AmrError):
            reference_penman.parse_penman_file(text)
        assert [g.root for g in parse_penman_file(text)] == ["a", "d"]
        text = '(a / b"c :mod (d /\n#x\n))'
        assert concepts(reference_penman.parse_penman_file(text)[0])["d"] == "#x"
        with pytest.raises(PenmanSyntaxError, match="expected a token"):  # '#x' is a comment
            parse_penman_file(text)

    def test_markers_before_a_comment_mark_make_a_comment_line(self):
        text = "(a /\n~1#x)"
        assert concepts(reference_penman.parse_penman_file(text)[0])["a"] == "#x"
        with pytest.raises(PenmanSyntaxError, match="expected a token"):
            parse_penman_file(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except AmrError:
        return AmrError


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_reads_the_graphs_the_line_splitter_read(seed):
    """``parse_penman_file`` against the line splitter it replaced, on files
    with comment lines at every indentation, comment marks, parentheses and
    escaped quotes in constants, constants that span lines, every line end,
    alignment markers and broken graphs: the same graphs, or an AmrError from
    both. Each file's twin (``random_penman_file``) leaves out the widened
    layouts, which must not change what the reader returns. A quote inside a
    bare word is left to the tests above: the splitter took it for a string."""
    rng = random.Random(seed)
    widened = rejected = 0
    for _ in range(1000):
        text, twin = random_penman_file(rng)
        new = _outcome(parse_penman_file, text)
        assert new == _outcome(parse_penman_file, twin), (text, twin)
        assert new == _outcome(reference_penman.parse_penman_file, twin), twin
        rejected += new is AmrError
        widened += new is not AmrError and _outcome(
            reference_penman.parse_penman_file, text) is AmrError
    assert 100 < rejected < 500 and widened > 100


# The reader and translation as they were before tokens came from one split
# (tests/reference_base.py): every document must read the same.

def _read(parse, text, caplog):
    """``parse(text)``'s graphs, or the type and message of what it raised,
    and the warnings it logged."""
    caplog.clear()
    try:
        outcome = parse(text)
    except Exception as exc:
        outcome = (type(exc), str(exc))
    return outcome, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def _nested(depth):
    return "".join(f"(v{i} / thing :mod " for i in range(depth - 1)) \
        + f"(v{depth - 1} / thing" + ")" * depth


_FULL = ('# ::snt x\n(w / win-01~e.1 :ARG0 (a / athlete :name (n / name :op1 "Saint\\" Lucia"))\n'
         '   :ARG1-of (c / cheer-01 :ARG0 a :polarity - :quant 3.5) :mod "x(y)\n# z" :ARG2 w)')
_LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", " ", " "]
_SHAPES = [
    # a quote inside a word, or at the start of a concept with and without a
    # delimiter inside it
    '(a / b"c)\n(d / e)', '(a"b / c)', '(a / b :mo"d (c / d))', '(a / b :mod c"d)',
    '(a / b :mod "x"y)', '(a / "big")', '(a / "b c")', '(a / "b(c)")', '(a / "b/c")',
    '(a / "b\nc")', '(a / ""\n:mod "")', '(a / :b "x y")', '("x y" / z)', '(a / b "x")',
    '(a / b) "x"', '(a / b :ARG0 :x "y z")', '(a / b :mod\xa0"x")', '(a / b\xa0c)',
    # unterminated strings
    '(a / b :mod "x', '(a / b :mod "x\\', '(a / b :mod "x\\"', '(a / b :mod "x) (c / d)',
    '(a / b :mod ")', '(a / b :mod "x" :mod "y',
    # '#' in mid-line and at a line start
    '(a / b # c)', '(a / b\n# c\n)', '(a / b :mod\n  #c\n (d / e))', '#(a / b)\n(c / d)',
    '(a / #b)', '(a / b :mod #c)', '(a / b :mod\n# say "hi"\n"x")', '(a / b :mod\n#"\n"x")',
    '(a /\n#x\n)', '(a / b :mod "\n#c\n")', '(a / b)\n  # c',
    # alignment markers
    '(a / b~e.1 :mod~2 (c / d~e.3,4))', '(a /~e.1 b)', '(a / b :op1 "x~1")', '(a /\n~1#x)',
    '~e.1', '(a / b)\n~e.3 (c / d)',
    # '/' where a role should be
    '(a / b / c)', '(a / b :mod /)', '(a / b :mod (c / d) / e)', '(a / / b)', '(a // b)',
    # roles, targets and inverse roles
    '(a/b:x(c/d))', '(a / b :x-of "s")', '(a / b :x-of 5 :y-of c :z-of (c / d))',
    '(a / b :-of (c / d))', '(a / b : c)', '(a / b :mod (c / d) :mod (c / e))',
    '(a / b :-of-of (c / d))', '(a / b :-of-of "x")', '(a / b :-of-of-of c)',
    '(a / b :-of- (c / d))', '(a / b :-ofof (c / d))', '(a / b :-of-x (c / d))',
    '(a / b :mod c)', '(a / b :polarity + :value -1.50 :quant ٣)', '(a :x b)', '(1a / b)',
    # nesting at MAX_NESTING and one deeper
    _nested(MAX_NESTING), _nested(MAX_NESTING + 1),
    # empty, comment-only and truncated documents
    "", "  \n\t", "# c", "# c\n  # d\n", "(", "(a", "(a /", "(a / b", "(a / b :", "(a / b :x",
    *(f'(a / b{end}:mod "x{end}y"{end}# c{end}:ARG0 (c / d)){end}' for end in _LINE_ENDS),
]
_PIECES = ["(", ")", "/", ":", '"', "\\", "#", " ", "\t", "\n", "\r", "a", "b", "1", "-",
           "~e.1", "\xa0", "-of", ":ARG0", "(v / c", ":mod", ' "x y" ', "\r\n", "# c\n", "+"]


_NAMELESS = re.compile(r":(?:-of)*")
_NO_NAME = re.compile(rf"at offset (\d+): role '{_NAMELESS.pattern}' has no name")
_OFFSET = re.compile(r"at offset (\d+): ")


def _reads_as_the_reference(text, caplog):
    """``parse_penman_file``'s outcome and warnings equal the reference's,
    except where the reference read a role with no name, which is now an
    error at the role's offset: the reference then read past that offset."""
    new = _read(parse_penman_file, text, caplog)
    old = _read(reference_base.parse_penman_file, text, caplog)
    if new == old:
        return new
    assert new[1] == old[1], text
    (kind, message), outcome = new[0], old[0]
    no_name = _NO_NAME.fullmatch(message) if kind is PenmanSyntaxError else None
    assert no_name, (text, new, old)
    if isinstance(outcome, list):  # read, with the unnamed role or its inverse ':'
        assert any(_NAMELESS.fullmatch(e.role) for g in outcome for e in g.edges), (text, old)
    elif outcome[0] is PenmanSyntaxError:  # an error past the role
        assert int(_OFFSET.match(outcome[1])[1]) > int(no_name[1]), (text, new, old)
    else:  # found once a graph or a node after the role was read
        assert outcome[0] in (DanglingVariableError, DuplicateVariableError), (text, old)
    return new


@pytest.mark.parametrize("text", _SHAPES)
def test_reads_what_the_character_reader_read(text, caplog):
    """The same graphs as the reader that walked the document a character at
    a time, or the same exception type and message (offsets included), and
    the same warnings; a role with no name is the one difference."""
    caplog.set_level(logging.WARNING, logger="xkg.amr")
    _reads_as_the_reference(text, caplog)


@pytest.mark.parametrize("seed", [11, 12])
def test_reads_generated_documents_as_the_character_reader_did(seed, caplog):
    """As above, on generated documents (each ``random_penman_file`` and its
    twin), on strings of PENMAN's significant characters, and on every
    truncation of one document."""
    caplog.set_level(logging.WARNING, logger="xkg.amr")
    rng = random.Random(seed)
    texts = [_FULL[:n] for n in range(len(_FULL) + 1)]
    texts += [text for _ in range(300) for text in random_penman_file(rng)]
    texts += ["".join(rng.choice(_PIECES) for _ in range(rng.randrange(25))) for _ in range(1500)]
    errors = 0
    for text in texts:
        errors += isinstance(_reads_as_the_reference(text, caplog)[0], tuple)
    assert 0.3 < errors / len(texts) < 0.95
