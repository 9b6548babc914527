import random

import pytest

from generators import random_amr_graph, serialize_penman
from isomorphism import amr_isomorphic
from xkg.amr import (
    MAX_NESTING,
    AmrConstant,
    AmrEdge,
    AmrGraph,
    AmrNode,
    DanglingVariableError,
    DuplicateVariableError,
    FRAME_CONCEPT,
    PenmanSyntaxError,
    _invert,
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
        assert graph.concept("a") == "athlete"

    def test_nested_frames(self):
        graph = parse_penman("(c / celebrate-01 :ARG0 (a / athlete) :ARG1 (w / win-01))")
        assert len(graph.nodes) == 3
        assert len(graph.edges) == 2
        assert is_frame(graph.node("c"))
        assert not is_frame(graph.node("a"))
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

    def test_inverse_normalization_can_be_disabled(self):
        graph = parse_penman("(a / athlete :ARG0-of (w / win-01))", normalize_inverse=False)
        (edge,) = graph.edges
        assert edge == AmrEdge("a", ":ARG0-of", "w")

    def test_duplicate_edges_keep_first_occurrence_order(self):
        text = "(w / win-01 :ARG0 (a / athlete :ARG0-of w :mod (t / team)) :ARG0 a :mod t :ARG1 t)"
        expected = (AmrEdge("w", ":ARG0", "a"), AmrEdge("a", ":mod", "t"),
                    AmrEdge("w", ":mod", "t"), AmrEdge("w", ":ARG1", "t"))
        assert parse_penman(text).edges == expected
        raw = parse_penman(text, normalize_inverse=False)
        assert raw.edges == (AmrEdge("a", ":ARG0-of", "w"), AmrEdge("a", ":mod", "t"),
                             AmrEdge("w", ":ARG0", "a"), AmrEdge("w", ":mod", "t"),
                             AmrEdge("w", ":ARG1", "t"))
        assert normalize_inverse_roles(raw).edges == expected

    def test_normalization_is_involution_safe(self):
        graph = parse_penman(
            "(a / athlete :ARG0-of (w / win-01) :mod (t / team))", normalize_inverse=False)
        once = normalize_inverse_roles(graph)
        twice = normalize_inverse_roles(once)
        assert amr_equal(once, twice)

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
        assert graph.concept("c") == "celebrate-01"
        assert graph.concept("a") == "athlete"

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
