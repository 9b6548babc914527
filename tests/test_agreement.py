import hashlib
import json
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_ratings
from generators import random_ratings_table
from oracles import kappa_oracle, krippendorff_oracle, percent_agreement_oracle
from strategies import ratings_csv_texts
from xkg.agreement import (
    AgreementError,
    BadScoreError,
    DuplicateCellError,
    NoDataError,
    RatingsMatrix,
    annotator_means,
    build_report,
    cohen_kappa_pairwise,
    krippendorff_alpha,
    load_ratings,
    mean_sd,
    percent_agreement,
)

H = "SomeHeuristic"


def matrix_from_table(table, heuristic=H) -> RatingsMatrix:
    matrix = RatingsMatrix()
    for i, row in enumerate(table):
        for j, value in enumerate(row):
            matrix.add(f"item{i}", heuristic, f"rater{j}", value)
    return matrix


class TestLoadRatings:
    def write(self, tmp_path, body):
        path = tmp_path / "ratings.csv"
        path.write_text("item_id,heuristic,annotator,score\n" + body, encoding="utf-8")
        return path

    def test_single_row(self, tmp_path):
        matrix = load_ratings(self.write(tmp_path, "i1,H,a1,4\n"))
        assert list(matrix.item_heuristic) == ["i1"]
        assert matrix.annotators == ["a1"]
        assert matrix.rows("H") == [[4]]

    def test_duplicate_cell(self, tmp_path):
        with pytest.raises(DuplicateCellError):
            load_ratings(self.write(tmp_path, "i1,H,a1,4\ni1,H,a1,5\n"))

    def test_bad_score(self, tmp_path):
        with pytest.raises(BadScoreError):
            load_ratings(self.write(tmp_path, "i1,H,a1,6\n"))
        with pytest.raises(BadScoreError):
            load_ratings(self.write(tmp_path, "i1,H,a1,x\n"))

    def test_missing_scores_allowed(self, tmp_path):
        matrix = load_ratings(self.write(tmp_path, "i1,H,a1,\ni1,H,a2,3\n"))
        assert matrix.rows("H") == [[None, 3]]

    def test_item_in_two_heuristics_rejected(self, tmp_path):
        with pytest.raises(AgreementError):
            load_ratings(self.write(tmp_path, "i1,H1,a1,4\ni1,H2,a2,4\n"))

    def test_annotator_heuristic_means_grid(self, tmp_path):
        rows = []
        for h in range(11):
            for a in range(5):
                rows.append(f"item{h},Heur{h},rater{a},{(h + a) % 5 + 1}")
        matrix = load_ratings(self.write(tmp_path, "\n".join(rows) + "\n"))
        report = build_report(matrix)
        cells = sum(len(stats.annotator_means) for stats in report.heuristics)
        assert cells == 55

    def test_short_row_rejected(self, tmp_path):
        with pytest.raises(AgreementError, match="row 3: not as many fields as the header"):
            load_ratings(self.write(tmp_path, "i1,H,a1,4\na,h\n"))

    def test_unterminated_quote_rejected(self, tmp_path):
        with pytest.raises(AgreementError, match="row 2"):
            load_ratings(self.write(tmp_path, 'i1,H,"a1,4\ni2,H,a2,5\n'))

    def test_extra_field_rejected(self, tmp_path):
        with pytest.raises(AgreementError, match="row 2: not as many fields as the header"):
            load_ratings(self.write(tmp_path, "i1,H,a1,4,oops\n"))

    def test_extra_header_column_ignored(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("item_id,heuristic,annotator,score,note\ni1,H,a1,4,fine\n",
                        encoding="utf-8")
        assert load_ratings(path).rows("H") == [[4]]

    @pytest.mark.parametrize("header", ["item_id,heuristic,annotator,score,score",
                                        "score,item_id,heuristic,annotator,score"])
    def test_duplicate_required_column_rejected(self, tmp_path, header):
        path = tmp_path / "ratings.csv"
        path.write_text(header + "\ni1,H,a1,4,2\n", encoding="utf-8")
        with pytest.raises(AgreementError, match="header names column 'score' more than once"):
            load_ratings(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_bytes("\ufeffitem_id,heuristic,annotator,score\ni1,H,a1,4\n".encode("utf-8"))
        assert load_ratings(path).rows("H") == [[4]]

    def test_oversized_field_is_named_error(self, tmp_path):
        with pytest.raises(AgreementError, match="^ratings CSV line 2: field larger than"):
            load_ratings(self.write(tmp_path, "i1,H,a1," + "x" * 200_000 + "\n"))

    def test_first_appearance_order(self, tmp_path):
        matrix = load_ratings(self.write(tmp_path, "b,H,z,1\na,H,y,2\n"))
        assert list(matrix.item_heuristic) == ["b", "a"]
        assert matrix.annotators == ["z", "y"]

    def test_rows_are_the_dense_table_per_heuristic(self, tmp_path):
        matrix = load_ratings(self.write(
            tmp_path, "x,G,b,5\np,H,a,1\nq,H,b,2\np,H,b,\nx,G,a,4\nq,H,c,3\n"))
        assert matrix.heuristics() == ["G", "H"]
        assert matrix.annotators == ["b", "a", "c"]
        assert matrix.rows("G") == [[5, 4, None]]
        assert matrix.rows("H") == [[None, 1, None], [2, None, 3]]
        assert matrix.rows("Unknown") == []

    def test_rows_equal_the_oracle_table(self):
        rng = random.Random(71)
        for _ in range(20):
            table = random_ratings_table(rng)
            assert matrix_from_table(table).rows(H) == table

    @pytest.mark.parametrize("text", ["+4", "04", " 4 ", "\u0664"])
    def test_scores_are_integers_as_int_reads_them(self, tmp_path, text):
        assert load_ratings(self.write(tmp_path, f"i1,H,a1,{text}\n")).rows("H") == [[4]]

    @pytest.mark.parametrize("text", ["4.0", "four"])
    def test_other_score_forms_are_bad(self, tmp_path, text):
        with pytest.raises(BadScoreError, match=f"row 2: score {text!r} is not an integer"):
            load_ratings(self.write(tmp_path, f"i1,H,a1,{text}\n"))

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        path = self.write(tmp_path, "\ni1,H,a1,4\n\n\ni2,H,a1,x\n\n")
        with pytest.raises(BadScoreError, match="row 3: score 'x'"):
            load_ratings(path)

    def test_csv_error_names_the_line_dict_reader_named(self, tmp_path):
        # The line the reader failed on (csv.reader.line_num): a quoted
        # field fails on the line where it passes the size limit.
        big = "x" * 200_000
        for body, line in [("i1,H,a1,4\n\n\ni2,H,a2,4\n" + big, 6),
                           ("i1,H,a1,4\n\n\n" + big, 5), ("\n" + big, 3), (big, 2),
                           ('i1,H,"a\nb\n' + big + '",4', 4),
                           ('i1,H,"a\nb\n\n' + big + '\nc",4', 5)]:
            path = self.write(tmp_path, body + "\n")
            with pytest.raises(AgreementError) as raised:
                load_ratings(path)
            assert str(raised.value) == (
                f"ratings CSV line {line}: field larger than field limit (131072)")

    def test_many_annotators_keep_first_appearance_order(self, tmp_path):
        names = [f"rater{(n * 7919) % 300:03d}" for n in range(300)]
        body = "".join(f"i{k},H,{name},{k % 5 + 1}\n" for k in (0, 1) for name in names)
        matrix = load_ratings(self.write(tmp_path, body))
        assert matrix.annotators == names
        assert matrix.rows("H") == [[1] * 300, [2] * 300]

    def test_add_knows_the_annotators_the_matrix_was_built_with(self):
        matrix = RatingsMatrix(annotators=["a", "b"])
        matrix.add("i1", H, "b", 3)
        matrix.add("i1", H, "c", 4)
        assert matrix.annotators == ["a", "b", "c"]
        assert matrix.rows(H) == [[None, 3, 4]]


def _loaded(load, path):
    """What a loader gives: the matrix's repr, which also shows the order
    of every dict, or the error's type and message. A CSV reader error's
    message is kept from the text after its line number, which the two
    loaders count differently (``test_csv_error_names_the_line_dict_reader_named``
    pins the line)."""
    try:
        return repr(load(path))
    except AgreementError as exc:
        return type(exc), re.sub(r"^ratings CSV (after )?line \d+: ", "ratings CSV error: ",
                                 str(exc))


class TestLoaderAgreesWithReference:
    """``load_ratings`` gives what the ``csv.DictReader`` loader it replaced
    (tests/reference_ratings.py) gives: an equal matrix, or an error of the
    same type with the same message, but for a CSV reader error's line."""

    def check(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        assert _loaded(load_ratings, path) == _loaded(reference_ratings.load_ratings, path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ratings_csv_texts())
    def test_generated_files(self, tmp_path, text):
        self.check(tmp_path / "ratings.csv", text)

    HEADER = "item_id,heuristic,annotator,score"
    CASES = {
        "empty file": "",
        "BOM and CRLF": f"\ufeff{HEADER}\r\ni1,H,a,4\r\ni1,H,b,5\r\n",
        "blank lines before, between and after rows":
            f"{HEADER}\n\ni1,H,a,4\n\n\ni1,H,b,3\n\n\n",
        "blank line before the header": f"\n{HEADER}\ni1,H,a,4\n",
        "quoted comma and line end": f'{HEADER}\n"i,1",H,"a\nb",4\n',
        "unclosed quote": f'{HEADER}\ni1,H,"a,4\ni2,H,b,5\n',
        "extra columns in any order": "note,score,annotator,x,heuristic,item_id\nn,4,a,,H,i1\n",
        "header names a column twice": "item_id,heuristic,annotator,score,annotator\ni1,H,a,4,b\n",
        "header without score": "item_id,heuristic,annotator\ni1,H,a\n",
        "short row": f"{HEADER}\ni1,H,a,4\n\ni1,H\n",
        "long row": f"{HEADER}\ni1,H,a,4,5\n",
        "scores int() reads": f"{HEADER}\ni1,H,a,+4\ni1,H,b,04\ni1,H,c, 4 \ni1,H,d,\u0664\n",
        "score 4.0": f"{HEADER}\ni1,H,a,4.0\n",
        "score x": f"{HEADER}\ni1,H,a,x\n",
        "score 6": f"{HEADER}\ni1,H,a,6\n",
        "blank score": f"{HEADER}\ni1,H,a,\ni1,H,b, \n",
        "oversized field after blank lines":
            f"{HEADER}\ni1,H,a,4\n\n\ni1,H,b,4\n{'x' * 200_000}\n",
        "oversized header field": "x" * 200_000 + "\n",
    }

    @pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
    def test_listed_forms(self, tmp_path, text):
        self.check(tmp_path / "ratings.csv", text)


def raters(table) -> list[str]:
    return [f"rater{j}" for j in range(len(table[0]))]


def assert_equal_or_none(got, want, abs=1e-9):
    """``got`` is ``None`` exactly where ``want`` is, and close to it elsewhere."""
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, abs=abs)


def direct_mean_sd(table):
    values = [v for row in table for v in row if v is not None]
    if not values:
        return None
    mean = sum(values) / len(values)
    return mean, (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def expected_kappas(table) -> dict:
    """The oracle kappa of each column pair sharing at least two rows."""
    width = len(table[0])
    return {(a, b): kappa_oracle(table, a, b)
            for a in range(width) for b in range(a + 1, width)
            if sum(row[a] is not None and row[b] is not None for row in table) >= 2}


class TestMeanSd:
    def test_constant_scores(self):
        assert mean_sd([[4, 4], [4, 4]]) == (4.0, 0.0)

    def test_one_five_population_sd(self):
        assert mean_sd([[1, 5]]) == (3.0, 2.0)

    def test_no_data(self):
        assert mean_sd([]) is None
        assert mean_sd([[None, None], [None, None]]) is None

    def test_matches_direct_computation(self):
        rng = random.Random(11)
        for _ in range(50):
            table = random_ratings_table(rng, missing_rate=rng.choice([0.1, 0.6, 1.0]))
            expected = direct_mean_sd(table)
            got = mean_sd(table)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-9)


class TestAnnotatorMeans:
    def test_annotators_without_a_score_are_left_out(self):
        table = [[1, None, 4], [3, None, None]]
        assert annotator_means(["a", "b", "c"], table) == {"a": 2.0, "c": 4.0}
        assert annotator_means(["a", "b"], []) == {}


class TestPercentAgreement:
    def test_identical_ratings(self):
        assert percent_agreement([[3, 3, 3], [5, 5, 5]]) == 1.0

    def test_total_disagreement(self):
        assert percent_agreement([[1, 2], [3, 4], [5, 1]]) == 0.0

    def test_no_overlap(self):
        table = [[1, None], [None, 2]]
        assert percent_agreement_oracle(table) is None
        assert percent_agreement(table) is None

    def test_matches_pair_enumeration_oracle(self):
        rng = random.Random(21)
        for _ in range(50):
            table = random_ratings_table(rng, max_raters=5, max_items=10,
                                         missing_rate=rng.choice([0.1, 0.7]))
            assert_equal_or_none(percent_agreement(table), percent_agreement_oracle(table))


class TestKappa:
    def test_identical_ratings_with_two_categories(self):
        table = [[1, 1], [5, 5], [1, 1]]
        result = cohen_kappa_pairwise(raters(table), table)
        assert all(p.kappa == pytest.approx(1.0) for p in result.pairs)
        assert result.mean == pytest.approx(1.0)

    def test_chance_level_marginals(self):
        # p_o = 0.5 and independent marginals give p_e = 0.5, so kappa = 0.
        table = [[1, 1], [1, 2], [2, 1], [2, 2]]
        assert cohen_kappa_pairwise(raters(table), table).mean == pytest.approx(0.0)

    def test_degenerate_pair_reported(self):
        table = [[2, 2], [2, 2]]
        result = cohen_kappa_pairwise(raters(table), table)
        assert kappa_oracle(table, 0, 1) is None
        assert result.pairs[0].kappa is None
        assert result.mean is None

    def test_pairs_with_few_shared_items_dropped(self):
        table = [[1, 1, 1], [2, 2, None], [3, 3, None]]
        result = cohen_kappa_pairwise(raters(table), table)
        names = {(p.annotator_a, p.annotator_b) for p in result.pairs}
        assert names == {("rater0", "rater1")}

    def test_no_overlap(self):
        table = [[1, None], [None, 2]]
        assert expected_kappas(table) == {}
        assert cohen_kappa_pairwise(raters(table), table) is None

    def test_matches_confusion_matrix_oracle(self):
        rng = random.Random(31)
        checked = undefined = 0
        for _ in range(60):
            table = random_ratings_table(rng, max_raters=3, max_items=12,
                                         missing_rate=rng.choice([0.1, 0.6]))
            expected = expected_kappas(table)
            result = cohen_kappa_pairwise(raters(table), table)
            if not expected:
                undefined += 1
                assert result is None
                continue
            got = {(int(p.annotator_a.removeprefix("rater")),
                    int(p.annotator_b.removeprefix("rater"))): p.kappa for p in result.pairs}
            assert got.keys() == expected.keys()
            for pair, kappa in got.items():
                checked += kappa is not None
                assert_equal_or_none(kappa, expected[pair])
            defined = [k for k in expected.values() if k is not None]
            assert_equal_or_none(result.mean, sum(defined) / len(defined) if defined else None)
        assert checked > 20 and undefined > 0


class TestAlpha:
    def test_perfect_agreement_two_categories(self):
        result = krippendorff_alpha([[1, 1], [5, 5]])
        assert result.value == pytest.approx(1.0)
        assert not result.degenerate

    def test_single_item_one_five_matches_oracle(self):
        table = [[1, 5]]
        assert krippendorff_alpha(table).value == pytest.approx(krippendorff_oracle(table),
                                                                abs=1e-12)

    def test_degenerate_when_all_identical(self):
        result = krippendorff_alpha([[4, 4], [4, 4]])
        assert result.value == 1.0
        assert result.degenerate

    def test_requires_pairable_values(self):
        table = [[1, None], [None, 3]]
        assert krippendorff_oracle(table) is None
        assert krippendorff_alpha(table) is None

    def test_matches_brute_force_oracle(self):
        rng = random.Random(41)
        for _ in range(100):
            table = random_ratings_table(rng, missing_rate=rng.choice([0.1, 0.8]))
            result = krippendorff_alpha(table)
            assert_equal_or_none(None if result is None else result.value,
                                 krippendorff_oracle(table))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_permutation_invariance(self, seed):
        rng = random.Random(seed)
        table = random_ratings_table(rng, max_raters=4, max_items=8)
        if krippendorff_oracle(table) is None:
            return
        shuffled_rows = list(table)
        rng.shuffle(shuffled_rows)
        permuted = [list(reversed(row)) for row in shuffled_rows]
        assert krippendorff_alpha(table).value == pytest.approx(
            krippendorff_alpha(permuted).value, abs=1e-12)
        k1 = cohen_kappa_pairwise(raters(table), table)
        k2 = cohen_kappa_pairwise(raters(permuted), permuted)
        assert (k1 is None) == (k2 is None)
        if k1 is not None:
            assert_equal_or_none(k1.mean, k2.mean, abs=1e-12)


class TestReport:
    def test_report_bounds_and_shape(self):
        rng = random.Random(61)
        matrix = RatingsMatrix()
        for h in ("A", "B"):
            for i in range(6):
                for a in range(3):
                    value = rng.randrange(1, 6) if rng.random() > 0.1 else None
                    matrix.add(f"{h}-{i}", h, f"rater{a}", value)
        report = build_report(matrix)
        assert [s.heuristic for s in report.heuristics] == ["A", "B"]
        for stats in report.heuristics:
            assert 1.0 <= stats.mean <= 5.0
            assert stats.sd >= 0.0
            if stats.krippendorff_alpha is not None:
                assert stats.krippendorff_alpha <= 1.0
        table = report.format_table()
        assert "Heuristic" in table and "Alpha" in table
        assert report.to_dict()["annotators"] == matrix.annotators

    def test_heuristic_order_pinned(self):
        matrix = RatingsMatrix()
        matrix.add("x", "Zeta", "a", 3)
        matrix.add("y", "Alpha", "a", 3)
        report = build_report(matrix, heuristic_order=["Alpha", "Zeta"])
        assert [s.heuristic for s in report.heuristics] == ["Alpha", "Zeta"]

    def test_a_heuristic_named_twice_in_the_order_has_one_row(self):
        matrix = RatingsMatrix()
        matrix.add("x", "Zeta", "a", 3)
        matrix.add("y", "Alpha", "a", 3)
        report = build_report(matrix, heuristic_order=["Zeta", "Zeta", "Alpha", "Zeta"])
        assert [s.heuristic for s in report.heuristics] == ["Zeta", "Alpha"]


def random_heuristic_table(rng: random.Random, width: int):
    """A random table ``width`` wide, of one of the kinds a report must
    handle: scattered blanks, no two scores on one item, or one score
    everywhere (degenerate kappa and alpha)."""
    items = rng.randrange(1, 9)
    kind = rng.choice(["sparse", "dense", "no-overlap", "constant"])
    if kind == "no-overlap":
        table = [[None] * width for _ in range(items)]
        for row in table:
            row[rng.randrange(width)] = rng.randrange(1, 6)
        return table
    if kind == "constant":
        score = rng.randrange(1, 6)
        return [[score if rng.random() > 0.2 else None for _ in range(width)]
                for _ in range(items)]
    missing = 0.6 if kind == "sparse" else 0.1
    return [[None if rng.random() < missing else rng.randrange(1, 6) for _ in range(width)]
            for _ in range(items)]


def scored_table(rng: random.Random, width: int):
    """``random_heuristic_table`` with at least one score."""
    while direct_mean_sd(table := random_heuristic_table(rng, width)) is None:
        pass
    return table


def matrix_of(tables: dict, rng: random.Random) -> RatingsMatrix:
    """The matrix holding every cell of ``tables`` (heuristic -> table),
    items of different heuristics interleaved, so ``rows`` gives each
    table back."""
    queues = {h: [(f"{h}-{i}", row) for i, row in enumerate(table)]
              for h, table in tables.items()}
    matrix = RatingsMatrix()
    while queues:
        h = rng.choice(sorted(queues))
        item, row = queues[h].pop(0)
        if not queues[h]:
            del queues[h]
        for j, value in enumerate(row):
            matrix.add(item, h, f"rater{j}", value)
    return matrix


class TestReportMatchesOracles:
    def test_every_field_equals_the_oracle(self):
        rng = random.Random(91)
        kinds = {"no percent": 0, "no kappa": 0, "degenerate kappa": 0, "no alpha": 0,
                 "degenerate alpha": 0}
        for _ in range(150):
            width = rng.randrange(2, 5)
            tables = {f"H{k}": scored_table(rng, width) for k in range(rng.randrange(1, 5))}
            matrix = matrix_of(tables, rng)
            assert matrix.annotators == [f"rater{j}" for j in range(width)]
            report = build_report(matrix)
            assert report.annotators == matrix.annotators
            assert sorted(s.heuristic for s in report.heuristics) == sorted(tables)
            for stats in report.heuristics:
                table = tables[stats.heuristic]
                assert matrix.rows(stats.heuristic) == table
                mean, sd = direct_mean_sd(table)
                kappas = [k for k in expected_kappas(table).values() if k is not None]
                alpha = krippendorff_oracle(table)
                pairable = {v for row in table if sum(v is not None for v in row) >= 2
                            for v in row if v is not None}
                assert stats.items == len(table)
                assert stats.mean == pytest.approx(mean, abs=1e-9)
                assert stats.sd == pytest.approx(sd, abs=1e-9)
                assert_equal_or_none(stats.percent_agreement, percent_agreement_oracle(table))
                assert_equal_or_none(stats.mean_kappa,
                                     sum(kappas) / len(kappas) if kappas else None)
                assert_equal_or_none(stats.krippendorff_alpha, alpha)
                assert stats.alpha_degenerate == (len(pairable) == 1)
                columns = {f"rater{j}": [row[j] for row in table if row[j] is not None]
                           for j in range(width)}
                assert stats.annotator_means == pytest.approx(
                    {a: sum(v) / len(v) for a, v in columns.items() if v}, abs=1e-9)
                kinds["no percent"] += stats.percent_agreement is None
                kinds["no kappa"] += not expected_kappas(table)
                kinds["degenerate kappa"] += None in expected_kappas(table).values()
                kinds["no alpha"] += alpha is None
                kinds["degenerate alpha"] += stats.alpha_degenerate
        assert all(kinds.values()), kinds

    def test_all_blank_heuristic_raises_no_data(self):
        rng = random.Random(93)
        for _ in range(20):
            width = rng.randrange(2, 5)
            tables = {"H0": scored_table(rng, width),
                      "Blank": [[None] * width for _ in range(rng.randrange(1, 4))],
                      "H1": scored_table(rng, width)}
            with pytest.raises(NoDataError) as caught:
                build_report(matrix_of(tables, rng))
            assert caught.value.heuristic == "Blank"


def random_reports_digest(count: int) -> str:
    """The SHA-256 of ``count`` reports' ``json.dumps(indent=2)`` bytes, on
    seeded matrices of 2 to 9 annotators with missing scores. Over three
    annotators, unit weights such as 1/3 and 1/5 are not exact in binary, so
    the bytes pin the order in which each sum adds its terms."""
    rng = random.Random(1709)
    digest = hashlib.sha256()
    for _ in range(count):
        width = rng.randrange(2, 10)
        tables = {f"H{k}": scored_table(rng, width) for k in range(rng.randrange(1, 4))}
        report = build_report(matrix_of(tables, rng))
        digest.update(json.dumps(report.to_dict(), indent=2).encode("utf-8"))
    return digest.hexdigest()


def test_report_bytes_on_random_matrices_are_pinned():
    # Recorded with the implementation before krippendorff_alpha iterated
    # itertools.permutations (the index double loop).
    assert random_reports_digest(400) == (
        "950f07921740f244d8fc376e2165692bb62efd776d0a27b95a776b60b13dec8e")
