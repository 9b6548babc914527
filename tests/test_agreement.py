import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_ratings_table
from oracles import kappa_oracle, krippendorff_oracle, percent_agreement_oracle
from xkg.agreement import (
    AgreementError,
    BadScoreError,
    DuplicateCellError,
    NoDataError,
    NoOverlapError,
    RatingsMatrix,
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
        with pytest.raises(AgreementError, match="after line 1: field larger than"):
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


class TestMeanSd:
    def test_constant_scores(self):
        matrix = matrix_from_table([[4, 4], [4, 4]])
        assert mean_sd(matrix, H) == (4.0, 0.0)

    def test_one_five_population_sd(self):
        matrix = matrix_from_table([[1, 5]])
        assert mean_sd(matrix, H) == (3.0, 2.0)

    def test_no_data(self):
        with pytest.raises(NoDataError):
            mean_sd(matrix_from_table([[1]]), "Other")


class TestPercentAgreement:
    def test_identical_ratings(self):
        matrix = matrix_from_table([[3, 3, 3], [5, 5, 5]])
        assert percent_agreement(matrix, H) == 1.0

    def test_total_disagreement(self):
        matrix = matrix_from_table([[1, 2], [3, 4], [5, 1]])
        assert percent_agreement(matrix, H) == 0.0

    def test_no_overlap(self):
        matrix = matrix_from_table([[1, None], [None, 2]])
        with pytest.raises(NoOverlapError):
            percent_agreement(matrix, H)

    def test_matches_pair_enumeration_oracle(self):
        rng = random.Random(21)
        for _ in range(50):
            table = random_ratings_table(rng, max_raters=5, max_items=10)
            expected = percent_agreement_oracle(table)
            matrix = matrix_from_table(table)
            if expected is None:
                with pytest.raises(NoOverlapError):
                    percent_agreement(matrix, H)
            else:
                assert percent_agreement(matrix, H) == pytest.approx(expected, abs=1e-9)


class TestKappa:
    def test_identical_ratings_with_two_categories(self):
        matrix = matrix_from_table([[1, 1], [5, 5], [1, 1]])
        result = cohen_kappa_pairwise(matrix, H)
        assert all(p.kappa == pytest.approx(1.0) for p in result.pairs)
        assert result.mean == pytest.approx(1.0)

    def test_chance_level_marginals(self):
        # p_o = 0.5 and independent marginals give p_e = 0.5, so kappa = 0.
        matrix = matrix_from_table([[1, 1], [1, 2], [2, 1], [2, 2]])
        result = cohen_kappa_pairwise(matrix, H)
        assert result.mean == pytest.approx(0.0)

    def test_degenerate_pair_reported(self):
        matrix = matrix_from_table([[2, 2], [2, 2]])
        result = cohen_kappa_pairwise(matrix, H)
        assert result.pairs[0].kappa is None
        assert result.mean is None

    def test_pairs_with_few_shared_items_dropped(self):
        matrix = matrix_from_table([[1, 1, 1], [2, 2, None], [3, 3, None]])
        result = cohen_kappa_pairwise(matrix, H)
        names = {(p.annotator_a, p.annotator_b) for p in result.pairs}
        assert names == {("rater0", "rater1")}

    def test_no_overlap(self):
        matrix = matrix_from_table([[1, None], [None, 2]])
        with pytest.raises(NoOverlapError):
            cohen_kappa_pairwise(matrix, H)

    def test_matches_confusion_matrix_oracle(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            table = random_ratings_table(rng, max_raters=3, max_items=12)
            matrix = matrix_from_table(table)
            try:
                result = cohen_kappa_pairwise(matrix, H)
            except NoOverlapError:
                continue
            for pair in result.pairs:
                a = int(pair.annotator_a.removeprefix("rater"))
                b = int(pair.annotator_b.removeprefix("rater"))
                expected = kappa_oracle(table, a, b)
                if pair.kappa is None:
                    assert expected is None
                else:
                    checked += 1
                    assert pair.kappa == pytest.approx(expected, abs=1e-9)
        assert checked > 20


class TestAlpha:
    def test_perfect_agreement_two_categories(self):
        matrix = matrix_from_table([[1, 1], [5, 5]])
        result = krippendorff_alpha(matrix, H)
        assert result.value == pytest.approx(1.0)
        assert not result.degenerate

    def test_single_item_one_five_matches_oracle(self):
        table = [[1, 5]]
        result = krippendorff_alpha(matrix_from_table(table), H)
        assert result.value == pytest.approx(krippendorff_oracle(table), abs=1e-12)

    def test_degenerate_when_all_identical(self):
        matrix = matrix_from_table([[4, 4], [4, 4]])
        result = krippendorff_alpha(matrix, H)
        assert result.value == 1.0
        assert result.degenerate

    def test_requires_pairable_values(self):
        matrix = matrix_from_table([[1, None], [None, 3]])
        with pytest.raises(NoDataError):
            krippendorff_alpha(matrix, H)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(41)
        for _ in range(100):
            table = random_ratings_table(rng)
            expected = krippendorff_oracle(table)
            matrix = matrix_from_table(table)
            if expected is None:
                with pytest.raises(NoDataError):
                    krippendorff_alpha(matrix, H)
            else:
                assert krippendorff_alpha(matrix, H).value == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_permutation_invariance(self, seed):
        rng = random.Random(seed)
        table = random_ratings_table(rng, max_raters=4, max_items=8)
        if krippendorff_oracle(table) is None:
            return
        matrix = matrix_from_table(table)
        shuffled_rows = list(table)
        rng.shuffle(shuffled_rows)
        permuted_cols = [list(reversed(row)) for row in shuffled_rows]
        permuted = matrix_from_table(permuted_cols)
        assert krippendorff_alpha(matrix, H).value == pytest.approx(
            krippendorff_alpha(permuted, H).value, abs=1e-12)
        try:
            k1 = cohen_kappa_pairwise(matrix, H).mean
            k2 = cohen_kappa_pairwise(permuted, H).mean
        except NoOverlapError:
            return
        if k1 is not None and k2 is not None:
            assert k1 == pytest.approx(k2, abs=1e-12)


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
