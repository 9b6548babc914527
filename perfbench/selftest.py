"""Self-tests of the benchmark itself; they run in seconds and no workload.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def temp_dir() -> Path:
    run.WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.WORK_ROOT, prefix="selftest-"))


class GeneratorTests(unittest.TestCase):
    def test_scenes_repeat_for_a_seed_and_change_with_it(self):
        for index in (0, 1, 7):
            first, again = inputs.make_scene(5, index), inputs.make_scene(5, index)
            self.assertEqual((first.penman, first.responses, first.added, first.kinds),
                             (again.penman, again.responses, again.added, again.kinds))
            other = inputs.make_scene(6, index)
            self.assertNotEqual((first.penman, first.responses), (other.penman, other.responses))

    def test_sizes_are_stratified_per_block(self):
        sizes = [inputs.scene_size(9, i) for i in range(8)]
        lo, hi = inputs.SIZE_RANGE
        width = (hi - lo) / inputs.SIZE_STRATA
        self.assertEqual(sorted(int((s - lo) // width) for s in sizes), list(range(8)))

    def test_response_mix_shares(self):
        kinds = [k for i in range(4) for k in inputs.make_scene(3, i).kinds.values()]
        self.assertEqual({k: kinds.count(k) for k in set(kinds)},
                         {"clean": 30, "fenced": 6, "prose": 4, "floating": 2, "unparseable": 2})

    def test_ratings_and_large_graph_repeat_and_change(self):
        scene = inputs.make_scene(1, 0)
        rated = {h: sorted(t) for h, t in scene.added.items()}
        self.assertEqual(inputs.make_ratings(1, rated), inputs.make_ratings(1, rated))
        self.assertNotEqual(inputs.make_ratings(1, rated), inputs.make_ratings(2, rated))

        corpus = run.Context.load_test_module("corpus").build_corpus()
        first = inputs.make_large_graph(4, corpus, scale=2)
        self.assertEqual(first.base, inputs.make_large_graph(4, corpus, scale=2).base)
        self.assertNotEqual(first.base, inputs.make_large_graph(5, corpus, scale=2).base)
        self.assertEqual(len(first.base), 2 * len(corpus.base.triples))
        self.assertEqual(inputs.make_document(4, 50), inputs.make_document(4, 50))
        self.assertNotEqual(inputs.make_document(4, 50), inputs.make_document(5, 50))

    def test_reader_reads_the_writer(self):
        triples = sorted(inputs.make_scene(2, 3).merged_additions)
        for prefixed in (True, False):
            self.assertEqual(checks.read_turtle(inputs.write_turtle(triples, prefixed)),
                             frozenset(triples))


class CorruptionTests(unittest.TestCase):
    """A scene run through the CLI passes; each corruption of it fails."""

    @classmethod
    def setUpClass(cls):
        cls.work = temp_dir()
        logging.getLogger().addHandler(logging.NullHandler())
        cls.ctx = run.Context(1, cls.work)
        cls.scene = next(s for s in (inputs.make_scene(1, i) for i in range(8))
                         if s.quarantined and s.nodes < 60)
        paths = inputs.write_scene(cls.scene, cls.work / "scene")
        cls.out = cls.work / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            cls.code = cls.ctx.cli.main(["run", "--mock", "--config", str(paths["config"]),
                                         "--text", str(paths["text"]), "--amr", str(paths["amr"]),
                                         "--out", str(cls.out)])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def check(self, out=None, code=None):
        return checks.check_scene_outputs(self.scene, out or self.out,
                                          self.code if code is None else code,
                                          self.ctx.ontology, self.ctx.oracles)

    def corrupted_copy(self) -> Path:
        copy = self.work / f"copy-{len(list(self.work.iterdir()))}"
        shutil.copytree(self.out, copy)
        return copy

    def test_clean_output_passes(self):
        self.assertEqual(self.code, 1)
        self.assertEqual(self.check(), [])

    def test_wrong_exit_code_fails(self):
        self.assertTrue(self.check(code=0))

    def test_dropped_triple_fails(self):
        copy = self.corrupted_copy()
        merged = copy / "xkg-merged.ttl"
        lines = merged.read_text(encoding="utf-8").splitlines(keepends=True)
        victim = next(i for i, line in enumerate(lines)
                      if line.strip().endswith(" .") and not line.startswith("@prefix"))
        merged.write_text("".join(lines[:victim] + lines[victim + 1:]), encoding="utf-8")
        self.assertTrue(self.check(copy))

    def test_flipped_quarantine_fails(self):
        copy = self.corrupted_copy()
        path = copy / "diagnostics.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        name = next(iter(self.scene.quarantined))
        report[name]["quarantined"] = False
        path.write_text(json.dumps(report), encoding="utf-8")
        self.assertTrue(self.check(copy))

    def test_wrong_precedence_fails(self):
        copy = self.corrupted_copy()
        path = copy / "validation-report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["precedence"]["inferred"].append(["http://x.example/a", "http://x.example/b"])
        path.write_text(json.dumps(report), encoding="utf-8")
        self.assertTrue(self.check(copy))

    def test_wrong_agreement_statistic_fails(self):
        rows = inputs.make_ratings(1, {h: sorted(t) for h, t in self.scene.added.items()})
        ratings = self.work / "ratings.csv"
        inputs.write_ratings(rows, ratings)
        out = self.work / "agree"
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(self.ctx.cli.main(["agree", "--ratings", str(ratings), "--out", str(out)]), 0)
        report = out / "agreement-report.json"
        self.assertEqual(checks.check_agreement(report, rows, self.ctx.oracles), [])
        data = json.loads(report.read_text(encoding="utf-8"))
        data["heuristics"][0]["krippendorff_alpha"] += 1e-6
        report.write_text(json.dumps(data), encoding="utf-8")
        self.assertTrue(checks.check_agreement(report, rows, self.ctx.oracles))

    def test_tally_counts_a_failed_operation(self):
        tally = run.Tally()
        with contextlib.redirect_stderr(io.StringIO()):
            tally([])
            tally(["something differs"])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


class SelfTimeTests(unittest.TestCase):
    def test_self_time_on_a_span_tree(self):
        S = tracing.Span
        root = S("bench.scene", 0.0, 10.0, None, 1)
        a = S("cli.main", 1.0, 4.0, root, 1)
        b = S("backends.HttpBackend.complete", 3.0, 6.0, root, 1)  # overlaps a: another thread
        leaf = S("rdf.parse_turtle", 2.0, 3.0, a, 1)
        selfs = tracing.self_times([root, a, b, leaf])
        self.assertEqual([selfs[id(s)] for s in (root, a, b, leaf)], [5.0, 2.0, 3.0, 1.0])

    def test_outermost_and_in_flight(self):
        S = tracing.Span
        outer = S("amr.parse_penman_file", 0.0, 2.0, None, 1)
        inner = S("amr.parse_penman", 0.5, 1.5, outer, 1)
        alone = S("amr.parse_penman", 3.0, 3.5, None, 1)
        ms, count = tracing.outermost_ms([outer, inner, alone],
                                         {"amr.parse_penman_file", "amr.parse_penman"})
        self.assertEqual((round(ms, 6), count), (2500.0, 2))
        self.assertEqual(tracing.max_in_flight([outer, inner, alone]), 2)
        self.assertEqual(tracing.covered([(0, 2), (1, 3), (5, 9)], 1, 6), 3)


class SpeedTests(unittest.TestCase):
    def test_scaled_by_the_mean_of_the_bracketing_kernel_times(self):
        kernel_times = iter([0.004, 0.006, 0.005])
        saved = reference.measure
        reference.measure = lambda: next(kernel_times)
        try:
            speed = reference.Speed()
            first = speed.scale(2.0, speed.before())       # kernel 0.004 before, 0.006 after
            second = speed.scale(1.0, speed.before())      # reuses 0.006, then 0.005
        finally:
            reference.measure = saved
        self.assertAlmostEqual(first, 2.0 * reference.REFERENCE_S / 0.005)
        self.assertAlmostEqual(second, 1.0 * reference.REFERENCE_S / 0.0055)


class PeakRssTests(unittest.TestCase):
    def test_child_does_not_count_the_parents_memory(self):
        import workloads

        held = bytearray(128 << 20)
        held[::4096] = b"x" * len(held[::4096])  # resident, not just reserved
        report = workloads.child_peak_rss(["cli", "[]"], ROOT / "src")
        del held
        self.assertEqual(report["codes"], [])
        self.assertGreater(report["peak_rss_kb"], 1 << 10)
        self.assertLess(report["peak_rss_kb"], 64 << 10)


class WrapperTests(unittest.TestCase):
    @staticmethod
    def snapshot() -> dict:
        state = {}
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "xkg" or name.startswith("xkg.")):
                for attr, value in vars(module).items():
                    state[(name, attr)] = value
                    if isinstance(value, type):
                        for key, member in vars(value).items():
                            state[(name, attr, key)] = member
        return state

    def test_install_then_uninstall_restores_every_binding(self):
        import xkg.cli
        import xkg.rdf

        before = self.snapshot()
        tracer = tracing.Tracer()
        with tracer.installed():
            during = self.snapshot()
            self.assertIsNot(xkg.cli.parse_turtle, before[("xkg.cli", "parse_turtle")])
            self.assertIsNot(xkg.rdf.parse_turtle, before[("xkg.rdf", "parse_turtle")])
            text = "<http://x.example/a> <http://x.example/p> 1 ."
            xkg.rdf.parse_turtle(text)  # outside an operation: not recorded
            with tracer.op(1, "scene"):
                graph = xkg.cli.parse_turtle(text)
            self.assertEqual(len(graph.triples), 1)
        after = self.snapshot()
        self.assertGreater(sum(1 for k in before if during[k] is not before[k]), 30)
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if after[k] is not before[k]], [])
        self.assertEqual([s.name for s in tracer.spans], ["rdf.parse_turtle", "bench.scene"])
        self.assertGreater(tracer.counters["rdf.parse_turtle.bytes"], 0)


class LayoutTests(unittest.TestCase):
    def test_fails_without_the_repository(self):
        bare = temp_dir()
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            result = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "scenes-mock",
                                     "--seed", "1", "--seconds", "1", "--trace", "0"],
                                    cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn("metrics", result.stdout)


if __name__ == "__main__":
    unittest.main()
