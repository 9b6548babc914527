"""Benchmark entry point.

    python3 perfbench/run.py --workload scenes-mock --seed 1 --seconds 40 --trace 0

Run from the repository root. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics. With ``--trace 1`` the
run times each operation untraced and traced; the object holds the
per-layer metrics and the tracing overhead, and the spans are written to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import logging
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import reference
import tracing
from workloads import WORKLOADS, measure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK_ROOT = ROOT / ".perfbench-work"
TRACE_DIR = ROOT / ".perfbench-out"

SETUP_SAMPLES = 11
AGREE_SAMPLES = 25

# What a user waits for before the first command does any work: a fresh
# interpreter imports the CLI and loads the default config, the maps, the
# mini ontology and the mock directory.
SETUP_SNIPPET = """
import importlib
import xkg.cli
backends, config, translate, validation = (importlib.import_module(f"xkg.{name}")
    for name in ("backends", "config", "translate", "validation"))
resources = config.default_config().require_resources()
translate.RolesetMap.from_json(resources.rolesets)
translate.AlignmentMap.from_json(resources.alignments)
translate.LinkTable.from_json(resources.links)
validation.MiniOntology.from_turtle_file(resources.mini_ontology)
backends.MockBackend(resources.mock_dir)
"""


class Context:
    """Everything a workload shares: seed, work dir, the CLI, the oracles."""

    def __init__(self, seed: int, work: Path):
        import xkg.cli
        from xkg.config import default_resource_paths

        self.seed = seed
        self.work = work
        self.src = SRC
        self.cli = xkg.cli
        self.oracles = self.load_test_module("oracles")
        self.ontology = checks.read_file(default_resource_paths().mini_ontology)

    @staticmethod
    def load_test_module(name: str):
        """A helper module of the test suite, loaded by path under its own name."""
        spec = importlib.util.spec_from_file_location(f"xkg_tests_{name}", TESTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
        return module


class Tally:
    """Operations attempted and failed; the first few problems go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                for problem in problems[:5]:
                    print(f"check failed: {problem}", file=sys.stderr)


def start_interpreter() -> float:
    """Seconds from starting a fresh interpreter until the CLI is ready."""
    # No timeout: with one, subprocess polls the child with growing sleeps
    # and the measured time is rounded up to the next poll.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Sampler:
    """A side measurement taken ``count`` times, spread evenly over the run.

    Spreading the samples keeps a few seconds of machine slowdown from
    landing on all of them at once.
    """

    def __init__(self, count: int, take):
        self.count = count
        self.take = take
        self.values: list[float] = []


def run_loop(workload, seconds: float, tally, samplers=()) -> list[dict]:
    """Rounds over the workload's inputs until ``seconds`` pass and every
    input has run once; the stage times of each operation."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    due = sorted(((start + (k + 0.5) * seconds / s.count, n), s)
                 for n, s in enumerate(samplers) for k in range(s.count))
    while len(records) < workload.n_inputs or time.perf_counter() < deadline:
        gc.collect()
        times, problems = workload.op(len(records) % workload.n_inputs, "plain", None)
        tally(problems)
        records.append(times)
        while due and due[0][0][0] <= time.perf_counter():
            sampler = due.pop(0)[1]
            gc.collect()
            sampler.values.append(sampler.take())
    for _when, sampler in due:
        gc.collect()
        sampler.values.append(sampler.take())
    return records


def per_input(records: list[dict], n_inputs: int) -> list[dict]:
    """Each input's median time per stage over its operations (input ``k``
    ran as operations ``k``, ``k + n_inputs``, ...), so every input weighs
    the same whether or not the last round was cut short."""
    return [{stage: statistics.median(times[stage] for times in records[k::n_inputs])
             for stage in records[k]} for k in range(n_inputs)]


class Agree:
    """``xkg agree`` on ratings of a sample of the workload's triples.

    The first report is checked against the oracles; every later one must
    repeat it byte for byte.
    """

    def __init__(self, ctx, workload, tally):
        self.ctx, self.workload, self.tally = ctx, workload, tally
        self.rows = inputs.make_ratings(
            ctx.seed, {h: sorted(t) for h, t in workload.rated_triples().items()})
        self.ratings = ctx.work / "ratings.csv"
        inputs.write_ratings(self.rows, self.ratings)
        self.reference = None
        self.runs = 0

    def __call__(self, tracer=None) -> float:
        out = self.ctx.work / "agree" / str(self.runs)
        self.runs += 1
        times: dict = {}
        with contextlib.redirect_stdout(io.StringIO()):
            with measure(tracer, f"agree-{self.runs}", "agree", times, self.workload.speed):
                code = self.ctx.cli.main(["agree", "--ratings", str(self.ratings), "--out", str(out)])
        report = out / "agreement-report.json"
        produced = report.read_bytes() if report.exists() else b""
        if self.reference is None:
            problems = checks.check_agreement(report, self.rows, self.ctx.oracles)
            self.reference = produced
            self.workload.digests[-1] = hashlib.sha256(produced).hexdigest()
        else:
            problems = [] if produced == self.reference else ["agreement report differs between runs"]
        if code != 0:
            problems.append(f"agree exit code {code}")
        self.tally(problems)
        shutil.rmtree(out, ignore_errors=True)
        return times["agree"]


def end_to_end(records, n_inputs, agree, setup, peak_rss_mb) -> dict:
    """The metrics from each input's median stage times; the 90th
    percentile from all operations, so that several lie beyond it."""
    medians = per_input(records, n_inputs)
    scenes = [m["scene"] for m in medians]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "scenes_per_s": (len(scenes) / sum(scenes), "1/s"),
        "scene_p50_ms": (statistics.median(scenes) * 1000.0, "ms"),
        "scene_p90_ms": (percentile([r["scene"] for r in records], 0.9) * 1000.0, "ms"),
        "enrich_s": (statistics.median(m["enrich"] for m in medians), "s"),
        "validate_s": (statistics.median(m["validate"] for m in medians), "s"),
        "agree_ms": (statistics.median(agree) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(ctx, workload, seconds: float, tally) -> dict:
    """Each operation untraced and traced, in alternating order; the median
    paired difference is the overhead."""
    tracer = tracing.Tracer()
    overheads, shares = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < workload.n_inputs or time.perf_counter() < deadline:
        times = {}
        for run in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            gc.collect()
            if run == "traced":
                with tracer.installed():
                    times[run], problems = workload.op(index % workload.n_inputs, run, tracer)
            else:
                times[run], problems = workload.op(index % workload.n_inputs, run, None)
            tally(problems)
        overheads.append(times["traced"]["scene"] - times["plain"]["scene"])
        shares.append(overheads[-1] / times["plain"]["scene"])
        index += 1
    agree = Agree(ctx, workload, tally)
    with tracer.installed():
        for _ in range(AGREE_SAMPLES):
            agree(tracer)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"spans-{workload.name}-seed{ctx.seed}.jsonl")

    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    metrics["trace.overhead_ms"] = (statistics.median(overheads) * 1000.0, "ms")
    metrics["trace.overhead_share"] = (statistics.median(shares), "ratio")
    print(f"{index} operation pairs; dominant layer (self time): "
          f"{tracing.dominant_layer(tracer.spans)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "xkg" / "__init__.py", TESTS / "corpus.py", TESTS / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    log = logging.FileHandler(work / "xkg.log", encoding="utf-8")
    log.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.getLogger().addHandler(log)
    try:
        ctx = Context(args.seed, work)
        workload = WORKLOADS[args.workload](ctx)
        workload.prepare()
        tally = Tally()
        for index in range(workload.warmup_ops):
            tally(workload.op(index % workload.n_inputs, "warmup", None)[1])
        # The benchmark's own long-lived objects (inputs, oracles) should not
        # lengthen the program's garbage-collection passes, and every timed
        # operation starts from an empty collector (see run_loop).
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = traced_run(ctx, workload, args.seconds, tally)
        else:
            workload.speed = reference.Speed()
            start_interpreter()  # the first start may also write bytecode caches
            setup = Sampler(SETUP_SAMPLES, start_interpreter)
            agree = Sampler(AGREE_SAMPLES, Agree(ctx, workload, tally))
            records = run_loop(workload, args.seconds, tally, (setup, agree))
            peak_rss_mb, problems = workload.peak_rss()
            tally(problems)
            metrics = end_to_end(records, workload.n_inputs, agree.values, setup.values,
                                 peak_rss_mb)
            print(f"samples: {len(records)} operations on {workload.n_inputs} inputs, "
                  f"{len(agree.values)} agree runs, {len(setup.values)} interpreter starts; "
                  f"median speed factor {statistics.median(workload.speed.factors):.3f}")
    finally:
        logging.getLogger().removeHandler(log)
        log.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: fail_ratio {tally.failed}/{tally.attempted}")
    print(f"output digest {workload.output_digest()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
