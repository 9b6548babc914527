"""The three workloads: one closed-loop client, one operation at a time.

Each workload generates ``n_inputs`` inputs from the seed and runs them
through the package round after round, timing each operation and checking
its outputs. An operation returns its stage times (seconds) and a
list of problems. The first operation on an input is checked in full;
later ones must repeat its outputs byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import checks
import inputs

RSS_CHILD = Path(__file__).with_name("rss.py")


@contextmanager
def measure(tracer, op_id, kind: str, times: dict, speed=None):
    """Time one unit of work; with a tracer it is also an operation root span.

    With a ``reference.Speed`` the time is scaled to the reference speed.
    """
    if tracer is None:
        before = speed.before() if speed else 0.0
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        times[kind] = speed.scale(elapsed, before) if speed else elapsed
    else:
        with tracer.op(op_id, kind) as span:
            yield
        times[kind] = span.end - span.start


def xkg_modules(*names):
    """Package modules by name; ``xkg.translate`` the attribute is a function."""
    return [importlib.import_module(f"xkg.{name}") for name in names]


def child_peak_rss(args: list, src: Path) -> dict:
    """Report of ``rss.py`` run with ``args`` in a fresh interpreter.

    Its ``peak_rss_kb`` is the child's own peak resident set; the
    benchmark's inputs, oracles and checks live in this process and do not
    count.
    """
    result = subprocess.run([sys.executable, str(RSS_CHILD), *args],
                            env=dict(os.environ, PYTHONPATH=str(src)), cwd=src.parent,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def _bytes_under(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    n_inputs = 1         # distinct inputs, each run once per round
    warmup_ops = 0
    speed = None         # a reference.Speed scales the CPU-bound stage times

    def __init__(self, ctx):
        self.ctx = ctx
        self.digests: dict[int, str] = {}

    def prepare(self) -> None:
        pass

    def op(self, index: int, run: str, tracer) -> tuple[dict, list]:
        raise NotImplementedError

    def peak_rss(self) -> tuple[float, list]:
        """Peak resident set (MB) of a fresh interpreter running one operation, and problems."""
        raise NotImplementedError

    def rated_triples(self) -> dict:
        raise NotImplementedError

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.digests):
            h.update(self.digests[index].encode())
        return h.hexdigest()


class ScenesMock(Workload):
    """Seeded scenes through ``xkg run --mock``, each with its own mock dir.

    After each scene, ``xkg enrich`` and ``xkg validate`` rerun on the files
    the run wrote; their times give ``enrich_s`` and ``validate_s`` and
    their outputs must equal the run's.
    """

    name = "scenes-mock"
    n_inputs = 2 * inputs.SIZE_STRATA
    warmup_ops = 2

    def prepare(self) -> None:
        self._scenes = {}
        for index in range(self.n_inputs):
            scene = inputs.make_scene(self.ctx.seed, index)
            self._scenes[index] = (scene, inputs.write_scene(scene, self.ctx.work / "scenes" / str(index)))

    def scene(self, index: int):
        """Scene ``index`` and the paths of its files."""
        return self._scenes[index]

    @staticmethod
    def commands(paths: dict, out: Path) -> list:
        """(stage, ``xkg`` command line) for each stage of one operation."""
        common = ["--config", str(paths["config"])]
        return [
            ("scene", ["run", "--mock", *common, "--text", str(paths["text"]),
                       "--amr", str(paths["amr"]), "--out", str(out / "run")]),
            ("enrich", ["enrich", "--mock", *common, "--out", str(out / "stages"),
                        "--base", str(out / "run" / "base-graph.ttl")]),
            ("validate", ["validate", *common, "--out", str(out / "stages"),
                          "--graph", str(out / "stages" / "xkg-merged.ttl"),
                          "--base", str(out / "run" / "base-graph.ttl")]),
        ]

    def op(self, index, run, tracer):
        scene, paths = self.scene(index)
        out = self.ctx.work / "out" / str(index)
        times: dict = {}
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for kind, command in self.commands(paths, out):
                with measure(tracer, index, kind, times, self.speed):
                    codes.append(self.ctx.cli.main(command))
        code, code_e, code_v = codes
        digest = f"{_digest(sorted((out / 'run').iterdir()))} exit {code}"
        if index in self.digests:
            problems = [] if digest == self.digests[index] else [
                f"scene {index}: outputs differ from its first run's"]
        else:
            problems = checks.check_scene_outputs(scene, out / "run", code, self.ctx.ontology,
                                                  self.ctx.oracles)
            self.digests[index] = digest
        for name in ("xkg-merged.ttl", "validation-report.json", "diagnostics.json"):
            if (out / "stages" / name).read_bytes() != (out / "run" / name).read_bytes():
                problems.append(f"scene {index}: standalone {name} differs from the run's")
        if (code_e, max(code_e, code_v)) != (scene.expected_exit, code):
            problems.append(f"scene {index}: stage exit codes {code_e}, {code_v} for run {code}")
        if tracer is not None:
            tracer.counters["cli.bytes_written"] += _bytes_under(out)
        shutil.rmtree(out)
        return times, problems

    def largest_scene(self) -> int:
        """Index of the largest scene of the first block; every block holds the same sizes."""
        return max(range(inputs.SIZE_STRATA), key=lambda i: inputs.scene_size(self.ctx.seed, i))

    def peak_rss(self):
        index = self.largest_scene()
        scene, paths = self.scene(index)
        out = self.ctx.work / "out" / "rss"
        report = child_peak_rss(["cli", json.dumps([c for _, c in self.commands(paths, out)])],
                                self.ctx.src)
        shutil.rmtree(out)
        code, code_e, code_v = report["codes"]
        problems = [] if (code, code_e, max(code_e, code_v)) == (scene.expected_exit,) * 3 else [
            f"scene {index} in a fresh interpreter: exit codes {report['codes']}"]
        return report["peak_rss_kb"] / 1024.0, problems

    def rated_triples(self) -> dict:
        rated: dict = {}
        for index in range(self.n_inputs):
            scene = inputs.make_scene(self.ctx.seed, index)
            for h, triples in scene.added.items():
                if h not in scene.quarantined:
                    rated.setdefault(h, set()).update(triples)
        return rated


class LargeGraph(Workload):
    """Big inputs for every layer: ``xkg base`` on a 250-node AMR document,
    then ``xkg enrich --mock`` and ``xkg validate`` on the corpus scaled x4."""

    name = "large-graph"

    def prepare(self) -> None:
        corpus = self.ctx.load_test_module("corpus")
        self.graph = inputs.make_large_graph(self.ctx.seed, corpus.build_corpus())
        document, self.types = inputs.make_document(self.ctx.seed)
        self.paths = inputs.write_large_graph(self.graph, document, self.ctx.work / "large")
        self._reference: dict[str, bytes] = {}

    def commands(self, out: Path) -> list:
        """(stage, ``xkg`` command line) for each stage of one operation."""
        common = ["--config", str(self.paths["config"]), "--out", str(out)]
        return [
            ("base", ["base", "--amr", str(self.paths["amr"]), *common[:2],
                      "--out", str(out / "document")]),
            ("enrich", ["enrich", "--mock", *common, "--base", str(self.paths["base"])]),
            ("validate", ["validate", *common, "--graph", str(out / "xkg-merged.ttl"),
                          "--base", str(self.paths["base"])]),
        ]

    def op(self, index, run, tracer):
        out = self.ctx.work / "out" / f"{run}-{index}"
        times: dict = {}
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for kind, command in self.commands(out):
                with measure(tracer, index, kind, times, self.speed):
                    codes.append(self.ctx.cli.main(command))
        code_b, code_e, code_v = codes
        times["scene"] = times["base"] + times["enrich"] + times["validate"]
        names = ("xkg-merged.ttl", "diagnostics.json", "validation-report.json",
                 "document/base-graph.ttl")
        produced = {name: (out / name).read_bytes() for name in names}
        produced["codes"] = f"{code_b},{code_e},{code_v}".encode()
        if not self._reference:
            # The first operation is checked in full; later ones must repeat it byte for byte.
            problems = checks.check_large_graph(self.graph, out, code_e, code_v,
                                                self.ctx.ontology, self.ctx.oracles)
            problems += checks.check_document(self.types, out / "document", code_b)
            if not problems:
                self._reference = produced
                self.digests[0] = hashlib.sha256(b"".join(produced.values())).hexdigest()
        else:
            problems = [f"op {index}: {name} differs from the first operation's"
                        for name in produced if produced[name] != self._reference[name]]
        if tracer is not None:
            tracer.counters["cli.bytes_written"] += _bytes_under(out)
        shutil.rmtree(out)
        return times, problems

    def peak_rss(self):
        """Runs after the timed operations, so the first one's exit codes are known."""
        out = self.ctx.work / "out" / "rss"
        report = child_peak_rss(["cli", json.dumps([c for _, c in self.commands(out)])],
                                self.ctx.src)
        shutil.rmtree(out)
        codes = ",".join(map(str, report["codes"])).encode()
        problems = [] if codes == self._reference.get("codes") else [
            f"large graph in a fresh interpreter: exit codes {codes.decode()}"]
        return report["peak_rss_kb"] / 1024.0, problems

    def rated_triples(self) -> dict:
        return self.graph.additions


class FakeServer:
    """OpenAI-shaped chat endpoint that sleeps a fixed latency per attempt.

    The scene's ``failed_503`` heuristic gets HTTP 503 on its first attempt.
    Retry back-off sleeps are scaled by ``BACKOFF_SCALE``, the ratio of
    ``LATENCY_S`` to a 2 s model call, so back-off keeps its weight
    against the call time.

    These are assumptions, not measured traffic: the paper reports no
    model latency or failure rate. The latency, the 2 s call it stands in
    for and the one 503 per scene (1 of 12 attempts) were chosen so that
    waiting dominates and the retry path runs in every operation.
    """

    LATENCY_S = 0.060
    BACKOFF_SCALE = 0.03

    class Response:
        def __init__(self, status_code: int, body):
            self.status_code = status_code
            self._body = body
            self.text = ""

        def json(self):
            return self._body

    def __init__(self, scene):
        self.scene = scene
        self.attempts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._by_namespace = [(ns, name) for name, _, ns in inputs.HEURISTICS]

    def post(self, url, payload, headers, timeout):
        system = payload["messages"][0]["content"]
        name = next(n for ns, n in self._by_namespace if f"<{ns}>" in system)
        with self._lock:
            attempt = self.attempts.get(name, 0)
            self.attempts[name] = attempt + 1
        time.sleep(self.LATENCY_S)
        if name == self.scene.failed_503 and attempt == 0:
            return self.Response(503, None)
        return self.Response(200, {"choices": [{"message": {"content": self.scene.responses[name]}}]})

    def sleep(self, delay: float) -> None:
        time.sleep(delay * self.BACKOFF_SCALE)


class SlowBackend(Workload):
    """Seeded scenes in-process through ``run_all`` against a sleeping HTTP backend."""

    name = "slow-backend"
    n_inputs = 2 * inputs.SIZE_STRATA
    warmup_ops = 2
    CREDENTIAL_ENV = "XKG_BENCH_KEY"

    def scene(self, index: int):
        if index not in self._scenes:
            self._scenes[index] = inputs.make_scene(self.ctx.seed, index)
        return self._scenes[index]

    def prepare(self) -> None:
        self._scenes: dict = {}
        backends, config, translate, validation = xkg_modules(
            "backends", "config", "translate", "validation")
        os.environ[self.CREDENTIAL_ENV] = "benchmark-key"
        resources = config.default_config().require_resources()
        self.rolesets = translate.RolesetMap.from_json(resources.rolesets)
        self.alignments = translate.AlignmentMap.from_json(resources.alignments)
        self.links = translate.LinkTable.from_json(resources.links)
        self.onto = validation.MiniOntology.from_turtle_file(resources.mini_ontology)
        self.backend_config = backends.BackendConfig(
            endpoint="http://127.0.0.1:9/v1/chat/completions", model="bench",
            credential_env=self.CREDENTIAL_ENV, max_concurrent=2)

    def stages(self, scene, times: dict, tracer=None):
        """One scene through the package; the outputs and the fake server."""
        amr, backends, config, enrichment, translate, validation = xkg_modules(
            "amr", "backends", "config", "enrichment", "translate", "validation")
        server = FakeServer(scene)
        backend = backends.HttpBackend(self.backend_config, post=server.post, sleep=server.sleep)
        # A caller handling one scene: config per scene, maps and ontology kept
        # loaded. Only validation is CPU-bound; the rest waits on the backend.
        with measure(tracer, scene.index, "prepare", times):
            prompts_dir = config.default_config().require_resources().prompts_dir
            graph = amr.parse_penman_file(scene.penman)[0]
            base = translate.translate(graph, self.rolesets)
            base = translate.link_entities(translate.align(base, self.alignments), self.links)
        with measure(tracer, scene.index, "enrich", times):
            results, merged = enrichment.run_all(base, backend, prompts_dir, max_concurrent=2)
        with measure(tracer, scene.index, "validate", times, self.speed):
            diagnostics = validation.lint(merged)
            diagnostics += validation.check_consistency(merged, self.onto)
            precedence = validation.infer_precedence(merged)
            diagnostics += precedence.diagnostics
            validation.profile(merged, base)
        times["scene"] = times["prepare"] + times["enrich"] + times["validate"]
        return server, base, results, merged, precedence, diagnostics

    def op(self, index, run, tracer):
        scene = self.scene(index)
        times: dict = {}
        server, base, results, merged, precedence, diagnostics = self.stages(scene, times, tracer)
        problems = checks.check_scene_in_memory(scene, base, results, merged, precedence,
                                                diagnostics, self.ctx.ontology, self.ctx.oracles)
        attempts = sum(server.attempts.values())
        if attempts != len(inputs.HEURISTICS) + 1:
            problems.append(f"scene {index}: {attempts} HTTP attempts, expected 12")
        if tracer is not None:
            tracer.counters["backends.http_attempts"] += attempts
        digest = hashlib.sha256()
        for t in sorted(checks.canonical_triples(merged.triples)):
            digest.update(" ".join(t).encode())
        if self.digests.setdefault(index, digest.hexdigest()) != digest.hexdigest():
            problems.append(f"scene {index}: merged graph differs from its first run's")
        return times, problems

    def peak_rss(self):
        index = self.largest_scene()
        report = child_peak_rss(["slow-backend", str(self.ctx.seed), str(index)], self.ctx.src)
        expected = len(inputs.HEURISTICS) + 1
        problems = [] if report["codes"] == [expected] else [
            f"scene {index} in a fresh interpreter: {report['codes']} HTTP attempts, expected {expected}"]
        return report["peak_rss_kb"] / 1024.0, problems

    largest_scene = ScenesMock.largest_scene
    rated_triples = ScenesMock.rated_triples


WORKLOADS = {w.name: w for w in (ScenesMock, LargeGraph, SlowBackend)}
