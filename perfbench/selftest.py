#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

They check that the metric names and units are well formed and match
``BENCHMARK.json``, that the corpus is a pure function of the seed, that a
corrupted golden shows as a failed request instead of a crash, that the
tracer restores every original and counts calls reproducibly, and that the
benchmark refuses to run without the package source next to it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import tempfile
import unittest
from pathlib import Path

import corpus
import goldens
import pkgload
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
BENCH_DIR = Path(__file__).resolve().parent


def scratch_dir() -> Path:
    pkgload.OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=pkgload.OUT))


def small_requests(workload: str, seed: int, golden_dir: Path, max_m: int):
    z, requests = run.setup(workload, seed, golden_dir)
    return z, [req for req in requests if req.entry["m"] <= max_m]


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_unique(self):
        specs = run.end_to_end_specs() + run.per_layer_specs()
        names = [name for name, _, _ in specs]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in specs:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
            self.assertIn(better, ("lower", "higher"))

    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        bench = json.loads((pkgload.ROOT / "BENCHMARK.json").read_text())
        for key, specs in (("end_to_end", run.end_to_end_specs()),
                           ("per_layer", run.per_layer_specs())):
            listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
            self.assertEqual(listed, specs, key)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.NAMES))


class Corpus(unittest.TestCase):
    def test_same_seed_gives_byte_identical_files(self):
        entries = goldens.load()
        out = scratch_dir()
        try:
            first = corpus.make_corpus(entries, 7, out / "a")
            again = corpus.make_corpus(entries, 7, out / "b")
            other = corpus.make_corpus(entries, 8, out / "c")
            self.assertEqual(len(first), 36)
            for (_, p), (_, q) in zip(first, again):
                self.assertEqual(p.read_bytes(), q.read_bytes())
            self.assertTrue(any(p.read_bytes() != q.read_bytes()
                                for (_, p), (_, q) in zip(first, other)))
        finally:
            shutil.rmtree(out)

    def test_disguised_codes_keep_order_and_hadamard_image(self):
        out = scratch_dir()
        try:
            files = corpus.make_corpus(goldens.load(), 3, out)
            self.assertEqual(corpus.self_check(pkgload.import_package(), files), [])
        finally:
            shutil.rmtree(out)


class CorruptedGolden(unittest.TestCase):
    def _corrupted_copy(self, out: Path, field: str) -> Path:
        golden_dir = out / "goldens"
        shutil.copytree(goldens.GOLDEN_DIR, golden_dir)
        manifest = json.loads((golden_dir / "manifest.json").read_text())
        victim = next(e for e in manifest if e["name"] == "m5-k3-r9")
        if field == "gens":
            path = golden_dir / "gens" / "m5-k3-r9.gens"
            path.write_text(path.read_text().replace("a3", "a", 1))
        else:
            victim["classify"] = victim["classify"].replace("shape=3", "shape=2")
            (golden_dir / "manifest.json").write_text(json.dumps(manifest))
        return golden_dir

    def _check_one_failure(self, workload: str, field: str):
        out = scratch_dir()
        try:
            z, requests = small_requests(workload, 1, self._corrupted_copy(out, field), 5)
            done = run.run_pass(z, workload, requests)
            failed = [req.entry["name"] for req, o in zip(requests, done.outcomes) if not o.ok]
            self.assertEqual(failed, ["m5-k3-r9"])
            metrics = run.end_to_end([done], [(0.0, 0.1)], lambda start, end: end - start)
            self.assertLess(metrics["ok_ratio"]["value"], 1.0)
        finally:
            shutil.rmtree(out)

    def test_construct_generator_text(self):
        self._check_one_failure("construct", "gens")

    def test_classify_report(self):
        self._check_one_failure("classify", "classify")


class Tracing(unittest.TestCase):
    def _traced_counts(self, z, requests):
        before = {mod.__name__: dict(vars(mod)) for mod in pkgload.package_modules()}
        from_group = z.code.BinaryCode.__dict__["from_group"]
        done = run.traced_pass(z, "construct", requests)
        tracer = done.tracer
        self.assertTrue(all(o.ok for o in done.outcomes))
        for mod in pkgload.package_modules():
            self.assertEqual(vars(mod), before[mod.__name__], mod.__name__)
        self.assertIs(z.code.BinaryCode.__dict__["from_group"], from_group)
        return {name: stat[0] for name, stat in tracer.stats.items()}, tracer

    def test_wrappers_are_removed_and_counts_repeat(self):
        z, requests = small_requests("construct", 1, goldens.GOLDEN_DIR, 5)
        counts, tracer = self._traced_counts(z, requests)
        again, _ = self._traced_counts(z, requests)
        self.assertEqual(counts, again)
        self.assertGreater(counts["algebra.mul"], 0)
        self.assertEqual(counts["construct.construct_for"], len(requests))
        # calls between layers are caught: construct -> structure -> code
        self.assertEqual(counts["structure.measure"], len(requests))
        self.assertEqual(counts["code.rank_by_span_group"], len(requests))
        self.assertGreater(tracer.counters["code.rank_by_span_group.span_elements"], 0)
        names = {span[0] for span in tracer.spans}
        self.assertNotIn("algebra.mul", names)
        roots = [span for span in tracer.spans if span[3] == -1]
        self.assertEqual(sorted(span[4] for span in roots if span[0] == "construct.construct_for"),
                         sorted(req.rid for req in requests))


class MissingPackage(unittest.TestCase):
    def test_refuses_to_run_without_the_source_tree(self):
        out = scratch_dir()
        try:
            shutil.copy(pkgload.ROOT / "BENCHMARK.json", out / "BENCHMARK.json")
            shutil.copytree(BENCH_DIR, out / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            bench = json.loads((out / "BENCHMARK.json").read_text())
            proc = subprocess.run(
                bench["command"] + ["--workload", "construct", "--seed", "1",
                                    "--seconds", "1", "--trace", "0"],
                cwd=out, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
