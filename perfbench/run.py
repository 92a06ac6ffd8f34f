#!/usr/bin/env python3
"""Benchmark of the z2z4q8 package: one workload, one seed, one process.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0

The run is a closed loop on one thread: a pass sends every request of the
workload in seeded order, each only after the previous one returned, and
checks each output against its golden (see ``workloads.py``).  Another pass
starts only while it is expected to end within ``--seconds``, judged by the
mean pass so far; at least ``MIN_PASSES`` passes run.

``--trace 0`` reports the end-to-end metrics of the untraced passes.
``--trace 1`` alternates an untraced and a traced pass (at least one pair)
and reports the per-layer metrics of the traced passes (``tracer.py``), with
``trace.overhead_ratio`` = traced pass time / untraced pass time.

Every reported time is host-speed normalized (see ``hostspeed.py``): a
traced pass's per-layer times are scaled by the pass's own normalization
factor.  The raw wall times are in the run record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (machine, set-up
times, per-pass and per-request rows) goes to ``perfbench/out/``, and in
traced runs the spans of each traced pass too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import goldens
import pkgload
import workloads
from hostspeed import HostSpeed
from tracer import Tracer

SETUP_REPEATS = 9
MIN_PASSES = 2

# Per-layer metrics (``--trace 1``).  Hot algebra operations are aggregated.
ALGEBRA_PER_CALL = ("mul", "square", "commutator", "swapper", "gray")
ALGEBRA_COUNTED = ("inverse", "order", "render_element", "parse_element")
SPANNED = {
    "code": ("closure", "rank_by_span_group", "rank_kernel_report", "rank_gf2",
             "kernel_bruteforce", "kernel_by_swappers", "is_hadamard",
             "BinaryCode.from_group", "read_generators"),
    "structure": ("standardize", "classify_shape", "torsion", "center", "measure",
                  "is_normal_subgroup", "verify_table3", "verify_duplication",
                  "render_report"),
    "construct": ("construct_for", "make_plan", "build_from_plan", "base_hadamard",
                  "lift_to_A", "build_s_generators", "all_allowable_pairs",
                  "allowable_pairs"),
    "cli": ("main",),
}
COUNTERS = ("code.closure.elements", "code.rank_by_span_group.span_elements")


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for op in ALGEBRA_PER_CALL:
        specs += [(f"algebra.{op}.calls", "count", "lower"),
                  (f"algebra.{op}.self_s", "s", "lower"),
                  (f"algebra.{op}.us_per_call", "us", "lower")]
    for op in ALGEBRA_COUNTED:
        specs += [(f"algebra.{op}.calls", "count", "lower"),
                  (f"algebra.{op}.self_s", "s", "lower")]
    for layer, funcs in SPANNED.items():
        for func in funcs:
            specs += [(f"{layer}.{func}.calls", "count", "lower"),
                      (f"{layer}.{func}.total_s", "s", "lower"),
                      (f"{layer}.{func}.self_s", "s", "lower")]
    specs += [(name, "count", "lower") for name in COUNTERS]
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


def end_to_end_specs() -> list[tuple[str, str, str]]:
    return [("setup_s", "s", "lower"), ("codes_per_s", "codes/s", "higher"),
            ("request_s.p50", "s", "lower"), ("request_s.p90", "s", "lower"),
            ("peak_rss_mib", "MiB", "lower"), ("ok_ratio", "ratio", "higher")]


@dataclass
class Pass:
    start: float
    end: float
    outcomes: list
    tracer: Tracer | None = None

    @property
    def ok(self) -> int:
        return sum(o.ok for o in self.outcomes)


def setup(workload: str, seed: int, golden_dir=goldens.GOLDEN_DIR):
    """Import the package afresh, load goldens, build the seeded requests."""
    z = pkgload.import_package(fresh=True)
    entries = goldens.load(golden_dir)
    return z, workloads.make_requests(workload, seed, entries, pkgload.OUT)


def run_pass(z, workload, requests, tracer=None) -> Pass:
    gc.collect()
    outcomes = []
    start = perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request_id = req.rid
        outcomes.append(workloads.run_request(z, workload, req, perf_counter))
    return Pass(start, perf_counter(), outcomes, tracer)


def traced_pass(z, workload, requests) -> Pass:
    tracer = Tracer(pkgload.PACKAGE, pkgload.LAYERS, pkgload.package_modules())
    tracer.install()
    try:
        return run_pass(z, workload, requests, tracer)
    finally:
        tracer.remove()


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": cpu or platform.processor(), "platform": platform.platform()}


def end_to_end(passes: list[Pass], setups: list[tuple[float, float]], seconds) -> dict:
    """End-to-end metrics; ``seconds(start, end)`` converts an interval."""
    ok = [o for p in passes for o in p.outcomes if o.ok]
    attempted = sum(len(p.outcomes) for p in passes)
    latencies = sorted(seconds(o.start, o.end) for o in ok) or [0.0]
    deciles = (statistics.quantiles(latencies, n=10) if len(latencies) > 1
               else latencies * 9)
    values = {
        "setup_s": statistics.median(seconds(*s) for s in setups),
        "codes_per_s": statistics.median(p.ok / seconds(p.start, p.end) for p in passes),
        "request_s.p50": statistics.median(latencies),
        "request_s.p90": deciles[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": len(ok) / attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in end_to_end_specs()}


def per_layer(untraced: list[Pass], traced: list[Pass], seconds) -> dict:
    """Per-layer metrics: counts of the first traced pass, median times."""
    first = traced[0].tracer
    scale = [seconds(p.start, p.end) / (p.end - p.start) for p in traced]

    def median_stat(func, slot):
        return statistics.median(p.tracer.stats[func][slot] * f for p, f in zip(traced, scale))

    values = {"trace.overhead_ratio":
              statistics.median(seconds(p.start, p.end) for p in traced)
              / statistics.median(seconds(p.start, p.end) for p in untraced)}
    values.update(first.counters)
    for name, _, _ in per_layer_specs():
        if name in values:
            continue
        func, kind = name.rsplit(".", 1)
        calls = first.stats[func][0]
        if kind == "calls":
            values[name] = calls
        elif kind == "total_s":
            values[name] = median_stat(func, 1)
        elif kind == "self_s":
            values[name] = median_stat(func, 2)
        else:  # us_per_call
            values[name] = 1e6 * median_stat(func, 2) / calls if calls else 0.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_specs()}


def run_record(args, setups, untraced, traced, requests, seconds) -> dict:
    groups = (("untraced", untraced), ("traced", traced))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "setup": [{"seconds": seconds(*s), "wall_s": s[1] - s[0]} for s in setups],
        "passes": [{"pass": f"{label}{index}", "seconds": seconds(p.start, p.end),
                    "wall_s": p.end - p.start, "ok": p.ok, "requests": len(p.outcomes)}
                   for label, passes in groups for index, p in enumerate(passes)],
        "requests": [{"workload": args.workload, "pass": f"{label}{index}",
                      "request": req.rid, "name": req.entry["name"],
                      "m": req.entry["m"], "k": req.entry["k"], "r": req.entry["r"],
                      "shape": req.entry["shape"], "seconds": seconds(out.start, out.end),
                      "wall_s": out.end - out.start, "ok": out.ok, "error": out.error}
                     for label, passes in groups for index, p in enumerate(passes)
                     for req, out in zip(requests, p.outcomes)],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    speed = HostSpeed()
    speed.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            z, requests = setup(args.workload, args.seed)
            setups.append((start, perf_counter()))

        untraced, traced = [], []
        measured_start = perf_counter()
        while True:
            untraced.append(run_pass(z, args.workload, requests))
            if args.trace:
                traced.append(traced_pass(z, args.workload, requests))
            done = perf_counter() - measured_start
            rounds = len(untraced)
            if rounds >= (1 if args.trace else MIN_PASSES) and done * (rounds + 1) / rounds > args.seconds:
                break
    except (pkgload.PackageMissing, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        speed.stop()

    seconds = speed.normalized
    if args.trace:
        metrics = per_layer(untraced, traced, seconds)
    else:
        metrics = end_to_end(untraced, setups, seconds)
    outcomes = [o for p in untraced + traced for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    pkgload.OUT.mkdir(parents=True, exist_ok=True)
    for index, p in enumerate(traced):
        p.tracer.write_spans(pkgload.OUT / f"{tag}-pass{index}.spans.jsonl")
    record = run_record(args, setups, untraced, traced, requests, seconds)
    record["calibration"] = speed.summary()
    record["metrics"] = metrics
    (pkgload.OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
