#!/usr/bin/env python3
"""Before/after benchmark of a git ref against the working tree.

Runs perfbench/run.py on both sides, alternately, and writes
BENCH_<name>.json.

The "before" side is the ref exported with `git archive` into a temporary
directory; the "after" side is the working tree itself.  Each workload gets
--runs pairs of untraced runs of BENCHMARK.json's run_seconds, one seed per
pair (--seed, --seed + 1, ...), and the side that runs first alternates from
pair to pair, so drift in the host's speed does not favour one side.  The
JSON holds, per workload and side, every end-to-end metric's values, median
and quartiles, plus how many pairs the working tree won on each metric, the
machine and both commits.

Example:

    python3 scripts/bench.py --ref main --name mychange --runs 10 --seed 4242
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench_run  # noqa: E402  (perfbench/run.py: metric specs, machine)
import workloads  # noqa: E402


def export_ref(ref: str, dest: Path) -> str:
    """Write the files of `ref` into dest; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")
    return commit


def working_tree_state() -> dict:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                           capture_output=True, text=True).stdout.strip()
    return {"head": head, "uncommitted_changes": bool(dirty)}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run; its last stdout line is the result JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench run failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(before: list[dict], after: list[dict]) -> dict:
    out: dict = {"before": {}, "after": {}, "after_wins": {}, "median_ratio": {}}
    for name, _, better in perfbench_run.end_to_end_specs():
        b = [r["metrics"][name] for r in before]
        a = [r["metrics"][name] for r in after]
        out["before"][name], out["after"][name] = summary(b), summary(a)
        sign = 1 if better == "higher" else -1
        out["after_wins"][name] = sum(sign * (y - x) > 0 for x, y in zip(b, a))
        mb = out["before"][name]["median"]
        out["median_ratio"][name] = out["after"][name]["median"] / mb if mb else None
    out["failed"] = {"before": sum(r["failed"] for r in before),
                     "after": sum(r["failed"] for r in after)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", required=True, help="git ref of the 'before' side")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--runs", type=int, default=3, help="pairs per workload (>= 3)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-ref-") as tmp:
        before_dir = Path(tmp)
        commit = export_ref(args.ref, before_dir)
        record = {"name": args.name, "machine": perfbench_run.machine(),
                  "before": {"ref": args.ref, "commit": commit},
                  "after": {"working_tree": True, **working_tree_state()},
                  "runs": args.runs, "seconds": seconds,
                  "seeds": [args.seed + i for i in range(args.runs)],
                  "workloads": {}}
        for workload in workloads.NAMES:
            runs: dict[str, list[dict]] = {"before": [], "after": []}
            for i in range(args.runs):
                sides = [("before", before_dir), ("after", ROOT)]
                if i % 2:
                    sides.reverse()
                for position, (side, checkout) in enumerate(sides):
                    result = run_once(checkout, workload, args.seed + i, seconds)
                    result["ran_first"] = position == 0
                    runs[side].append(result)
                    print(f"{workload} pair {i} {side}: codes_per_s="
                          f"{result['metrics']['codes_per_s']:.4g}", file=sys.stderr)
            record["workloads"][workload] = {**compare(runs["before"], runs["after"]),
                                             "runs": runs}

    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, res in record["workloads"].items():
        for name in res["median_ratio"]:
            b, a = res["before"][name], res["after"][name]
            print(f"{workload} {name}: {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] -> "
                  f"{a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}], "
                  f"after won {res['after_wins'][name]}/{args.runs}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
