#!/usr/bin/env python3
"""Golden outputs for the benchmark, made from the package itself.

For every code the benchmark touches this writes its generator file to
``goldens/gens/<name>.gens`` and one manifest entry to
``goldens/manifest.json`` holding its length exponent m, the measured pair
(k, r), the case tag, and the ``classify`` report (the key=value profile that
``z2z4q8 classify`` prints, and that ``render_report`` gives for the report
``construct_for`` returns).

The codes are the three sets the workloads draw from:

* ``sweep``: ``construct_for(m, k, r)`` for every allowable pair at m = 3..7;
* ``scale``: ``construct_for`` at m = 8 for the pairs in ``SCALE_PAIRS``;
* ``reference``: the bundled reference codes of ``z2z4q8.reference``.

Usage, from the repository root:

    python3 perfbench/goldens.py --write    # regenerate the committed goldens
    python3 perfbench/goldens.py --check    # exit 1 if the code no longer
                                            # reproduces them byte for byte
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pkgload

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
SWEEP_M = range(3, 8)
SCALE_M = 8
# One pure-Z2, one Z2/Z4 and one Q8 alphabet at length 256; all have r <= 10,
# so the span-group rank oracle stays cheap and the |C|^2 scans dominate.
SCALE_PAIRS = ((9, 9), (7, 10), (5, 10))


def code_name(m: int, k: int, r: int) -> str:
    return f"m{m}-k{k}-r{r}"


def load(golden_dir: Path = GOLDEN_DIR) -> list[dict]:
    """Manifest entries, each with its generator text under ``gens``."""
    entries = json.loads((golden_dir / "manifest.json").read_text())
    for entry in entries:
        entry["gens"] = (golden_dir / "gens" / f"{entry['name']}.gens").read_text()
    return entries


def _classify_cli(z, gens_text: str) -> str:
    with tempfile.TemporaryDirectory(dir=GOLDEN_DIR.parent) as tmp:
        path = Path(tmp) / "code.gens"
        path.write_text(gens_text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = z.cli.main(["classify", "--in", str(path)])
    if rc != 0:
        raise RuntimeError(f"classify exited {rc}")
    return out.getvalue()


def build(z) -> list[dict]:
    """Regenerate every golden entry from the package."""
    jobs = [("sweep", m, k, r) for m in SWEEP_M
            for (k, r) in sorted(z.all_allowable_pairs(m))]
    jobs += [("scale", SCALE_M, k, r) for k, r in SCALE_PAIRS]
    entries = []
    for kind, m, k, r in jobs:
        group, report = z.construct_for(m, k, r)
        measured = z.measure(group, report)
        if (measured.k, measured.r) != (k, r):
            raise RuntimeError(f"{code_name(m, k, r)} measured ({measured.k},{measured.r})")
        entries.append(_entry(z, code_name(m, k, r), kind, m, group, report, measured))
    for family in z.REFERENCE_FAMILIES:
        for ref in family.codes:
            group = z.build_reference_code(ref)
            report = z.standardize(group)
            measured = z.measure(group, report)
            if (measured.k, measured.r) != (ref.expected_k, ref.expected_r):
                raise RuntimeError(f"{ref.name} measured ({measured.k},{measured.r})")
            entries.append(_entry(z, ref.name, "reference", family.m, group, report, measured))
    return entries


def _entry(z, name, kind, m, group, report, measured) -> dict:
    gens = z.generators_text(group)
    profile = z.render_report(report)
    if _classify_cli(z, gens) != profile:
        raise RuntimeError(f"{name}: CLI classify differs from the construction report")
    return {"name": name, "set": kind, "m": m, "k": measured.k, "r": measured.r,
            "shape": report.shape, "case": measured.case, "classify": profile,
            "gens": gens}


def write(entries: list[dict], golden_dir: Path = GOLDEN_DIR) -> None:
    gens_dir = golden_dir / "gens"
    gens_dir.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        (gens_dir / f"{entry['name']}.gens").write_text(entry["gens"])
    manifest = [{key: val for key, val in e.items() if key != "gens"} for e in entries]
    (golden_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the goldens")
    mode.add_argument("--check", action="store_true",
                      help="confirm the committed goldens still match the code")
    args = parser.parse_args()
    z = pkgload.import_package()
    fresh = build(z)
    if args.write:
        write(fresh)
        print(f"wrote {len(fresh)} golden codes to {GOLDEN_DIR}")
        return 0
    committed = {e["name"]: e for e in load()}
    bad = [e["name"] for e in fresh if committed.get(e["name"]) != e]
    bad += sorted(set(committed) - {e["name"] for e in fresh})
    for name in bad:
        print(f"golden mismatch: {name}", file=sys.stderr)
    print(f"{len(fresh) - len(bad)}/{len(fresh)} golden codes match")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
