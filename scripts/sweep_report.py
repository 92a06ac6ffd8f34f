#!/usr/bin/env python3
"""Construct every allowable (kernel, rank) pair over a range of lengths and
print one report line per code: parameters, winning shape, case tag, and
build time.  Optionally dump each generator file into a directory.

Example:

    python3 scripts/sweep_report.py --m-min 3 --m-max 6
    python3 scripts/sweep_report.py --m-max 7 --out-dir /tmp/sweep
"""

import argparse
import time
from pathlib import Path

from z2z4q8.code import generators_text, is_hadamard
from z2z4q8.construct import ConstructionError, all_allowable_pairs, construct_for
from z2z4q8.structure import measure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--m-min", type=int, default=3,
                        help="smallest log2 length (default 3)")
    parser.add_argument("--m-max", type=int, default=7,
                        help="largest log2 length (default 7)")
    parser.add_argument("--out-dir",
                        help="write m{m}-k{k}-r{r}.gens files here")
    args = parser.parse_args()
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    total = failures = 0
    grand_start = time.monotonic()
    for m in range(args.m_min, args.m_max + 1):
        table = all_allowable_pairs(m)
        print(f"# length 2^{m} = {2 ** m}: {len(table)} allowable pairs")
        for (k, r), (shape, sigma, tau) in sorted(table.items()):
            total += 1
            start = time.monotonic()
            try:
                group, report = construct_for(m, k, r)
            except ConstructionError as exc:
                failures += 1
                print(f"m={m} k={k} r={r} FAILED: {exc}")
                continue
            mes = measure(group, report)
            ok = bool(is_hadamard(group.gray_image))
            seconds = time.monotonic() - start
            status = "ok" if ok and (mes.k, mes.r) == (k, r) else "MISMATCH"
            print(f"m={m} k={k} r={r} shape={report.shape} case={mes.case} "
                  f"sigma={report.profile.sigma} tau={report.profile.tau} "
                  f"hadamard={ok} {status} ({seconds:.2f}s)")
            if out_dir:
                (out_dir / f"m{m}-k{k}-r{r}.gens").write_text(
                    generators_text(group))
    print(f"# {total - failures}/{total} constructed "
          f"in {time.monotonic() - grand_start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
