#!/usr/bin/env python3
"""Rebuild the bundled reference codes from their literal generators, verify
every oracle, and print one line per code.

Example:

    python3 scripts/reproduce_reference_codes.py
    python3 scripts/reproduce_reference_codes.py --family B --out-dir /tmp/ref
"""

import argparse
from pathlib import Path

from z2z4q8.code import (
    generators_text,
    is_hadamard,
    kernel_bruteforce,
    kernel_by_swappers,
    rank_by_span_group,
    rank_gf2,
)
from z2z4q8.reference import REFERENCE_FAMILIES, build_reference_code
from z2z4q8.structure import measure, standardize


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--family", choices=["A", "B", "all"], default="all",
                        help="which reference family to rebuild (default all)")
    parser.add_argument("--out-dir", help="write {name}.gens files here")
    args = parser.parse_args()
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    bad = 0
    for family in REFERENCE_FAMILIES:
        if args.family != "all" and family.name != args.family:
            continue
        print(f"# family {family.name}: length 2^{family.m}, "
              f"shape {family.shape}, sigma={family.sigma}, tau={family.tau}")
        for ref in family.codes:
            group = build_reference_code(ref)
            report = standardize(group)
            mes = measure(group, report)
            code = group.gray_image
            checks = (
                bool(is_hadamard(code))
                and report.shape == family.shape
                and (mes.k, mes.r, mes.case)
                == (ref.expected_k, ref.expected_r, ref.expected_case)
                and set(kernel_by_swappers(group)) == set(kernel_bruteforce(code))
                and rank_by_span_group(group) == rank_gf2(code)
            )
            bad += not checks
            print(f"{ref.name}: k={mes.k} r={mes.r} case={mes.case} "
                  f"shape={report.shape} {'ok' if checks else 'MISMATCH'}")
            if out_dir:
                (out_dir / f"{ref.name}.gens").write_text(generators_text(group))
    if bad:
        print(f"# {bad} code(s) failed verification")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
