"""Command-line front end for constructing, classifying, measuring,
verifying, and exporting Hadamard codes over the Z2/Z4/Q8 alphabets.

Subcommands:

* construct    build a code with a requested length, kernel dimension, rank
* classify     structural profile of a generator file
* measure      kernel dimension, rank, and case tag of a generator file
* verify       run every verification oracle over a generator file
* export       re-emit a generator file canonically or as a 0/1 matrix
* table        list the allowable (kernel, rank) pairs at a given length
* seed-corpus  write the bundled reference generator files to a directory

All outputs are deterministic key=value or matrix lines, suitable for
golden-file comparison.  Exit codes: 0 success, 2 target pair not allowable,
3 plan infeasible, 4 unreadable input, 5 input fails verification.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .algebra import AmbientSpace, GroupElement
from .code import (
    DEFAULT_CLOSURE_CAP,
    ClosureSizeError,
    CodeGroup,
    OracleMismatch,
    ParseError,
    closure,
    export_binary,
    generators_text,
    is_hadamard,
    kernel_bruteforce,
    kernel_by_swappers,
    log2_order,
    rank_by_span_group,
    rank_gf2,
    read_generators,
    size_check,
)
from .construct import (
    CONSTRUCTIBLE_SHAPES,
    ConstructionError,
    ConstructionPlan,
    NotAllowableError,
    all_allowable_pairs,
    allowable_pairs,
    build_from_plan,
    construct_for,
    make_plan,
    shape_parameter_range,
)
from .reference import REFERENCE_FAMILIES, build_reference_code
from .structure import (
    StructureError,
    measure,
    render_report,
    standardize,
    verify_duplication,
    verify_table3,
)

EXIT_OK = 0
EXIT_NOT_ALLOWABLE = 2
EXIT_INFEASIBLE = 3
EXIT_PARSE = 4
EXIT_VERIFY = 5


def _write_or_print(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _read_file(path: str) -> tuple[AmbientSpace, list[GroupElement]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return read_generators(text)


def _load_group(path: str, hadamard_only: bool = False) -> CodeGroup:
    """Read and close a generator file.  Commands that accept only Hadamard
    codes cap the closure at the 2n codewords such a code has."""
    space, gens = _read_file(path)
    return closure(gens, space, 2 * space.n if hadamard_only else DEFAULT_CLOSURE_CAP)


def _require_hadamard(group: CodeGroup) -> None:
    verdict = is_hadamard(group.gray_image)
    if not verdict:
        raise StructureError(f"input is not a Hadamard code: {verdict.detail}")


def cmd_construct(args: argparse.Namespace) -> int:
    if args.shape is None:
        group, report = construct_for(args.m, args.k, args.r)
    else:
        match = next(
            ((sigma, tau) for sigma, tau in shape_parameter_range(args.m, args.shape)
             if (args.k, args.r) in allowable_pairs(args.m, args.shape, sigma, tau)),
            None)
        if match is None:
            raise NotAllowableError(
                f"(k,r)=({args.k},{args.r}) is not allowable for shape "
                f"{args.shape} at length 2^{args.m}")
        sigma, tau = match
        plan = make_plan(args.m, args.shape, sigma, tau, args.k, args.r)
        if args.dial is not None:
            plan = ConstructionPlan(
                m=plan.m, shape=plan.shape, sigma=plan.sigma, tau=plan.tau,
                target_k=plan.target_k, target_r=plan.target_r,
                dial=tuple(args.dial))
        group, report = build_from_plan(plan)
    measured = measure(group, report)
    _write_or_print(generators_text(group), args.out)
    sys.stdout.write(render_report(report, measured))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    group = _load_group(args.input_path, hadamard_only=True)
    _require_hadamard(group)
    report = standardize(group)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def cmd_measure(args: argparse.Namespace) -> int:
    group = _load_group(args.input_path, hadamard_only=True)
    _require_hadamard(group)
    report = standardize(group)
    measured = measure(group, report)
    sys.stdout.write(f"k={measured.k}\nr={measured.r}\ncase={measured.case}\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    space, gens = _read_file(args.input_path)
    lines: list[str] = []
    failures: list[str] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        lines.append(f"{name}={'pass' if ok else 'fail'}")
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    # Size the group before listing it: an untrusted file may generate far
    # more than the 2n elements of a Hadamard code.
    verdict = size_check(space.n, 1 << log2_order(gens))
    if verdict:
        group = closure(gens, space)
        code = group.gray_image
        verdict = is_hadamard(code)
    record("hadamard", bool(verdict), verdict.detail)
    if verdict:
        report = standardize(group)
        t3 = verify_table3(report, group.space)
        record("table3", bool(t3), t3.detail)
        dup = verify_duplication(report)
        record("duplication", bool(dup), dup.detail)
        kernel_same = set(kernel_by_swappers(group)) == set(kernel_bruteforce(code))
        record("kernel_oracles", kernel_same, "swapper kernel differs from brute force")
        rank_same = rank_by_span_group(group) == rank_gf2(code)
        record("rank_oracles", rank_same, "span-group rank differs from GF(2) rank")
    lines.append(f"verdict={'fail' if failures else 'pass'}")
    sys.stdout.write("\n".join(lines) + "\n")
    if failures:
        sys.stdout.write("".join(f"diagnosis: {f}\n" for f in failures))
        return EXIT_VERIFY
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    group = _load_group(args.input_path)
    if args.format == "gens":
        text = generators_text(group)
    else:
        text = export_binary(group.gray_image)
    _write_or_print(text, args.out)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    table = all_allowable_pairs(args.m)
    for (k, r), (shape, sigma, tau) in sorted(table.items()):
        sys.stdout.write(f"k={k} r={r} shape={shape} sigma={sigma} tau={tau}\n")
    return EXIT_OK


def cmd_seed_corpus(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: list[str] = []
    for family in REFERENCE_FAMILIES:
        for ref in family.codes:
            group = build_reference_code(ref)
            (out_dir / f"{ref.name}.gens").write_text(generators_text(group))
            manifest.append(
                f"name={ref.name} k={ref.expected_k} r={ref.expected_r} "
                f"case={ref.expected_case} shape={family.shape} "
                f"sigma={family.sigma} tau={family.tau}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")
    sys.stdout.write(f"wrote {len(manifest)} generator files to {out_dir}\n")
    return EXIT_OK


def _dial_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dial list {text!r}") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (main runs many times in-process)."""
    parser = argparse.ArgumentParser(
        prog="z2z4q8",
        description="Hadamard codes from mixed Z2/Z4/Q8 alphabets: construct, "
                    "classify, measure, verify, export.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build a code with given length 2^m, "
                                         "kernel dimension k, and rank r")
    p.add_argument("--m", type=int, required=True, help="log2 of the code length")
    p.add_argument("--k", type=int, required=True, help="kernel dimension target")
    p.add_argument("--r", type=int, required=True, help="rank target")
    p.add_argument("--shape", choices=CONSTRUCTIBLE_SHAPES,
                   help="force this construction route instead of the preference scan")
    p.add_argument("--dial", type=_dial_list,
                   help="comma-separated Q8 component indices receiving ab-type "
                        "values (requires --shape)")
    p.add_argument("--out", help="write the generator file here instead of stdout")
    p.set_defaults(func=cmd_construct)

    for name, func, extra in [
        ("classify", cmd_classify, "structural profile"),
        ("measure", cmd_measure, "kernel dimension, rank, and case tag"),
        ("verify", cmd_verify, "all verification oracles"),
        ("export", cmd_export, "canonical generator or 0/1 matrix output"),
    ]:
        p = sub.add_parser(name, help=f"{extra} of a generator file")
        p.add_argument("--in", dest="input_path", required=True,
                       help="generator file path")
        if name == "export":
            p.add_argument("--format", choices=["gens", "binary"], default="binary",
                           help="output format (default binary)")
            p.add_argument("--out", help="write here instead of stdout")
        p.set_defaults(func=func)

    p = sub.add_parser("table", help="allowable (k, r) pairs at length 2^m")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("seed-corpus", help="write the bundled reference "
                                           "generator files to a directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_seed_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dial", None) is not None and getattr(args, "shape", None) is None:
        parser.error("--dial requires --shape")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotAllowableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ALLOWABLE
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (StructureError, ClosureSizeError, OracleMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
