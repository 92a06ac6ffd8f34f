"""Command-line interface: golden outputs, round trips, exit codes, the
documented report scripts, and the names the benchmark's tracer reads."""

import ast
import hashlib
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import z2z4q8.cli
import z2z4q8.code
from z2z4q8.cli import (
    EXIT_INFEASIBLE,
    EXIT_NOT_ALLOWABLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    build_parser,
    main,
)

GOLDENS = Path(__file__).parent / "goldens"
ROOT = Path(__file__).resolve().parents[1]
GOLDEN_GENS = ROOT / "perfbench" / "goldens" / "gens"


def test_table_golden(capsys):
    # goldens/table_m<m>.txt hold the table output for lengths 8 .. 1024.
    for m in range(3, 11):
        assert main(["table", "--m", str(m)]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDENS / f"table_m{m}.txt").read_text(), m


def test_construct_writes_file_and_report(tmp_path, capsys):
    out = tmp_path / "code.gens"
    rc = main(["construct", "--m", "5", "--k", "3", "--r", "8",
               "--out", str(out)])
    assert rc == EXIT_OK
    report = capsys.readouterr().out
    assert "k=3" in report and "r=8" in report
    assert "shape=2" in report  # preference scan lands on shape 2 for (3, 8)
    header = out.read_text().splitlines()[0]
    assert header.startswith("space ")


def test_construct_then_measure_roundtrip(tmp_path, capsys):
    out = tmp_path / "code.gens"
    assert main(["construct", "--m", "5", "--k", "3", "--r", "9",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["measure", "--in", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "k=3\nr=9\ncase=4c\n"


def test_construct_then_classify_roundtrip(tmp_path, capsys):
    out = tmp_path / "code.gens"
    assert main(["construct", "--m", "4", "--k", "2", "--r", "7",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["classify", "--in", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "shape=2\n" in text and "m=4\n" in text


def test_construct_forced_shape(tmp_path, capsys):
    out = tmp_path / "code.gens"
    rc = main(["construct", "--m", "5", "--k", "4", "--r", "7",
               "--shape", "3", "--out", str(out)])
    assert rc == EXIT_OK
    assert "shape=3" in capsys.readouterr().out
    # The maximal-kernel target routes through an empty dial, so passing
    # an explicit empty dial reproduces the same build.
    a, b = tmp_path / "a.gens", tmp_path / "b.gens"
    for path, extra in [(a, []), (b, ["--dial", ""])]:
        assert main(["construct", "--m", "5", "--k", "6", "--r", "6",
                     "--shape", "2", "--out", str(path)] + extra) == EXIT_OK
        capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_construct_dial_override_matches_planner(tmp_path, capsys):
    from z2z4q8.construct import make_plan

    plan = make_plan(5, "2", 3, 2, 3, 8)
    assert plan.dial
    dial_csv = ",".join(str(i) for i in plan.dial)
    a, b = tmp_path / "a.gens", tmp_path / "b.gens"
    assert main(["construct", "--m", "5", "--k", "3", "--r", "8",
                 "--shape", "2", "--out", str(a)]) == EXIT_OK
    assert main(["construct", "--m", "5", "--k", "3", "--r", "8",
                 "--shape", "2", "--dial", dial_csv, "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_construct_dial_override_can_break_the_plan(capsys):
    # (4, 7) forced through shape 3 needs a rank-raising dial; an empty
    # override builds different parameters and is reported as infeasible.
    rc = main(["construct", "--m", "5", "--k", "4", "--r", "7",
               "--shape", "3", "--dial", ""])
    assert rc == EXIT_INFEASIBLE
    capsys.readouterr()


def test_construct_deterministic(tmp_path):
    paths = []
    for name in ("a.gens", "b.gens"):
        p = tmp_path / name
        assert main(["construct", "--m", "6", "--k", "3", "--r", "10",
                     "--out", str(p)]) == EXIT_OK
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_passes_on_constructed_code(tmp_path, capsys):
    out = tmp_path / "code.gens"
    assert main(["construct", "--m", "5", "--k", "2", "--r", "8",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    for line in ("hadamard=pass", "table3=pass", "duplication=pass",
                 "kernel_oracles=pass", "rank_oracles=pass", "verdict=pass"):
        assert line in text


def test_verify_fails_on_non_hadamard(tmp_path, capsys):
    bad = tmp_path / "bad.gens"
    bad.write_text("space 2 0 0\n1 0 |  | \n")  # too small to be Hadamard
    assert main(["verify", "--in", str(bad)]) == EXIT_VERIFY
    text = capsys.readouterr().out
    assert "hadamard=fail" in text and "verdict=fail" in text
    assert "diagnosis:" in text


def test_export_binary_row_count(tmp_path, capsys):
    out = tmp_path / "code.gens"
    assert main(["construct", "--m", "4", "--k", "3", "--r", "6",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["export", "--in", str(out), "--format", "binary"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 ** 5
    assert all(len(row) == 2 ** 4 and set(row) <= {"0", "1"} for row in rows)
    assert rows == sorted(rows)


def test_export_binary_golden(tmp_path, capsys):
    # goldens/export_binary.txt: row count and sha256 of the 0/1 matrix for
    # the nine reference codes and seven sweep codes of perfbench/goldens/gens.
    golden = (GOLDENS / "export_binary.txt").read_text().splitlines()
    lines = []
    for name in (line.split()[0] for line in golden):
        assert main(["export", "--in", str(GOLDEN_GENS / f"{name}.gens"),
                     "--format", "binary"]) == EXIT_OK
        out = capsys.readouterr().out
        lines.append(f"{name} rows={len(out.splitlines())} "
                     f"sha256={hashlib.sha256(out.encode()).hexdigest()}")
    assert lines == golden
    # The trivial group of Z2^0 x Z4^0 x Q8^0 has one word, of length 0.
    empty = tmp_path / "empty.gens"
    empty.write_text("space 0 0 0\n |  | \n")
    assert main(["export", "--in", str(empty), "--format", "binary"]) == EXIT_OK
    assert capsys.readouterr().out == "\n"


def test_export_gens_identity(tmp_path, capsys):
    src = tmp_path / "code.gens"
    assert main(["construct", "--m", "5", "--k", "4", "--r", "7",
                 "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    dst = tmp_path / "copy.gens"
    assert main(["export", "--in", str(src), "--format", "gens",
                 "--out", str(dst)]) == EXIT_OK
    assert dst.read_text() == src.read_text()


def test_export_gens_keeps_repeated_generators(tmp_path, capsys):
    # Every generator line is re-emitted, one already spanned or repeated too.
    src = tmp_path / "repeats.gens"
    src.write_text("space 0 0 1\n| | a\n| | b\n| | a\n| | a2\n")
    assert main(["export", "--in", str(src), "--format", "gens"]) == EXIT_OK
    assert capsys.readouterr().out == "space 0 0 1\n|  | a\n|  | b\n|  | a\n|  | a2\n"


def test_seed_corpus_and_measure_reference(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["seed-corpus", "--out", str(corpus)]) == EXIT_OK
    capsys.readouterr()
    gens = sorted(p.name for p in corpus.glob("*.gens"))
    assert len(gens) == 9
    manifest = (corpus / "manifest.txt").read_text()
    assert "name=len128-k4-r10" in manifest
    assert "name=len32-k4-r7" in manifest
    assert main(["measure", "--in", str(corpus / "len128-k4-r10.gens")]) == EXIT_OK
    assert capsys.readouterr().out == "k=4\nr=10\ncase=4c\n"


def test_exit_not_allowable(capsys):
    assert main(["construct", "--m", "4", "--k", "4", "--r", "6"]) == EXIT_NOT_ALLOWABLE
    err = capsys.readouterr().err
    assert "error:" in err and "nearest" in err


def test_exit_not_allowable_for_forced_shape(capsys):
    # (2, 7) exists at m=4, but only through shape 2 - not shape 1.
    assert main(["construct", "--m", "4", "--k", "2", "--r", "7",
                 "--shape", "1"]) == EXIT_NOT_ALLOWABLE
    capsys.readouterr()


def test_exit_infeasible_on_bad_dial(capsys):
    rc = main(["construct", "--m", "5", "--k", "3", "--r", "8",
               "--shape", "2", "--dial", "99"])
    assert rc == EXIT_INFEASIBLE
    capsys.readouterr()


def test_exit_parse_on_missing_file(tmp_path, capsys):
    rc = main(["measure", "--in", str(tmp_path / "absent.gens")])
    assert rc == EXIT_PARSE
    capsys.readouterr()


def test_exit_parse_on_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.gens"
    bad.write_text("not a generator file\n")
    assert main(["classify", "--in", str(bad)]) == EXIT_PARSE
    capsys.readouterr()


def test_exit_verify_on_non_hadamard_classify(tmp_path, capsys):
    bad = tmp_path / "bad.gens"
    bad.write_text("space 2 0 0\n1 0 |  | \n")
    assert main(["classify", "--in", str(bad)]) == EXIT_VERIFY
    capsys.readouterr()


def test_exit_verify_on_oracle_mismatch(tmp_path, capsys, monkeypatch):
    out = tmp_path / "code.gens"
    assert main(["construct", "--m", "4", "--k", "2", "--r", "7",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    span_rank = z2z4q8.code.rank_by_span_group
    monkeypatch.setattr(z2z4q8.code, "rank_by_span_group",
                        lambda group: span_rank(group) + 1)
    assert main(["measure", "--in", str(out)]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rank oracles disagree" in err


@pytest.mark.parametrize("oracle, expected", [
    ("kernel_by_swappers",
     "hadamard=pass\ntable3=pass\nduplication=pass\n"
     "kernel_oracles=fail\nrank_oracles=pass\nverdict=fail\n"
     "diagnosis: kernel_oracles: swapper kernel differs from brute force\n"),
    ("rank_by_span_group",
     "hadamard=pass\ntable3=pass\nduplication=pass\n"
     "kernel_oracles=pass\nrank_oracles=fail\nverdict=fail\n"
     "diagnosis: rank_oracles: span-group rank differs from GF(2) rank\n"),
])
def test_verify_reports_oracle_disagreement(tmp_path, capsys, monkeypatch,
                                            oracle, expected):
    # The golden for verify's oracle failure lines and their diagnosis text.
    out = tmp_path / "code.gens"
    assert main(["construct", "--m", "4", "--k", "2", "--r", "7",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(z2z4q8.cli, oracle, lambda group: ())
    assert main(["verify", "--in", str(out)]) == EXIT_VERIFY == 5
    assert capsys.readouterr().out == expected


def test_oversized_input_stops_at_hadamard_size(tmp_path, capsys):
    # a and b in each of four Q8 coordinates generate all 8^4 = 4096
    # elements; a Hadamard code of length 16 has 32.
    big = tmp_path / "big.gens"
    rows = [" ".join(q if j == i else "1" for j in range(4))
            for i in range(4) for q in ("a", "b")]
    big.write_text("space 0 0 4\n" + "".join(f"|  | {row}\n" for row in rows))
    for command in ("classify", "measure"):
        assert main([command, "--in", str(big)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert "cap of 32 elements" in captured.err, command
        assert "4096" not in captured.out + captured.err, command
    assert main(["verify", "--in", str(big)]) == EXIT_VERIFY
    assert "hadamard=fail" in capsys.readouterr().out


def test_verify_sizes_input_before_listing_it(tmp_path, capsys, monkeypatch):
    # a and b in each of k Q8 coordinates generate all 8^k elements; the
    # order is known before any element is listed.
    def refuse(*args, **kwargs):
        raise AssertionError("verify listed an oversized group")

    monkeypatch.setattr(z2z4q8.code.CodeGroup, "members", property(refuse))
    for k in (5, 7):
        big = tmp_path / f"q8-{k}.gens"
        rows = [" ".join(q if j == i else "1" for j in range(k))
                for i in range(k) for q in ("a", "b")]
        big.write_text(f"space 0 0 {k}\n" + "".join(f"|  | {row}\n" for row in rows))
        assert main(["verify", "--in", str(big)]) == EXIT_VERIFY
        assert capsys.readouterr().out == (
            f"hadamard=fail\nverdict=fail\ndiagnosis: hadamard: size: expected "
            f"{8 * k} codewords, got {8 ** k}\n"), k


def test_export_sizes_input_before_listing_it(tmp_path, capsys, monkeypatch):
    # a and b in each of 7 Q8 coordinates generate 8^7 = 2^21 elements, over
    # the closure cap of 2^20; the order is known before any is listed.
    def refuse(*args, **kwargs):
        raise AssertionError("export listed an oversized group")

    monkeypatch.setattr(z2z4q8.code.CodeGroup, "members", property(refuse))
    big = tmp_path / "q8-7.gens"
    rows = [" ".join(q if j == i else "1" for j in range(7))
            for i in range(7) for q in ("a", "b")]
    big.write_text("space 0 0 7\n" + "".join(f"|  | {row}\n" for row in rows))
    for fmt in ("gens", "binary"):
        assert main(["export", "--in", str(big), "--format", fmt]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: closure exceeded cap of 1048576 elements\n", fmt


def test_dial_requires_shape(capsys):
    with pytest.raises(SystemExit):
        main(["construct", "--m", "5", "--k", "3", "--r", "8", "--dial", "1"])
    capsys.readouterr()


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_documented_scripts_run():
    sweep = _run_script("sweep_report.py", "--m-min", "3", "--m-max", "5")
    assert sweep.returncode == 0, sweep.stdout + sweep.stderr
    assert "# 9/9 constructed" in sweep.stdout
    ref = _run_script("reproduce_reference_codes.py", "--family", "B")
    assert ref.returncode == 0, ref.stdout + ref.stderr
    assert [line.endswith(" ok") for line in ref.stdout.splitlines()
            if not line.startswith("#")] == [True] * 3


def test_reference_script_reports_oracle_mismatch(capsys, monkeypatch):
    # An oracle disagreement is one MISMATCH line per code and exit 1, not a
    # traceback.
    script = runpy.run_path(str(ROOT / "scripts" / "reproduce_reference_codes.py"))
    span_rank = z2z4q8.code.rank_by_span_group
    monkeypatch.setattr(z2z4q8.code, "rank_by_span_group",
                        lambda group: span_rank(group) + 1)
    monkeypatch.setattr(sys, "argv", ["reproduce_reference_codes.py", "--family", "B"])
    assert script["main"]() == 1
    assert capsys.readouterr().out == (
        "# family B: length 2^5, shape 3, sigma=3, tau=2\n"
        "len32-k4-r7: MISMATCH (rank oracles disagree: 7 vs 8)\n"
        "len32-k3-r9: MISMATCH (rank oracles disagree: 9 vs 10)\n"
        "len32-k3-r8: MISMATCH (rank oracles disagree: 8 vs 9)\n"
        "# 3 code(s) failed verification\n")


def test_parser_is_built_once():
    # main may run many times in one process; the parser is built once.
    assert build_parser() is build_parser()


def test_traced_names_exist():
    # perfbench/run.py reads the tracer's stats of every name below; one the
    # package no longer defines would make a `--trace 1` run raise KeyError.
    wanted = {}
    for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            wanted[node.targets[0].id] = node.value
    per_call, counted, spanned = (ast.literal_eval(wanted[name]) for name in
                                  ("ALGEBRA_PER_CALL", "ALGEBRA_COUNTED", "SPANNED"))
    names = [f"algebra.{op}" for op in per_call + counted]
    names += [f"{layer}.{func}" for layer, funcs in spanned.items() for func in funcs]
    layers = tuple(dict.fromkeys(name.split(".")[0] for name in names))
    tracer_cls = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["Tracer"]
    modules = [importlib.import_module(f"z2z4q8.{layer}") for layer in layers]
    traced = {name for name, *_ in tracer_cls("z2z4q8", layers, modules).targets()}
    assert len(names) > 30
    assert [name for name in names if name not in traced] == []
