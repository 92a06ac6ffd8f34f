"""The three workloads: their seeded requests and how each one is checked.

* ``construct``: ``construct_for(m, k, r)`` for every allowable pair at
  m = 3..7 (27 requests), in seed-shuffled order.  The write direction and
  the documented sweep; the span-group rank oracle does most of the work,
  with a slow tail at m = 7, r = 13/14.
* ``classify``: ``cli.main(["classify", "--in", f])`` on 36 seeded, disguised
  generator files (the 27 sweep codes and the 9 reference codes, see
  ``corpus.py``).  The read direction, through the CLI, on codes the
  constructor never emits; the rank oracle is not called at all, so this is
  the workload that bypasses rank-oracle changes.
* ``scale``: ``construct_for`` at m = 8 (length 256) for the pairs in
  ``goldens.SCALE_PAIRS``, one pure-Z2, one Z2/Z4 and one Q8 alphabet.  Wider
  elements and fourfold |C|^2 scans, with r <= 10.

A request passes when its output equals the golden made from the same code:
for a construction, the generator text byte for byte and the rendered
profile (shape, sigma, tau, ...); the generator text fixes the group and so
its (k, r), which ``construct_for`` measures itself before it returns.  For a
classification, the CLI exit code 0 and stdout equal to the golden report.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import corpus

NAMES = ("construct", "classify", "scale")


@dataclass
class Request:
    rid: int
    entry: dict
    path: Path | None = None  # generator file, for classify requests


@dataclass
class Outcome:
    start: float  # wall clock around the call into the package
    end: float
    ok: bool
    error: str = ""


def make_requests(workload: str, seed: int, entries: list[dict], out_dir: Path) -> list[Request]:
    """The seeded request list; for ``classify`` this writes the corpus."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify":
        files = corpus.make_corpus(entries, seed, out_dir / f"corpus-{seed}")
        rng.shuffle(files)
        return [Request(i, entry, path) for i, (entry, path) in enumerate(files)]
    wanted = {"construct": "sweep", "scale": "scale"}[workload]
    chosen = [e for e in entries if e["set"] == wanted]
    rng.shuffle(chosen)
    return [Request(i, entry) for i, entry in enumerate(chosen)]


def run_request(z, workload: str, req: Request, clock) -> Outcome:
    """Send one request; time only the call into the package."""
    entry = req.entry
    start = clock()
    try:
        if workload == "classify":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = z.cli.main(["classify", "--in", str(req.path)])
            end = clock()
            if rc != 0:
                return Outcome(start, end, False, f"exit {rc}: {err.getvalue().strip()}")
            if out.getvalue() != entry["classify"]:
                return Outcome(start, end, False, "report differs from golden")
            return Outcome(start, end, True)
        group, report = z.construct_for(entry["m"], entry["k"], entry["r"])
        end = clock()
        if z.generators_text(group) != entry["gens"]:
            return Outcome(start, end, False, "generator text differs from golden")
        if z.render_report(report) != entry["classify"]:
            return Outcome(start, end, False, "profile differs from golden")
        return Outcome(start, end, True)
    except (Exception, SystemExit) as exc:  # a failed request is counted, not fatal
        return Outcome(start, clock(), False, f"{type(exc).__name__}: {exc}")
