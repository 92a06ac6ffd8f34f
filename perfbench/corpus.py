#!/usr/bin/env python3
"""Seeded ``classify`` corpus: the golden codes, disguised.

Each golden generator file is rewritten so that the classifier sees a code
the constructor never emitted, while its structural profile stays that of the
golden code:

* coordinates are permuted within the Z2, the Z4 and the Q8 block (an
  automorphism of the ambient group, which permutes the binary image's
  columns);
* the generators are re-chosen as random products of the old ones, by a
  sequence of Nielsen moves g_i <- g_i g_j or g_i <- g_j g_i (i != j) and a
  final shuffle.  Each move is invertible, so the generated group is the same.

The arithmetic here is the benchmark's own, on the text form, so that the
package receives only the finished files.  The same seed gives byte-identical
files: every file draws from ``random.Random`` seeded with a string.

Self-check, from the repository root (closes every file with the package and
confirms that the group has order 2n and a Hadamard image):

    python3 perfbench/corpus.py --seed 1
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

Q8_NAMES = ("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")
Q8_INDEX = {name: idx for idx, name in enumerate(Q8_NAMES)}
# Sets whose codes are classified; the m = 8 scale codes are only built.
CLASSIFY_SETS = ("sweep", "reference")


def q8_mul(x: int, y: int) -> int:
    """(a^i b^j)(a^k b^l) on indices i + 4j, using b a = a^-1 b, b^2 = a^2."""
    i, j, k, l = x % 4, x // 4, y % 4, y // 4
    if j == 0:
        return (i + k) % 4 + 4 * l
    if l == 0:
        return (i - k) % 4 + 4
    return (i - k + 2) % 4


def parse(text: str) -> tuple[tuple[int, int, int], list[tuple[list[int], ...]]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    space = tuple(int(tok) for tok in lines[0].split()[1:])
    gens = []
    for ln in lines[1:]:
        z2, z4, q8 = ln.split("|")
        gens.append(([int(t) for t in z2.split()], [int(t) for t in z4.split()],
                     [Q8_INDEX[t] for t in q8.split()]))
    return space, gens


def render(space: tuple[int, int, int], gens) -> str:
    lines = [f"space {space[0]} {space[1]} {space[2]}"]
    for z2, z4, q8 in gens:
        parts = (" ".join(map(str, z2)), " ".join(map(str, z4)),
                 " ".join(Q8_NAMES[v] for v in q8))
        lines.append(" | ".join(parts).strip())
    return "\n".join(lines) + "\n"


def mul(x, y):
    return ([(p + q) & 1 for p, q in zip(x[0], y[0])],
            [(p + q) & 3 for p, q in zip(x[1], y[1])],
            [q8_mul(p, q) for p, q in zip(x[2], y[2])])


def disguise(text: str, rng: random.Random) -> str:
    """Permute coordinates within blocks and re-choose the generators."""
    space, gens = parse(text)
    perms = [rng.sample(range(size), size) for size in space]
    gens = [tuple([block[i] for i in perm] for block, perm in zip(g, perms)) for g in gens]
    if len(gens) > 1:
        for _ in range(3 * len(gens)):
            i, j = rng.sample(range(len(gens)), 2)
            gens[i] = mul(gens[i], gens[j]) if rng.random() < 0.5 else mul(gens[j], gens[i])
    rng.shuffle(gens)
    return render(space, gens)


def make_corpus(entries: list[dict], seed: int, out_dir: Path) -> list[tuple[dict, Path]]:
    """Write one disguised file per classify entry; returns (entry, path)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for entry in entries:
        if entry["set"] not in CLASSIFY_SETS:
            continue
        rng = random.Random(f"classify:{seed}:{entry['name']}")
        path = out_dir / f"{entry['name']}.gens"
        partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        partial.write_text(disguise(entry["gens"], rng))
        os.replace(partial, path)  # a concurrent run never reads a half file
        files.append((entry, path))
    return files


def self_check(z, files: list[tuple[dict, Path]]) -> list[str]:
    """Problems found by closing each file with the package (empty if none)."""
    problems = []
    for entry, path in files:
        space, gens = z.read_generators(path.read_text())
        group = z.closure(gens, space)
        if len(group) != 2 * space.n:
            problems.append(f"{entry['name']}: order {len(group)}, expected {2 * space.n}")
        elif not z.is_hadamard(z.BinaryCode.from_group(group)):
            problems.append(f"{entry['name']}: image is not Hadamard")
    return problems


def main() -> int:
    import goldens
    import pkgload

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    out_dir = pkgload.OUT / f"corpus-check-{args.seed}"
    files = make_corpus(goldens.load(), args.seed, out_dir)
    problems = self_check(pkgload.import_package(), files)
    for line in problems:
        print(line, file=sys.stderr)
    print(f"{len(files) - len(problems)}/{len(files)} corpus files have order 2n "
          f"and a Hadamard image")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
