#!/usr/bin/env python3
"""Fail when a library header is reached by no program.

Usage: check_reachable.py [REPO_ROOT]

Every src/**/*.h header must be #included by some file under src/,
tools/, bench/, examples/ or perfbench/src/ other than its own .cc.
Tests do not count: a module that only its own tests reach is code no
program runs.  A header that fails the rule is either deleted with its
tests, wired into a program, or named in ALLOWED below with the reason
it stays.

Exits 1, naming each unreached header and each stale ALLOWED entry;
otherwise 0.
"""

import pathlib
import re
import sys

# Modules kept although no program includes them, each for a reason.
ALLOWED = {
    "dp/seq_linear.h":
        "SeqLinear.ShapeMatchesFigure6ThirdRow cross-checks the planner's "
        "Figure-6 time-series GEMM against it",
    "models/random_network.h":
        "the fuzz fixture of the planner, executor and memory-model "
        "property tests",
    "gemm/reference_gemm.h":
        "the reference GEMMs the engine cross-check tests compare against",
    "dp/convnet.h":
        "the Trainer<ConvNet> model whose bits GenericTrainer.PinnedBits "
        "pins",
}

PROGRAM_DIRS = ("src", "tools", "bench", "examples", "perfbench/src")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    src = root / "src"
    headers = sorted(p.relative_to(src).as_posix()
                     for p in src.rglob("*.h"))

    includers = {}  # header -> files (relative to root) that include it
    for d in PROGRAM_DIRS:
        for f in sorted((root / d).rglob("*")):
            if f.suffix not in SOURCE_SUFFIXES:
                continue
            rel = f.relative_to(root).as_posix()
            for inc in INCLUDE.findall(f.read_text(encoding="utf-8")):
                includers.setdefault(inc, set()).add(rel)

    failed = False
    for h in headers:
        own = "src/" + h[:-2] + ".cc"
        reached = includers.get(h, set()) - {own}
        if h in ALLOWED:
            if reached:
                print(f"stale allowlist entry: src/{h} is included by "
                      f"{sorted(reached)[0]}")
                failed = True
            continue
        if not reached:
            print(f"unreached: src/{h} has no includer in "
                  f"{', '.join(PROGRAM_DIRS)} but its own .cc")
            failed = True
    for h in sorted(set(ALLOWED) - set(headers)):
        print(f"stale allowlist entry: src/{h} does not exist")
        failed = True

    if not failed:
        print(f"reachability: {len(headers)} headers, "
              f"{len(ALLOWED)} allowlisted, all reached")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
