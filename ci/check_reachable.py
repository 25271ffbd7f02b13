#!/usr/bin/env python3
"""Fail when a library header is reached by no program.

Usage: check_reachable.py [REPO_ROOT]

Walks the include closure of the programs: every source file under
tools/, bench/, examples/ and perfbench/src/ is a root, each quoted
#include is followed (relative to the including file, else to src/),
and a reached src/ header brings in its own .cc, which is linked
whenever the header's functions are called.  Every src/**/*.h header
must be reached.  Tests do not count: a module that only its own tests
reach is code no program runs.  Nor do allowlisted modules: a header
that only they include is reached through them, not through a program.
A header that fails the rule is either deleted with its tests, wired
into a program, or named in ALLOWED below with the reason it stays.

Exits 1, naming each unreached header and each stale ALLOWED entry;
otherwise 0.
"""

import pathlib
import re
import sys

# Modules kept although no program reaches them, each for a reason.
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
    "dp/conv2d.h":
        "the convolution layer of the allowlisted ConvNet",
    "dp/im2col.h":
        "the patch lowering behind the allowlisted ConvNet's convolution "
        "layer",
}

PROGRAM_DIRS = ("tools", "bench", "examples", "perfbench/src")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    src = root / "src"
    headers = sorted(p.relative_to(src).as_posix()
                     for p in src.rglob("*.h"))

    todo = [f for d in PROGRAM_DIRS for f in sorted((root / d).rglob("*"))
            if f.suffix in SOURCE_SUFFIXES]
    seen = set(todo)
    while todo:
        f = todo.pop()
        for inc in INCLUDE.findall(f.read_text(encoding="utf-8")):
            target = next((base / inc for base in (f.parent, src)
                           if (base / inc).is_file()), None)
            if target is None:
                continue
            for g in (target, target.with_suffix(".cc")):
                if g.is_file() and g not in seen:
                    seen.add(g)
                    todo.append(g)
    reached = {p.resolve().relative_to(src.resolve()).as_posix()
               for p in seen if p.resolve().is_relative_to(src.resolve())}

    failed = False
    for h in headers:
        if h in ALLOWED:
            if h in reached:
                print(f"stale allowlist entry: src/{h} is reached from "
                      f"{', '.join(PROGRAM_DIRS)}")
                failed = True
            continue
        if h not in reached:
            print(f"unreached: src/{h} is outside the include closure of "
                  f"{', '.join(PROGRAM_DIRS)}")
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
