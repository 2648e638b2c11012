#!/usr/bin/env python3
"""Reach guard: every file under src/ must serve a product path.

Starts from every .cpp/.hpp in bench/, examples/ and perfbench/ and
follows `#include "..."` edges. A quoted include resolves against the
including file's directory first, then against src/. A reached header
also reaches its sibling .cpp (the code behind it). Prints every src/
file that nothing reaches and exits 1 if there is one.

Usage: check_reach.py [repo_root]
"""

import os
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
ROOTS = ("bench", "examples", "perfbench")


def sources(top):
    for root, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith((".cpp", ".hpp")):
                yield os.path.normpath(os.path.join(root, name))


def main(argv):
    repo = os.path.abspath(argv[1] if len(argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    src = os.path.join(repo, "src")
    todo = [p for r in ROOTS for p in sources(os.path.join(repo, r))]
    seen = set(todo)
    while todo:
        path = todo.pop()
        with open(path, encoding="utf-8") as f:
            names = INCLUDE.findall(f.read())
        edges = []
        if path.endswith(".hpp"):
            edges.append(os.path.splitext(path)[0] + ".cpp")
        for name in names:
            for base in (os.path.dirname(path), src):
                cand = os.path.normpath(os.path.join(base, name))
                if os.path.isfile(cand):
                    edges.append(cand)
                    break
        for e in edges:
            if e not in seen and os.path.isfile(e):
                seen.add(e)
                todo.append(e)
    unreached = [p for p in sources(src) if p not in seen]
    for p in unreached:
        print(f"unreached: {os.path.relpath(p, repo)}")
    total = sum(1 for _ in sources(src))
    print(f"check_reach: {total - len(unreached)}/{total} src files reached "
          f"from {', '.join(ROOTS)}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
