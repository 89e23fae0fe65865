#!/usr/bin/env python3
"""Documentation consistency gate (CI `docs` job).

Checks, over the repo's tracked markdown set:
  1. every intra-repo markdown link resolves to an existing file/dir;
  2. every backticked repo path (src/, tests/, bench/, examples/,
     scripts/, perfbench/, docs/) in README.md and docs/*.md names an
     existing file or directory; `*` globs and `{a,b}` alternatives must
     each match at least one;
  3. README.md quotes the ROADMAP tier-1 verify command verbatim, so the
     quickstart can never drift from the line the driver actually runs.

Stdlib only; run from anywhere inside the repo.
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The markdown surface we guarantee: top-level docs plus docs/.
DOC_FILES = [
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
] + [
    os.path.join("docs", name)
    for name in sorted(os.listdir(os.path.join(REPO, "docs")))
    if name.endswith(".md")
]

# Inline markdown links [text](target); images share the syntax.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Fenced code blocks are not link surface (sample snippets may contain
# bracket/paren sequences that only look like links).
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)

# Files whose inline code spans must name existing repo paths.
PATH_DOC_FILES = ["README.md"] + [
    f for f in DOC_FILES if f.startswith("docs" + os.sep)
]
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# A repo path inside a code span: one of the checked top-level
# directories, then path characters (incl. the * and {a,b} patterns).
PATH_RE = re.compile(
    r"(?<![\w./-])((?:src|tests|bench|examples|scripts|perfbench|docs)/"
    r"[\w./*{},-]*)")


def check_links():
    errors = []
    for rel in DOC_FILES:
        path = os.path.join(REPO, rel)
        if not os.path.exists(path):
            continue  # optional docs (e.g. CHANGES.md on a fresh clone)
        with open(path, encoding="utf-8") as f:
            text = FENCE_RE.sub("", f.read())
        for target in LINK_RE.findall(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            if target.startswith("#"):  # intra-document anchor
                continue
            target_path = target.split("#", 1)[0]
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target_path))
            if not os.path.exists(resolved):
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def expand_braces(pattern):
    """`a.{h,cc}` -> [`a.h`, `a.cc`]; nested groups expand left to right."""
    m = re.search(r"\{([^{}]*)\}", pattern)
    if not m:
        return [pattern]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(pattern[:m.start()] + alt + pattern[m.end():])
    return out


def check_paths():
    errors = []
    for rel in PATH_DOC_FILES:
        path = os.path.join(REPO, rel)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            text = FENCE_RE.sub("", f.read())
        for span in CODE_SPAN_RE.findall(text):
            for raw in PATH_RE.findall(span):
                # Sentence punctuation and a trailing ':' are not part of
                # the path.
                candidate = raw.rstrip(".,:")
                for concrete in expand_braces(candidate):
                    matches = glob.glob(os.path.join(REPO, concrete))
                    if not matches:
                        errors.append(f"{rel}: stale path `{concrete}`")
    return errors


def check_readme_matches_roadmap():
    """README's quickstart must contain the tier-1 verify line verbatim."""
    with open(os.path.join(REPO, "ROADMAP.md"), encoding="utf-8") as f:
        roadmap = f.read()
    m = re.search(r"\*\*Tier-1 verify:\*\*\s*`([^`]+)`", roadmap)
    if not m:
        return ["ROADMAP.md: no '**Tier-1 verify:** `...`' line found"]
    verify_line = m.group(1).strip()
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    if verify_line not in readme:
        return [
            "README.md: build/test quickstart does not contain the ROADMAP "
            f"tier-1 verify line verbatim:\n  {verify_line}"
        ]
    return []


def main():
    errors = check_links() + check_paths() + check_readme_matches_roadmap()
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"docs check OK ({len(DOC_FILES)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
