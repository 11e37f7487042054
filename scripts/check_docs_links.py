#!/usr/bin/env python3
"""Docs link checker: fail CI when markdown documentation drifts from the
tree.

Usage:
    check_docs_links.py [repo_root]          # default: script's parent dir

Walks every tracked markdown file (README.md, docs/*.md, and any other
*.md outside build/third-party directories) and verifies two things:

  1. Every RELATIVE markdown link target `[text](path)` resolves to an
     existing file or directory (resolved against the linking file's own
     directory; `#fragment` suffixes are stripped; http(s)/mailto links
     are skipped — CI must not depend on the network).
  2. Every backtick reference that LOOKS like a repo path (contains a
     `/` and ends in a known source/doc extension, e.g.
     `src/pipeline/archive_io.hpp` or `scripts/validate_trace.py`)
     resolves from the repo root. Prose backticks (`ByteSink`, command
     lines with flags, glob patterns) are ignored.

It also walks the C++ sources under src/, tests/ and bench/ and verifies
that every `*.md` document a `//` comment cites (`docs/wire_protocol.md`,
`README.md`) exists, resolved from the repo root or the citing file's
directory, so code comments cannot point readers at missing documents.

Generated artifacts (BENCH_*.json, TRACE_*.json, build/ paths) are
whitelisted by pattern: docs legitimately name files that exist only
after a bench run.

Exit 0 and a per-file summary when clean; exit 1 listing every broken
reference otherwise.
"""

import os
import re
import sys

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")

# Backtick path refs must end in one of these to be checked; anything else
# in backticks is prose/code, not a file claim.
PATH_EXTS = (
    ".hpp", ".cpp", ".h", ".c", ".md", ".py", ".json", ".txt", ".yml",
    ".yaml", ".cmake", ".sh",
)

# Outputs of bench/CI runs and other intentionally-absent paths.
GENERATED = re.compile(
    r"(^|/)(BENCH_|TRACE_|SNAPSHOT_|FAULT_)[\w.]*\.json$|^build/|^archive\.ohdc$"
)

SKIP_DIRS = {".git", "build", ".github"}

# C++ sources whose comments may cite markdown documents.
SOURCE_DIRS = ("src", "tests", "bench")
SOURCE_EXTS = (".hpp", ".cpp", ".h", ".c", ".inc")
MD_CITE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")


def tracked_markdown(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def check_file(path, root):
    errors = []
    with open(path, encoding="utf-8") as f:
        text = f.read()
    base = os.path.dirname(path)

    for m in MD_LINK.finditer(text):
        target = m.group(1).split("#", 1)[0]
        if not target or target.startswith(("http://", "https://", "mailto:")):
            continue
        line = text.count("\n", 0, m.start()) + 1
        resolved = os.path.normpath(os.path.join(base, target))
        if not os.path.exists(resolved):
            errors.append((line, f"broken link: ({m.group(1)})"))

    for m in BACKTICK.finditer(text):
        ref = m.group(1).strip()
        # A path claim: sub-directory slash, a known extension, and no
        # shell/glob/prose characters.
        if "/" not in ref or not ref.endswith(PATH_EXTS):
            continue
        if re.search(r"[\s*?$<>|:{}\[\]()]|\.\.", ref):
            continue
        if ref.startswith("./"):
            ref = ref[2:]
        if GENERATED.search(ref):
            continue
        # Resolve repo-root first, then relative to the doc itself; accept
        # header-ish refs like `pipeline/archive_io.hpp` under src/.
        candidates = [
            os.path.join(root, ref),
            os.path.join(base, ref),
            os.path.join(root, "src", ref),
        ]
        if not any(os.path.exists(c) for c in candidates):
            line = text.count("\n", 0, m.start()) + 1
            errors.append((line, f"stale path reference: `{m.group(1)}`"))

    return errors


def source_files(root):
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def check_source_file(path, root):
    errors = []
    base = os.path.dirname(path)
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            _, slashes, comment = line.partition("//")
            for m in MD_CITE.finditer(comment if slashes else ""):
                ref = m.group(1)
                if not any(os.path.exists(os.path.join(d, ref))
                           for d in (root, base)):
                    errors.append((lineno, f"cites missing document {ref}"))
    return errors


def main():
    root = os.path.abspath(
        sys.argv[1] if len(sys.argv) > 1
        else os.path.join(os.path.dirname(__file__), os.pardir))
    failed = False
    checked = 0
    for md in tracked_markdown(root):
        rel = os.path.relpath(md, root)
        errors = check_file(md, root)
        checked += 1
        if errors:
            failed = True
            for line, msg in errors:
                print(f"FAIL: {rel}:{line}: {msg}", file=sys.stderr)
        else:
            print(f"ok: {rel}")
    if checked == 0:
        print("FAIL: no markdown files found", file=sys.stderr)
        return 1
    sources = 0
    for src in source_files(root):
        sources += 1
        for line, msg in check_source_file(src, root):
            failed = True
            rel = os.path.relpath(src, root)
            print(f"FAIL: {rel}:{line}: {msg}", file=sys.stderr)
    print(f"checked document citations in {sources} source files")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
