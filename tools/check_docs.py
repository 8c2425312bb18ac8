#!/usr/bin/env python3
"""Documentation consistency checker (stdlib only, no build needed).

Three rules, all derived from the source tree so the docs cannot drift
silently:

  1. Directory map: every direct subdirectory of src/ that contains
     sources must be named in DESIGN.md (the "Repository layout" /
     architecture map), so a new subsystem cannot land undocumented.
  2. Flag coverage, both ways: every command-line flag a tool parses
     (ParseFlag / strcmp call sites in its main source file) must appear
     both in that tool's own usage text and in the markdown
     documentation; conversely, every `--flag` token in the tool's
     comments and string literals and every flag-table row (| `--flag
     ...) in its documentation must name a flag the tool parses, so a
     removed flag cannot linger in comments, usage text, or tables.
     Flags are extracted from source because this runs in the lint CI
     job, which never builds the binaries.
  3. Links: every relative markdown link in the documentation set must
     resolve to an existing file in the repository.

Usage: tools/check_docs.py [--repo DIR]
Exit code is non-zero if any rule fails.
"""

import argparse
import os
import re
import sys

# Tool entry points and where their flags must be documented (beyond the
# usage text embedded in the tool itself).
TOOL_SOURCES = {
    "examples/pmjoin_cli.cpp": ["README.md"],
    "src/tools/pmjoin_server.cc": ["docs/SERVER.md"],
}

# The documentation set scanned for links (plus everything in docs/).
DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
             "CHANGES.md"]

FLAG_PARSE_RE = re.compile(
    r'(?:ParseFlag\(argv\[i\],\s*|std::strcmp\(argv\[i\],\s*)"(--[a-z0-9-]+)"')
FLAG_TOKEN_RE = re.compile(r"--[a-z0-9][a-z0-9-]*")
# `//` comments and string literals: the only places a source file names a
# flag, so code such as `--i` is never read as one.
PROSE_RE = re.compile(r'//.*|"(?:[^"\\]|\\.)*"')
FLAG_ROW_RE = re.compile(r"^\|\s*`(--[a-z0-9][a-z0-9-]*)", re.MULTILINE)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_directory_map(repo, errors):
    design = read(os.path.join(repo, "DESIGN.md"))
    src = os.path.join(repo, "src")
    for entry in sorted(os.listdir(src)):
        full = os.path.join(src, entry)
        if not os.path.isdir(full):
            continue
        if not any(name.endswith(SOURCE_SUFFIXES)
                   for name in os.listdir(full)):
            continue
        if f"src/{entry}" not in design:
            errors.append(f"DESIGN.md: src/{entry} missing from the "
                          "repository map (rule 1)")


def extract_flags(source_text):
    """All distinct --flags a tool's argv loop parses, except --help."""
    return sorted(set(FLAG_PARSE_RE.findall(source_text)) - {"--help"})


def check_flags(repo, errors):
    for source_rel, doc_rels in TOOL_SOURCES.items():
        source_path = os.path.join(repo, source_rel)
        if not os.path.exists(source_path):
            errors.append(f"{source_rel}: tool source missing "
                          "(stale TOOL_SOURCES entry?)")
            continue
        source = read(source_path)
        flags = extract_flags(source)
        if not flags:
            errors.append(f"{source_rel}: no flags found — parser idiom "
                          "changed? (rule 2)")
            continue
        docs = {rel: read(os.path.join(repo, rel)) for rel in doc_rels
                if os.path.exists(os.path.join(repo, rel))}
        for missing in set(doc_rels) - set(docs):
            errors.append(f"{source_rel}: doc file {missing} does not "
                          "exist (rule 2)")
        for flag in flags:
            # `--flag` must appear outside its own parse call: strip the
            # argv loop's string literals by requiring a usage-text or
            # comment occurrence too. The usage text repeats every flag,
            # so two occurrences anywhere is the cheap reliable proxy.
            if source.count(flag) < 2:
                errors.append(f"{source_rel}: {flag} parsed but absent "
                              "from the usage text (rule 2)")
            for rel, text in docs.items():
                if flag not in text:
                    errors.append(f"{rel}: {flag} (from {source_rel}) "
                                  "is undocumented (rule 2)")
        parsed = set(FLAG_PARSE_RE.findall(source))
        mentioned = {token for prose in PROSE_RE.findall(source)
                     for token in FLAG_TOKEN_RE.findall(prose)}
        for token in sorted(mentioned - parsed):
            errors.append(f"{source_rel}: {token} is mentioned but not "
                          "parsed (rule 2)")
        for rel, text in docs.items():
            for token in sorted(set(FLAG_ROW_RE.findall(text)) - parsed):
                errors.append(f"{rel}: flag-table row {token} is not a "
                              f"{source_rel} flag (rule 2)")


def doc_set(repo):
    files = [rel for rel in DOC_FILES
             if os.path.exists(os.path.join(repo, rel))]
    docs_dir = os.path.join(repo, "docs")
    if os.path.isdir(docs_dir):
        files.extend(os.path.join("docs", name)
                     for name in sorted(os.listdir(docs_dir))
                     if name.endswith(".md"))
    return files


def check_links(repo, errors):
    for rel in doc_set(repo):
        text = read(os.path.join(repo, rel))
        base = os.path.dirname(os.path.join(repo, rel))
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            if not os.path.exists(resolved):
                errors.append(f"{rel}: broken link to {target} (rule 3)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo",
                        default=os.path.dirname(os.path.dirname(
                            os.path.abspath(__file__))),
                        help="repository root (default: this script's repo)")
    args = parser.parse_args()

    errors = []
    check_directory_map(args.repo, errors)
    check_flags(args.repo, errors)
    check_links(args.repo, errors)
    if errors:
        for error in errors:
            print(f"check_docs: {error}")
        print(f"check_docs: {len(errors)} error(s)")
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
