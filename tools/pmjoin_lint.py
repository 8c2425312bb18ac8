#!/usr/bin/env python3
"""pmjoin project linter: repo-specific rules clang-tidy cannot express.

Rules (see DESIGN.md "Invariants & checking"):

  no-throw          No exception may cross the public Status/Result API, so
                    `throw` / `try` / `catch` are banned outright in src/,
                    bench/, and examples/ (errors travel as Status; fatal
                    invariant violations abort via PMJOIN_CHECK).
  determinism       Every experiment must be exactly reproducible: no
                    rand()/srand(), std::random_device, or getenv() in src/
                    outside the seeded generator src/common/rng.*.
  wall-clock        Timing is observability metadata, never an input: all
                    clock reads (std::chrono clocks, clock_gettime,
                    gettimeofday, time()) in src/, bench/, and examples/
                    must go through obs::MonotonicNanos(), whose
                    implementation src/obs/clock.* is the only file allowed
                    to touch a clock primitive.
  io-accounting     IoStats is the single source of truth for every I/O
                    figure. Counter mutation (mutable_stats) is restricted
                    to the accounting owners (StorageBackend, BufferPool),
                    and direct disk access (ReadPage/ReadPages/WritePage/
                    ScanFile) is restricted to src/io/ and the sequential
                    baseline phases in src/baselines/ — core operators must
                    go through the BufferPool so buffer accounting stays
                    truthful.
  file-io           Raw file I/O primitives (open/fopen/pread/pwrite/...)
                    in src/ are restricted to the FileBackend
                    implementation, the obs artifact writers (run_report,
                    trace_exporter), and the server entry point's
                    control-plane job-file/report handling — everything
                    else must do its I/O through a StorageBackend so every
                    byte is both modeled and measured.
  sync-primitives   All locking in src/ goes through the annotated wrappers
                    in src/common/sync.h (Mutex, MutexLock, CondVar) so
                    Clang thread-safety analysis and the paranoid lock-rank
                    checker see every acquisition: raw std::mutex,
                    std::condition_variable, std::lock_guard & friends are
                    banned in src/ outside src/common/sync.{h,cc}.
  kernel-dispatch   Instruction-set selection is an implementation detail
                    of the batch distance kernels: src/ code must reach
                    them through geom/distance_kernels.h, so __AVX2__,
                    <immintrin.h>, and vector intrinsics are banned in
                    src/ outside src/geom/distance_kernels.{h,cc}.
  lock-rank         The global lock hierarchy is defined once, in
                    src/common/sync.h's lock_rank constants, and documented
                    once, in DESIGN.md's hierarchy table. Every constant
                    must have a unique rank value (the paranoid checker
                    orders acquisitions by it; a duplicate would let two
                    different mutexes interleave undetected), every rank
                    must appear in DESIGN.md, and every capability-table
                    row must name a rank sync.h still defines — an
                    undocumented rank, or a row left behind by a deleted
                    one, means the capability table no longer describes
                    the hierarchy the code enforces.
  include-hygiene   Header guards match the file path (PMJOIN_<PATH>_H_),
                    each src/ .cc includes its own header first, no "../"
                    includes, no angle-bracket includes of project headers.
  whitespace        No tabs, no trailing whitespace, newline at EOF.

Usage: tools/pmjoin_lint.py [--root DIR] [paths...]
Exits non-zero iff any finding is reported.
"""

import argparse
import os
import re
import sys

DEFAULT_SCAN_DIRS = ("src", "tests", "bench", "examples")

# Rules that only make sense for (or are only enforced on) library code.
NO_THROW_DIRS = ("src", "bench", "examples")
DETERMINISM_DIR = "src"
DETERMINISM_ALLOWED = ("src/common/rng.h", "src/common/rng.cc")
WALL_CLOCK_DIRS = ("src", "bench", "examples")
WALL_CLOCK_ALLOWED = ("src/obs/clock.h", "src/obs/clock.cc")
MUTABLE_STATS_ALLOWED = (
    "src/io/storage_backend.h",
    "src/io/storage_backend.cc",
    "src/io/buffer_pool.cc",
)
DIRECT_DISK_ALLOWED_PREFIXES = ("src/io/", "src/baselines/")
FILE_IO_DIR = "src"
FILE_IO_ALLOWED = (
    "src/io/file_backend.cc",
    "src/obs/run_report.cc",
    "src/obs/trace_exporter.cc",
    # Control-plane I/O of the server entry point: reading the job file
    # and writing report artifacts. Data-plane bytes still flow through a
    # StorageBackend.
    "src/tools/pmjoin_server.cc",
)
KERNEL_DISPATCH_ALLOWED = (
    "src/geom/distance_kernels.h",
    "src/geom/distance_kernels.cc",
)
SYNC_PRIMITIVES_DIR = "src"
SYNC_PRIMITIVES_ALLOWED = ("src/common/sync.h", "src/common/sync.cc")

THROW_RE = re.compile(r"\b(throw|try|catch)\b")
DETERMINISM_RE = re.compile(
    r"\b(s?rand\s*\(|std::random_device|random_device\s+\w|getenv\s*\()"
)
WALL_CLOCK_RE = re.compile(
    r"\b(system_clock|steady_clock|high_resolution_clock"
    r"|clock_gettime\s*\(|gettimeofday\s*\(|time\s*\(\s*(NULL|nullptr|0)\s*\))"
)
MUTABLE_STATS_RE = re.compile(r"\bmutable_stats\s*\(")
DIRECT_DISK_RE = re.compile(
    r"(->|\.)\s*(ReadPage|ReadPages|WritePage|ScanFile)\s*\(")
FILE_IO_RE = re.compile(
    r"\b(open|openat|creat|fopen|fdopen|freopen|pread|pwrite|preadv"
    r"|pwritev)\s*\(")
KERNEL_DISPATCH_RE = re.compile(
    r"(__AVX2__|immintrin\.h|\b_mm\d*_\w+|\b(?:FloatStat)?Avx2\w*)")
SYNC_PRIMITIVES_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock)\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+(\S+)")

LOCK_RANK_HEADER = "src/common/sync.h"
LOCK_RANK_DOC = "DESIGN.md"
LOCK_RANK_RE = re.compile(r"\binline constexpr uint32_t (k\w+) = (\d+);")
# A rank is documented if it appears as the numeric second column of a
# DESIGN.md table row (the hierarchy capability table) or in "Rank N"
# prose (kLeaf is described in prose, not a table row).
LOCK_RANK_TABLE_RE = re.compile(r"^\|[^|]+\|\s*(\d+)\s*\|")
LOCK_RANK_PROSE_RE = re.compile(r"[Rr]ank (\d+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Replaces comment and string/char-literal contents with spaces,
    preserving line structure so reported line numbers stay exact."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
                out.append(quote)
            elif ch == "\n":  # unterminated; fail safe
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def expected_guard(rel_path):
    stem = rel_path[len("src/"):] if rel_path.startswith("src/") else rel_path
    token = re.sub(r"[^A-Za-z0-9]", "_", stem[:-2])  # strip ".h"
    return f"PMJOIN_{token.upper()}_H_"


def in_dirs(rel_path, dirs):
    return any(rel_path == d or rel_path.startswith(d + "/") for d in dirs)


def lint_file(root, rel_path):
    findings = []
    abs_path = os.path.join(root, rel_path)
    with open(abs_path, encoding="utf-8") as f:
        raw = f.read()
    code = strip_comments_and_strings(raw)
    raw_lines = raw.split("\n")
    code_lines = code.split("\n")

    # whitespace ------------------------------------------------------------
    for lineno, line in enumerate(raw_lines, 1):
        if "\t" in line:
            findings.append(Finding(rel_path, lineno, "whitespace", "tab character"))
        if line != line.rstrip():
            findings.append(
                Finding(rel_path, lineno, "whitespace", "trailing whitespace"))
    if raw and not raw.endswith("\n"):
        findings.append(
            Finding(rel_path, len(raw_lines), "whitespace", "missing newline at EOF"))

    # token rules over comment/string-stripped code -------------------------
    for lineno, line in enumerate(code_lines, 1):
        if in_dirs(rel_path, NO_THROW_DIRS):
            m = THROW_RE.search(line)
            if m:
                findings.append(Finding(
                    rel_path, lineno, "no-throw",
                    f"'{m.group(1)}': exceptions are banned; return Status "
                    "(common/status.h) or abort via PMJOIN_CHECK"))
        if (in_dirs(rel_path, (DETERMINISM_DIR,))
                and rel_path not in DETERMINISM_ALLOWED):
            m = DETERMINISM_RE.search(line)
            if m:
                findings.append(Finding(
                    rel_path, lineno, "determinism",
                    f"'{m.group(0).strip()}': unseeded nondeterminism; route "
                    "all randomness through a seeded pmjoin::Rng "
                    "(src/common/rng.h)"))
        if (in_dirs(rel_path, (SYNC_PRIMITIVES_DIR,))
                and rel_path not in SYNC_PRIMITIVES_ALLOWED):
            m = SYNC_PRIMITIVES_RE.search(line)
            if m:
                findings.append(Finding(
                    rel_path, lineno, "sync-primitives",
                    f"'{m.group(0)}': raw sync primitive outside "
                    "src/common/sync.*; use the annotated Mutex / MutexLock "
                    "/ CondVar wrappers (common/sync.h) so thread-safety "
                    "analysis and the lock-rank checker see it"))
        if (in_dirs(rel_path, WALL_CLOCK_DIRS)
                and rel_path not in WALL_CLOCK_ALLOWED):
            m = WALL_CLOCK_RE.search(line)
            if m:
                findings.append(Finding(
                    rel_path, lineno, "wall-clock",
                    f"'{m.group(0).strip()}': clock primitive outside "
                    "src/obs/clock.*; read time through "
                    "obs::MonotonicNanos() (obs/clock.h) so timing stays "
                    "observability-only"))
        if (rel_path.startswith("src/")
                and rel_path not in KERNEL_DISPATCH_ALLOWED):
            m = KERNEL_DISPATCH_RE.search(line)
            if m:
                findings.append(Finding(
                    rel_path, lineno, "kernel-dispatch",
                    f"'{m.group(0)}': explicit SIMD lives only in "
                    "src/geom/distance_kernels.*; call the batch kernels "
                    "through geom/distance_kernels.h"))
        if rel_path.startswith("src/"):
            if (MUTABLE_STATS_RE.search(line)
                    and rel_path not in MUTABLE_STATS_ALLOWED):
                findings.append(Finding(
                    rel_path, lineno, "io-accounting",
                    "mutable_stats() outside the accounting owners "
                    "(StorageBackend / BufferPool); counters must only be "
                    "mutated where the I/O is performed"))
            m = DIRECT_DISK_RE.search(line)
            if m and not rel_path.startswith(DIRECT_DISK_ALLOWED_PREFIXES):
                findings.append(Finding(
                    rel_path, lineno, "io-accounting",
                    f"direct disk access '{m.group(2)}' outside src/io/ and "
                    "src/baselines/; operators must read through the "
                    "BufferPool so residency accounting stays truthful"))
            m = FILE_IO_RE.search(line)
            if m and rel_path not in FILE_IO_ALLOWED:
                findings.append(Finding(
                    rel_path, lineno, "file-io",
                    f"raw file I/O '{m.group(1)}' outside the FileBackend "
                    "TU and the obs artifact writers; go through a "
                    "StorageBackend so the byte is modeled and measured"))

    # include hygiene -------------------------------------------------------
    # Directives are detected on the comment-stripped text (so commented-out
    # includes don't count) but targets are read from the raw line (the
    # stripper blanks string contents).
    includes = []  # (lineno, style, target)
    for lineno, line in enumerate(code_lines, 1):
        if INCLUDE_RE.match(line):
            m = INCLUDE_RE.match(raw_lines[lineno - 1])
            if m:
                includes.append((lineno, m.group(1), m.group(2)))
    for lineno, style, target in includes:
        if target.startswith("../"):
            findings.append(Finding(
                rel_path, lineno, "include-hygiene",
                f'relative include "{target}"; include project headers by '
                "their src/-relative path"))
        if style == "<" and os.path.exists(os.path.join(root, "src", target)):
            findings.append(Finding(
                rel_path, lineno, "include-hygiene",
                f"project header <{target}> included with angle brackets; "
                "use quotes"))

    if rel_path.startswith("src/"):
        if rel_path.endswith(".h"):
            guards = [(ln, GUARD_RE.match(l).group(1))
                      for ln, l in enumerate(code_lines, 1) if GUARD_RE.match(l)]
            want = expected_guard(rel_path)
            if not guards:
                findings.append(Finding(
                    rel_path, 1, "include-hygiene",
                    f"missing header guard (expected {want})"))
            elif guards[0][1] != want:
                findings.append(Finding(
                    rel_path, guards[0][0], "include-hygiene",
                    f"header guard {guards[0][1]} should be {want}"))
        if rel_path.endswith(".cc"):
            own = rel_path[len("src/"):-len(".cc")] + ".h"
            if os.path.exists(os.path.join(root, "src", own)):
                if not includes or includes[0][2] != own:
                    findings.append(Finding(
                        rel_path, includes[0][0] if includes else 1,
                        "include-hygiene",
                        f'first include must be the own header "{own}"'))

    return findings


def lint_lock_ranks(root):
    """Repo-level rule: the sync.h lock-rank constants are unique, each
    rank appears in DESIGN.md's lock hierarchy documentation, and each
    capability-table row names a defined rank."""
    findings = []
    sync_path = os.path.join(root, LOCK_RANK_HEADER)
    doc_path = os.path.join(root, LOCK_RANK_DOC)
    if not os.path.exists(sync_path) or not os.path.exists(doc_path):
        return findings

    with open(sync_path, encoding="utf-8") as f:
        sync_code = strip_comments_and_strings(f.read())
    ranks = []  # (lineno, name, value)
    for lineno, line in enumerate(sync_code.split("\n"), 1):
        m = LOCK_RANK_RE.search(line)
        if m:
            ranks.append((lineno, m.group(1), int(m.group(2))))
    if not ranks:
        findings.append(Finding(
            LOCK_RANK_HEADER, 1, "lock-rank",
            "no lock_rank constants found; the lint rule and the header "
            "have diverged"))
        return findings

    first_with = {}
    for lineno, name, value in ranks:
        if value in first_with:
            findings.append(Finding(
                LOCK_RANK_HEADER, lineno, "lock-rank",
                f"{name} reuses rank {value} of {first_with[value]}; ranks "
                "must be unique so the paranoid checker totally orders "
                "acquisitions"))
        else:
            first_with[value] = name

    with open(doc_path, encoding="utf-8") as f:
        doc_lines = f.read().split("\n")
    documented = set()
    table_rows = []  # (lineno, rank)
    for lineno, line in enumerate(doc_lines, 1):
        m = LOCK_RANK_TABLE_RE.match(line)
        if m:
            documented.add(int(m.group(1)))
            table_rows.append((lineno, int(m.group(1))))
        for m in LOCK_RANK_PROSE_RE.finditer(line):
            documented.add(int(m.group(1)))
    for lineno, name, value in ranks:
        if value not in documented:
            findings.append(Finding(
                LOCK_RANK_HEADER, lineno, "lock-rank",
                f"rank {value} ({name}) is not in {LOCK_RANK_DOC}'s lock "
                "hierarchy table; document every rank so the capability "
                "table matches what the code enforces"))
    for lineno, value in table_rows:
        if value not in first_with:
            findings.append(Finding(
                LOCK_RANK_DOC, lineno, "lock-rank",
                f"capability-table row has rank {value}, which "
                f"{LOCK_RANK_HEADER} does not define; delete the row with "
                "its rank"))
    return findings


def collect_files(root, paths):
    rels = []
    if paths:
        for p in paths:
            # Interpret explicit paths relative to --root first (the form
            # check_all.sh and CI use), falling back to the cwd.
            if not os.path.isabs(p) and os.path.exists(os.path.join(root, p)):
                rels.append(p)
            else:
                rels.append(os.path.relpath(os.path.abspath(p), root))
        return rels
    for d in DEFAULT_SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in sorted(names):
                if name.endswith((".h", ".cc", ".cpp")):
                    rels.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(rels)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: src tests bench examples)")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    args = parser.parse_args()

    all_findings = []
    for rel in collect_files(args.root, args.paths):
        all_findings.extend(lint_file(args.root, rel))
    all_findings.extend(lint_lock_ranks(args.root))

    for finding in all_findings:
        print(finding)
    if all_findings:
        print(f"pmjoin_lint: {len(all_findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
