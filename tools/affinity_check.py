#!/usr/bin/env python3
"""affinity_check: static shard-affinity lint for the broker's thread model.

The broker's performance model hangs on one invariant: a connection's whole
life happens on one worker core. Conn, SendQueue, and the per-worker
BufferPool arena are single-threaded by construction and carry no locks —
so the *only* thing keeping them correct is that no code path ever touches
them from another thread. This tool is the static half of that contract
(src/util/affinity.h's ThreadOwner asserts are the dynamic half): a
structured-grep pass, wire_lint style, over src/**/*.{h,cc}.

The vocabulary is one comment tag on a declaration:

    // thread-domain: worker   single-threaded on its owning worker thread
    // thread-domain: any      callable/usable from any thread
    // thread-domain: signal   safe even in async-signal context

Rules:

  A1 required-decl     the symbols in REQUIRED_DECLS (the broker's
                       concurrency-critical surface) must each carry a
                       thread-domain tag — the contract must be written
                       down, not implied.
  A2 domain-value      a thread-domain tag must name a known domain.
  A3 worker-confinement a worker-domain type may be named (in code —
                       comments, strings and #includes don't count) only
                       inside the worker domain: its own .h/.cc pair or a
                       file that itself declares a worker-domain symbol.
                       Anywhere else is a cross-thread leak unless the
                       line carries `// affinity: ok <reason>` or an
                       allowlist entry ('path | pattern | reason', same
                       format as wire_lint_allow.txt).

Usage:
    tools/affinity_check.py [--root ROOT] [--allowlist FILE] [--self-test]

Exits 0 when clean, 1 on findings or stale allowlist entries.
"""

import re
import sys

import lintlib

DEFAULT_ALLOWLIST = "tools/affinity_allow.txt"

VALID_DOMAINS = {"worker", "any", "signal"}

# The broker's concurrency-critical surface: every one of these must carry
# an explicit thread-domain tag at its declaration.
REQUIRED_DECLS = {
    "Conn", "SendQueue", "Worker", "Shared", "Broker",  # broker core
    "BufferPool",                                       # per-worker arena
    "flight_record", "flight_arm", "flight_armed", "flight_dump",
    "ArtifactCache",                    # process-wide conversion cache
    "PagePool",                         # process-wide JIT code pages
}

RE_TAG = re.compile(r"//\s*thread-domain:\s*(\S+)")
RE_OK_MARKER = re.compile(r"//\s*affinity:\s*ok\b")
RE_CLASS_DECL = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)")
RE_FN_DECL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
RE_INCLUDE = re.compile(r"^\s*#\s*include\b")


class Symbol:
    def __init__(self, name, domain, rel, lineno):
        self.name = name
        self.domain = domain
        self.rel = rel
        self.lineno = lineno


def decl_name(code):
    """Symbol a thread-domain tag binds to: the class/struct name on the
    line, else the identifier in front of the first '(' (a function)."""
    m = RE_CLASS_DECL.search(code)
    if m:
        return m.group(1)
    m = RE_FN_DECL.search(code)
    if m:
        return m.group(1)
    return None


def collect_symbols(root, findings):
    """First pass: harvest thread-domain tags into a symbol table and flag
    malformed domains (A2) and dangling tags."""
    symbols = {}
    worker_files = set()
    for rel, path in lintlib.iter_source_files(root):
        pending = None  # (domain, tag_lineno) awaiting its declaration
        for lineno, raw, code in lintlib.source_lines(path):
            tag = RE_TAG.search(raw)
            if tag:
                domain = tag.group(1)
                if domain not in VALID_DOMAINS:
                    findings.append(
                        (rel, lineno, "domain-value",
                         f"unknown thread-domain '{domain}' (want "
                         f"{'|'.join(sorted(VALID_DOMAINS))})", raw.strip()))
                else:
                    pending = (domain, lineno)
                    if domain == "worker":
                        worker_files.add(rel)
                continue
            if pending is None or not code.strip():
                continue
            name = decl_name(code)
            if name is not None:
                domain, tag_lineno = pending
                symbols[name] = Symbol(name, domain, rel, tag_lineno)
            # Tag consumed whether or not a name was found: it binds to
            # the next declaration only, never across unrelated code.
            pending = None
    return symbols, worker_files


def check_required(symbols, findings):
    for name in sorted(REQUIRED_DECLS):
        if name not in symbols:
            findings.append(
                ("(global)", 0, "required-decl",
                 f"'{name}' has no `// thread-domain:` tag — the broker's "
                 "concurrency-critical surface must declare its thread "
                 "model", name))


def check_confinement(root, symbols, worker_files, allowlist, findings):
    worker_types = {s.name: s for s in symbols.values()
                    if s.domain == "worker"}
    if not worker_types:
        return
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(n) for n in sorted(worker_types)) + r")\b")
    for rel, path in lintlib.iter_source_files(root):
        stem_dir = (path.parent / path.stem).as_posix()
        for lineno, raw, code in lintlib.source_lines(path):
            if not code.strip() or RE_INCLUDE.match(code):
                continue
            for m in pattern.finditer(code):
                sym = worker_types[m.group(1)]
                decl_path = root / sym.rel
                own_stem = (decl_path.parent / decl_path.stem).as_posix()
                if rel in worker_files or stem_dir == own_stem:
                    continue
                if RE_OK_MARKER.search(raw) or \
                        lintlib.allowlisted(allowlist, rel, raw):
                    break
                findings.append(
                    (rel, lineno, "worker-confinement",
                     f"'{sym.name}' is thread-domain worker "
                     f"(declared {sym.rel}:{sym.lineno}) but is named "
                     "outside the worker domain — cross-thread use would "
                     "break the one-core-per-connection invariant",
                     raw.strip()))
                break  # one finding per line is enough


def run(root, allowlist, allow_path):
    findings = []
    symbols, worker_files = collect_symbols(root, findings)
    check_required(symbols, findings)
    check_confinement(root, symbols, worker_files, allowlist, findings)
    tagged = ", ".join(
        f"{s.name}={s.domain}" for s in sorted(
            symbols.values(), key=lambda s: s.name))
    return lintlib.report("affinity_check", findings, allowlist, allow_path,
                          f"clean ({len(symbols)} tagged: {tagged})")


# --- self-test -----------------------------------------------------------
# Synthetic tree cases, wire_lint style: (path, line, expected-rule-set).
# Lines that share a path are appended in order and each carries the
# file-level verdict.
SELF_TEST_CASES = [
    # Tagged worker class used inside its own .h/.cc pair and inside a
    # worker-domain file: clean.
    ("src/b/widget.h", "// thread-domain: worker", set()),
    ("src/b/widget.h", "class Widget {};", set()),
    ("src/b/widget.cc", "Widget w;", set()),
    ("src/b/engine.h", "// thread-domain: worker", set()),
    ("src/b/engine.h", "class Engine { Widget w_; };", set()),
    # A3: worker type named in a non-worker file.
    ("src/c/leak.cc", "Widget stolen;", {"worker-confinement"}),
    # ...unless the line is marked or comment-only.
    ("src/c/marked.cc", "Widget lent;  // affinity: ok handoff protocol",
     set()),
    ("src/c/comment.cc", "// Widget only in prose here", set()),
    ("src/c/include.cc", '#include "b/widget.h"', set()),
    # ...or allowlisted.
    ("src/c/allowed.cc", "Widget borrowed;", set()),
    # A2: unknown domain value.
    ("src/c/badtag.h", "// thread-domain: gpu", {"domain-value"}),
    ("src/c/badtag.h", "class BadTag {};", {"domain-value"}),
    # any/signal tags parse and impose no confinement.
    ("src/c/free.h", "// thread-domain: any", set()),
    ("src/c/free.h", "void helper();", set()),
    ("src/c/sig.h", "// thread-domain: signal", set()),
    ("src/c/sig.h", "void dumper();", set()),
]


def scan_confinement(root, allowlist):
    findings = []
    symbols, worker_files = collect_symbols(root, findings)
    check_confinement(root, symbols, worker_files, allowlist, findings)
    return findings


def check_symbols(root, _findings):
    """The symbol table itself must come out right, and required-decl
    must fire for every symbol an empty table lacks."""
    failures = []
    symbols, _ = collect_symbols(root, [])
    expect_syms = {"Widget": "worker", "Engine": "worker",
                   "helper": "any", "dumper": "signal"}
    for name, domain in expect_syms.items():
        sym = symbols.get(name)
        if sym is None or sym.domain != domain:
            failures.append(f"  symbol {name}: expected domain "
                            f"{domain}, got "
                            f"{sym.domain if sym else 'missing'}")
    req = []
    check_required({}, req)
    if len(req) != len(REQUIRED_DECLS):
        failures.append("  required-decl did not fire for every "
                        "missing symbol")
    return 0, failures


def self_test():
    return lintlib.run_self_test(
        "affinity_check", SELF_TEST_CASES, scan_confinement,
        allow=("src/c/allowed.cc", "Widget borrowed"), extra=check_symbols)


if __name__ == "__main__":
    sys.exit(lintlib.main(__doc__, DEFAULT_ALLOWLIST, run, self_test))
