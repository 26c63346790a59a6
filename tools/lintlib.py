#!/usr/bin/env python3
"""lintlib: the plumbing shared by wire_lint, wire_taint and affinity_check.

The allowlist ('path | line-pattern | reason' lines), the lexer that blanks
comments and string literals, the walk over src/**/*.{h,cc}, the findings
and stale-entry report, the exit status (0 clean, 1 findings or stale
allowlist entries, 2 malformed allowlist), the --root/--allowlist/
--self-test front end and the synthetic-tree self-test harness. Each lint
keeps its own rules; docs/static_analysis.md states the allowlist format
and its stale-entry policy.

Usage:
    tools/lintlib.py --self-test
"""

import argparse
import contextlib
import io
import pathlib
import sys
import tempfile

SCAN_SUFFIXES = {".h", ".cc"}
SKIP_DIR_NAMES = {"CMakeFiles"}


class AllowEntry:
    def __init__(self, path, pattern, reason, lineno):
        self.path = path
        self.pattern = pattern
        self.reason = reason
        self.lineno = lineno
        self.used = False

    def matches(self, rel_path, line):
        return rel_path == self.path and self.pattern in line


def load_allowlist(path):
    entries = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|", 2)]
        if len(parts) != 3 or not all(parts):
            print(f"{path}:{lineno}: malformed allowlist entry "
                  f"(want 'path | line-pattern | reason')", file=sys.stderr)
            sys.exit(2)
        entries.append(AllowEntry(parts[0], parts[1], parts[2], lineno))
    return entries


def allowlisted(allowlist, rel, raw):
    """True when an entry excuses raw line `raw` of file `rel`; the first
    such entry is marked used."""
    for entry in allowlist:
        if entry.matches(rel, raw):
            entry.used = True
            return True
    return False


def strip_comments_and_strings(line, in_block_comment):
    """Blank out comment and string-literal contents so rule regexes only
    see code. An opening quote is kept, so `f("x")` still reads as a call
    with an argument. Returns (code_text, still_in_block_comment)."""
    out = []
    i = 0
    in_string = None
    while i < len(line):
        ch = line[i]
        nxt = line[i + 1] if i + 1 < len(line) else ""
        if in_block_comment:
            if ch == "*" and nxt == "/":
                in_block_comment = False
                i += 2
            else:
                i += 1
            continue
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == in_string:
                in_string = None
            i += 1
            continue
        if ch == "/" and nxt == "/":
            break
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch in "\"'":
            in_string = ch
            out.append(ch)
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def iter_source_files(root):
    """Yield (rel, path) for each scanned file, rel being the path relative
    to root in posix form (what allowlist entries and findings name)."""
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix not in SCAN_SUFFIXES:
            continue
        if any(part in SKIP_DIR_NAMES for part in path.parts):
            continue
        yield path.relative_to(root).as_posix(), path


def source_lines(path):
    """Yield (lineno, raw, code) for each line of path, where code is raw
    with comments and string-literal contents blanked."""
    in_block = False
    for lineno, raw in enumerate(
            path.read_text(errors="replace").splitlines(), 1):
        code, in_block = strip_comments_and_strings(raw, in_block)
        yield lineno, raw, code


def report(tool, findings, allowlist, allow_path, clean):
    """Print the findings ((rel, lineno, rule, message, raw) tuples) and
    the stale allowlist entries, or `tool: clean` when there are neither.
    Returns the exit status."""
    status = 0
    if findings:
        print(f"{tool}: {len(findings)} finding(s)\n")
        print("\n".join(f"{rel}:{lineno}: {rule}: {msg}\n    {raw}"
                        for rel, lineno, rule, msg, raw in findings))
        status = 1
    stale = [e for e in allowlist if not e.used]
    if stale:
        print(f"{tool}: stale allowlist entries "
              "(nothing matches — delete them):")
        for e in stale:
            print(f"  {allow_path}:{e.lineno}: {e.path} | {e.pattern}")
        status = 1
    if status == 0:
        print(f"{tool}: {clean}")
    return status


def main(doc, default_allowlist, run, self_test, noun="checker",
         canary=None, argv=None):
    """The shared command line. run(root, allowlist, allow_path) and
    self_test() return the exit status. canary, when given, is
    (help, fn): --canary calls fn like run."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--allowlist", default=None,
                    help=f"allowlist file (default: {default_allowlist})")
    ap.add_argument("--self-test", action="store_true",
                    help=f"run the {noun}'s own rule tests and exit")
    if canary is not None:
        ap.add_argument("--canary", action="store_true", help=canary[0])
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    allow_path = pathlib.Path(args.allowlist) if args.allowlist else \
        root / default_allowlist
    allowlist = load_allowlist(allow_path)
    if canary is not None and args.canary:
        return canary[1](root, allowlist, allow_path)
    return run(root, allowlist, allow_path)


# --- self-test harness -----------------------------------------------------

def run_self_test(tool, expect, scan, allow, files=None, extra=None):
    """Write files ({path: text}) into a scratch tree and run
    scan(root, allowlist) -> findings over it, with one allowlist entry
    that must match (allow = (path, pattern)) and one stale entry. Each
    (path, line, expected) case of expect compares the set of rules found
    at path, or their rule -> count map, with expected; line labels a
    failure. Without files, the tree is the lines of expect, appended per
    path in order. extra(root, findings) runs a tool's own checks and
    returns (cases, failures). Prints the verdict; returns the exit
    status."""
    if files is None:
        files = {}
        for rel, line, _ in expect:
            files[rel] = files.get(rel, "") + line + "\n"
    failures = []
    with tempfile.TemporaryDirectory(prefix=f"{tool}_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        hit = AllowEntry(*allow, "self-test entry", 1)
        stale = AllowEntry("src/nonexistent.cc", "never-matches",
                           "self-test stale entry", 2)
        findings = scan(root, [hit, stale])
        got = {}
        for rel, _lineno, rule, _msg, _raw in findings:
            got.setdefault(rel, {}).setdefault(rule, 0)
            got[rel][rule] += 1
        for rel, line, expected in expect:
            actual = got.get(rel, {})
            if isinstance(expected, set):
                actual, expected = sorted(actual), sorted(expected)
            else:
                expected = {k: v for k, v in expected.items() if v}
            if actual != expected:
                failures.append(f"  {rel}: expected {expected}, got "
                                f"{actual}" + (f"\n    {line}" if line else ""))
        if not hit.used:
            failures.append("  allowlist entry that matches was not "
                            "marked used")
        if stale.used:
            failures.append("  allowlist entry that matches nothing was "
                            "marked used")
        cases = len(expect)
        if extra is not None:
            n, more = extra(root, findings)
            cases += n
            failures += more
    return verdict(tool, cases, failures)


def verdict(tool, cases, failures):
    if failures:
        print(f"{tool} --self-test: {len(failures)} failure(s)")
        print("\n".join(failures))
        return 1
    print(f"{tool} --self-test: {cases} cases ok")
    return 0


# --- the library's own self-test -------------------------------------------

# (source lines, expected code lines) for the lexer.
STRIP_CASES = [
    # A block comment spanning lines hides everything up to its close.
    (["int a; /* opens", "reinterpret_cast<T>(p) */ int b;"],
     ["int a; ", " int b;"]),
    # An escaped quote does not end the literal.
    ([r's = "a\"b mprotect("; t = 1;'], ['s = "; t = 1;']),
    # `//` inside a string literal is not a comment.
    (['f("http://x"); g();  // tail'], ['f("); g();  ']),
    # Character literals holding a quote and a slash.
    (["c = '\"'; d = '/'; e = 1;"], ["c = '; d = '; e = 1;"]),
]


def self_test():
    failures = []
    for lines, want in STRIP_CASES:
        got, in_block = [], False
        for line in lines:
            code, in_block = strip_comments_and_strings(line, in_block)
            got.append(code)
        if got != want:
            failures.append(f"  strip {lines!r}: got {got!r}")
    # A malformed allowlist line exits 2 from the front end, before any
    # scan runs (run is None here).
    with tempfile.TemporaryDirectory(prefix="lintlib_selftest_") as tmp:
        bad = pathlib.Path(tmp) / "allow.txt"
        bad.write_text("# comment\n\nsrc/a.cc | memcpy(\n")
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                main("t: doc", bad.name, None, None, argv=["--root", tmp])
            code = 0
        except SystemExit as e:
            code = e.code
        if code != 2:
            failures.append(f"  malformed allowlist: exit {code}, want 2")
    stale = AllowEntry("src/a.cc", "never-matches", "reason", 3)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        statuses = [report("t", [], [], "-", "clean"),
                    report("t", [("src/a.cc", 1, "r", "m", "raw")], [], "-",
                           "clean"),
                    report("t", [], [stale], "-", "clean")]
    if statuses != [0, 1, 1] or not out.getvalue().startswith("t: clean\n"):
        failures.append(f"  exit status (clean, finding, stale entry): "
                        f"{statuses}, want [0, 1, 1]\n{out.getvalue()}")
    return verdict("lintlib", len(STRIP_CASES) + 2, failures)


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        print("usage: lintlib.py --self-test", file=sys.stderr)
        sys.exit(2)
    sys.exit(self_test())
