#!/usr/bin/env python3
"""Repo-specific static lint for the PREPARE codebase.

Enforced rules (each maps to a real bug class we care about):

  R1  no-raw-rand      rand()/srand()/std::rand()/time(NULL)-style seeding
                       outside src/common/rng.h. Every stochastic draw must
                       go through prepare::Rng so runs stay reproducible
                       from their seed.
  R2  no-using-std     `using namespace std;` in a header leaks into every
                       includer; banned in .h files.
  R3  own-header-first every src/**/foo.cpp whose sibling foo.h exists must
                       include "its-dir/foo.h" as the FIRST include, so the
                       header is proven self-contained by every build.
  R4  pragma-once      every header starts its preprocessor life with
                       `#pragma once` (first directive line).
  R5  (retired)        annotated-mutex moved to tools/prepare_analyze.py
                       rule `mutex-type`: the AST pass matches canonical
                       types, so a typedef of std::mutex cannot dodge it
                       the way it could dodge this file's regex.
  R6  no-thread-detach std::thread::detach() leaks a running thread past
                       the owner's lifetime; every thread in this tree is
                       joined (see ThreadPool).
  R7  no-sleep-sync    sleep_for/sleep_until inside tests/ — sleeping to
                       "wait for" another thread is a flaky race, not a
                       synchronisation; use joins/latches/condvars.
  R8  locked-requires  a `..._locked(` helper declared in a header must
                       carry PREPARE_REQUIRES(mu) so the analysis checks
                       its callers actually hold the lock.
  R9  one-decision-spine  in src/core/*.cpp, only the decision spine
                       (decision_sinks.cpp) may write EventLog records
                       (`log->record(` / `log_->record(`), drive SpanTracer
                       lifecycle calls (raw_alert, reactive_alert,
                       confirmed, cause_inferred, prevention_issued,
                       validated, escalated, workload_change_suppressed,
                       observe_slo), record recorder evidence
                       (record_diagnosis / record_prevention) or bump a
                       counter (`obs::inc(`). A decision reported by hand
                       next to the spine drifts out of sync with the other
                       channels. The one exemption is experiment.cpp's
                       obs::inc of the run loop's own run.* tick and
                       sample counters, which count no decision.

Usage: check_invariants.py [PATHS...]   (default: src)
Exits 0 when clean, 1 with one "path:line: [rule] message" per violation.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

RAW_RAND_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand|rand_r|drand48)\s*\("
    r"|time\s*\(\s*(?:NULL|0|nullptr)\s*\)"
)
USING_STD_RE = re.compile(r"^\s*using\s+namespace\s+std\s*;")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+[<"]([^>"]+)[>"]')
DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)")
COMMENT_LINE_RE = re.compile(r"^\s*(//|\*|/\*)")

RAW_RAND_ALLOWED_SUFFIX = "src/common/rng.h"

THREAD_DETACH_RE = re.compile(r"\.\s*detach\s*\(")
SLEEP_SYNC_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")
LOCKED_HELPER_RE = re.compile(r"\b\w+_locked\s*\(")
# A `_locked(` occurrence is a *call* (not a declaration) when an
# expression context immediately precedes it: return / assignment /
# member access / nesting inside another call's argument list.
LOCKED_CALL_PREFIX_RE = re.compile(r"(?:\breturn|=|\.|->|\(|,)\s*$")
SPINE_CALL_RE = re.compile(
    r"\blog_?\s*->\s*record\s*\("
    r"|(?:\.|->)\s*(?:raw_alert|reactive_alert|confirmed|cause_inferred"
    r"|prevention_issued|validated|escalated|workload_change_suppressed"
    r"|observe_slo|record_diagnosis|record_prevention)\s*\("
    r"|\bobs::inc\s*\(")
SPINE_FILE = "decision_sinks.cpp"
# (file name, call prefix) pairs R9 allows; see the docstring.
SPINE_EXEMPT = {("experiment.cpp", "obs::inc")}


def strip_line_comment(line: str) -> str:
    """Removes // comments and string literals (good enough for a lint)."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"//.*$", "", line)
    return line


def src_root_of(path: Path) -> Path | None:
    """Nearest ancestor directory named `src`, or None."""
    for parent in path.parents:
        if parent.name == "src":
            return parent
    return None


def check_file(path: Path) -> list[tuple[Path, int, str, str]]:
    try:
        rel = path.relative_to(REPO_ROOT)
    except ValueError:
        rel = path
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    findings = []

    in_block_comment = False
    first_include: tuple[int, str] | None = None
    first_directive: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block_comment = False
            else:
                continue
        if "/*" in line and "*/" not in line.split("/*", 1)[1]:
            line = line.split("/*", 1)[0]
            in_block_comment = True
        # Match includes on the unstripped line: the string stripper would
        # blank out quoted include paths.
        if (m := INCLUDE_RE.match(line)) and first_include is None:
            first_include = (lineno, m.group(1))

        code = strip_line_comment(line)

        if m := DIRECTIVE_RE.match(code):
            if first_directive is None:
                first_directive = m.group(1)
                if m.group(1) == "pragma" and "once" not in code:
                    first_directive = "pragma-other"

        if (not str(path).endswith(RAW_RAND_ALLOWED_SUFFIX)
                and RAW_RAND_RE.search(code)):
            findings.append(
                (rel, lineno, "no-raw-rand",
                 "raw rand()/time(NULL)-style call; draw from "
                 "prepare::Rng (src/common/rng.h) instead"))

        if path.suffix == ".h" and USING_STD_RE.match(code):
            findings.append(
                (rel, lineno, "no-using-std",
                 "`using namespace std;` in a header pollutes every "
                 "includer"))

        if THREAD_DETACH_RE.search(code):
            findings.append(
                (rel, lineno, "no-thread-detach",
                 "detached threads outlive their owner's state; keep the "
                 "handle and join() (see prepare::ThreadPool)"))

        if "tests/" in str(rel).replace("\\", "/") and \
                SLEEP_SYNC_RE.search(code):
            findings.append(
                (rel, lineno, "no-sleep-sync",
                 "sleeping is not synchronisation — a slow machine turns "
                 "this test flaky; join the thread or wait on a condition"))

        if (path.suffix == ".cpp" and path.parent.name == "core"
                and path.parent.parent.name == "src"
                and path.name != SPINE_FILE
                and (m := SPINE_CALL_RE.search(code))
                and not any(path.name == f and m.group(0).startswith(c)
                            for f, c in SPINE_EXEMPT)):
            findings.append(
                (rel, lineno, "one-decision-spine",
                 f"`{m.group(0).strip()}` reports a decision by hand; emit "
                 "a DecisionEvent through DecisionSinks "
                 "(src/core/decision_sinks.h) instead"))

        if path.suffix == ".h" and (m := LOCKED_HELPER_RE.search(code)):
            prefix = code[:m.start()]
            if not LOCKED_CALL_PREFIX_RE.search(prefix):
                # Declaration: the annotation must appear before the
                # declarator ends (same line or a continuation line).
                decl = code
                probe = lineno
                while ";" not in decl and "{" not in decl and \
                        probe < len(lines):
                    decl += " " + strip_line_comment(lines[probe])
                    probe += 1
                if "PREPARE_REQUIRES" not in decl:
                    findings.append(
                        (rel, lineno, "locked-requires",
                         f"`{m.group(0).rstrip('(').rstrip()}` helper must "
                         "declare PREPARE_REQUIRES(mu) so callers are "
                         "checked to hold the lock"))

    if path.suffix == ".h":
        has_pragma_once = first_directive == "pragma" and "#pragma once" in text
        if not has_pragma_once:
            findings.append(
                (rel, 1, "pragma-once",
                 "header must start with `#pragma once` before any other "
                 "preprocessor directive"))

    src_root = src_root_of(path)
    if path.suffix == ".cpp" and src_root is not None:
        own_header = path.with_suffix(".h")
        if own_header.exists():
            expected = str(own_header.relative_to(src_root))
            if first_include is None or first_include[1] != expected:
                got = first_include[1] if first_include else "none"
                findings.append(
                    (rel, first_include[0] if first_include else 1,
                     "own-header-first",
                     f'first include must be "{expected}" (got {got}) so '
                     "the header stays self-contained"))

    return findings


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv[1:]] or [REPO_ROOT / "src"]
    files: list[Path] = []
    for root in roots:
        root = root if root.is_absolute() else REPO_ROOT / root
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.h")))
            files.extend(sorted(root.rglob("*.cpp")))
    # tests/analyze_fixtures holds deliberately-bad inputs for
    # prepare_analyze.py's self-test; linting them defeats the point.
    files = [f for f in files
             if "analyze_fixtures" not in f.as_posix().split("/")]

    all_findings = []
    for f in files:
        all_findings.extend(check_file(f))

    for rel, lineno, rule, msg in all_findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if all_findings:
        print(f"check_invariants: {len(all_findings)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"check_invariants: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
