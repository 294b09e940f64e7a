#!/usr/bin/env python3
"""dcp_lint — repo invariants the compiler cannot enforce.

Rules:
  determinism   No unordered-container iteration in plan-serialization /
                signature paths. Plan bytes, record bytes, and signatures must be
                bit-identical across processes; unordered_map/set iteration order
                is not (it varies with hashed pointers and per-process seeds), so
                any range-for over an unordered container in those files is a bug
                waiting to feed nondeterministic bytes onto the wire or disk.
  rng           No rand()/srand()/std::random_device/std::mt19937/time()-seeded
                randomness outside src/common/rng.* — every draw in the planner
                and the fault injector must come from the seeded deterministic
                streams, or plans and fault schedules stop replaying.
  blocking-io   No blocking connect/send/recv (ConnectSocket, SendAll, RecvAll,
                WriteFrame, ReadFrame) from event-loop code (plan_server.cc,
                event_loop.cc). A loop thread that blocks on one peer starves
                every connection it multiplexes. Threads the server owns that are
                NOT loop callbacks (gossip) annotate each call site.
  nodiscard     Status and StatusOr in src/common/status.h must stay
                [[nodiscard]] — that attribute is what turns a silently dropped
                error into a compile error under -Werror.
  timing        No ad-hoc std::chrono clock reads (steady_clock::now etc.) in
                src/ or examples/ outside src/common/metrics.* — timing spans
                go through metrics::MonotonicNanos/Micros/Millis and the scoped
                timers so every span is scrapeable, consistent, and greppable
                in one place. Benches and tests are exempt by location.

Suppression: a finding is waived when its line, or the line directly above,
contains `dcp-lint: allow(<rule>)` with a reason.

Exit 0 when clean, 1 with file:line findings otherwise.
`--self-test` seeds one violation of each rule in a temp tree and verifies the
linter catches all of them (and that a clean snippet passes).
"""

import argparse
import os
import re
import sys
import tempfile

# Files whose output bytes must be deterministic: signature computation, the
# shared byte codec, plan binary serialization, store record encoding, service
# messages, and wire framing.
DETERMINISM_FILES = [
    "src/common/bytes.h",
    "src/core/plan_signature.cc",
    "src/core/plan_signature.h",
    "src/core/plan_store.cc",
    "src/core/plan_store.h",
    "src/runtime/instructions.cc",
    "src/runtime/instructions.h",
    "src/service/frame.cc",
    "src/service/frame.h",
    "src/service/messages.cc",
    "src/service/messages.h",
]

# Event-loop code: blocking transport calls here stall every multiplexed
# connection on the loop thread.
EVENT_LOOP_FILES = [
    "src/service/plan_server.cc",
    "src/service/event_loop.cc",
]

RNG_EXEMPT = ("src/common/rng.h", "src/common/rng.cc")

# The one blessed home of raw clock reads; everything else uses its helpers.
TIMING_EXEMPT = ("src/common/metrics.h", "src/common/metrics.cc")

TIMING_RE = re.compile(
    r"\b(?:steady_clock|high_resolution_clock|system_clock)\s*::\s*now\s*\("
)

ALLOW_RE = re.compile(r"dcp-lint:\s*allow\(([a-z-]+)\)")

BLOCKING_CALL_RE = re.compile(
    r"\b(ConnectSocket|SendAll|RecvAll|WriteFrame|ReadFrame)\s*\("
)

RNG_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand() (unseeded global RNG)"),
    (re.compile(r"\bsrand\s*\("), "srand() (global RNG seeding)"),
    (re.compile(r"std::random_device"), "std::random_device (nondeterministic)"),
    (re.compile(r"std::mt19937"), "std::mt19937 (use common/rng streams)"),
    (re.compile(r"std::default_random_engine"), "std::default_random_engine"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time()-derived value (wall clock as a seed/input)"),
]

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*:\s*\*?([A-Za-z_][\w.\->\[\]]*)\s*\)")


def strip_comments_and_strings(text):
    """Blank out comments and string literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allowed(lines, lineno, rule):
    """True when line `lineno` (1-based) or the one above carries the waiver."""
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(lines):
            m = ALLOW_RE.search(lines[idx])
            if m and m.group(1) == rule:
                return True
    return False


def unordered_variable_names(code):
    """Names of variables declared with an unordered container type."""
    names = set()
    # Statement-wise scan: declarations may span lines (template args, GUARDED_BY).
    for stmt in code.split(";"):
        if not UNORDERED_DECL_RE.search(stmt):
            continue
        tail = stmt[stmt.rfind(">") + 1:]
        m = re.search(r"\b([A-Za-z_]\w*)\b", tail)
        if not m:
            continue
        name = m.group(1)
        after = tail[m.end():].lstrip()
        # Skip function declarations/definitions and qualified names: those are
        # return types, not iterable locals/members.
        if after.startswith("(") or after.startswith("::"):
            continue
        if name in ("DCP_GUARDED_BY", "const", "mutable", "static"):
            continue
        names.add(name)
    return names


def check_determinism(path, raw_lines, code, extra_names=()):
    findings = []
    names = unordered_variable_names(code) | set(extra_names)
    for lineno, line in enumerate(code.splitlines(), start=1):
        for m in RANGE_FOR_RE.finditer(line):
            expr = m.group(1)
            base = re.split(r"\.|->", expr)[-1].rstrip("[]")
            direct = "unordered_" in expr
            if (base in names or direct) and not allowed(raw_lines, lineno,
                                                         "unordered-iteration"):
                findings.append(
                    (path, lineno, "determinism",
                     f"range-for over unordered container '{expr}' in a "
                     "serialization/signature path — iteration order is not "
                     "deterministic across processes"))
    return findings


def check_rng(path, raw_lines, code):
    findings = []
    for lineno, line in enumerate(code.splitlines(), start=1):
        for pattern, what in RNG_PATTERNS:
            if pattern.search(line) and not allowed(raw_lines, lineno, "rng"):
                findings.append(
                    (path, lineno, "rng",
                     f"{what} outside src/common/rng — use the seeded "
                     "deterministic streams"))
    return findings


def check_blocking_io(path, raw_lines, code):
    findings = []
    for lineno, line in enumerate(code.splitlines(), start=1):
        m = BLOCKING_CALL_RE.search(line)
        if m and not allowed(raw_lines, lineno, "blocking-io"):
            findings.append(
                (path, lineno, "blocking-io",
                 f"blocking {m.group(1)}() in event-loop code — loop threads "
                 "must stay non-blocking (annotate gossip/background threads "
                 "with dcp-lint: allow(blocking-io))"))
    return findings


def check_timing(path, raw_lines, code):
    findings = []
    for lineno, line in enumerate(code.splitlines(), start=1):
        m = TIMING_RE.search(line)
        if m and not allowed(raw_lines, lineno, "timing"):
            findings.append(
                (path, lineno, "timing",
                 "ad-hoc chrono clock read outside src/common/metrics — use "
                 "metrics::MonotonicNanos/Micros/Millis or a scoped timer "
                 "(dcp-lint: allow(timing) with a reason to waive)"))
    return findings


def check_nodiscard(root):
    findings = []
    status_h = os.path.join(root, "src/common/status.h")
    try:
        with open(status_h, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return [("src/common/status.h", 1, "nodiscard", "file missing")]
    for cls in ("Status", "StatusOr"):
        if not re.search(r"class\s*\[\[nodiscard\]\]\s*" + cls + r"\b", text):
            findings.append(
                ("src/common/status.h", 1, "nodiscard",
                 f"class {cls} must be declared [[nodiscard]] so dropped "
                 "errors fail the strict build"))
    return findings


def iter_source_files(root):
    for sub in ("src", "tests", "examples", "benchmarks", "tools"):
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith((".cc", ".h")):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root)


def lint_tree(root):
    findings = []
    for rel in iter_source_files(root):
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError):
            continue
        raw_lines = text.splitlines()
        code = strip_comments_and_strings(text)
        posix = rel.replace(os.sep, "/")
        if posix in DETERMINISM_FILES:
            # Members are declared in the paired header; a .cc iterating one must
            # still be caught, so merge the sibling header's declarations.
            extra = set()
            if posix.endswith(".cc"):
                sibling = os.path.join(root, posix[:-3] + ".h")
                try:
                    with open(sibling, encoding="utf-8") as f:
                        extra = unordered_variable_names(
                            strip_comments_and_strings(f.read()))
                except OSError:
                    pass
            findings.extend(check_determinism(posix, raw_lines, code, extra))
        if posix.startswith("src/") and posix not in RNG_EXEMPT:
            findings.extend(check_rng(posix, raw_lines, code))
        if posix in EVENT_LOOP_FILES:
            findings.extend(check_blocking_io(posix, raw_lines, code))
        if (posix.startswith(("src/", "examples/"))
                and posix not in TIMING_EXEMPT):
            findings.extend(check_timing(posix, raw_lines, code))
    findings.extend(check_nodiscard(root))
    return findings


def self_test():
    """Seed one violation per rule; the linter must flag each, and a clean
    equivalent of each snippet must pass."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="dcp_lint_selftest_") as tmp:
        def write(rel, content):
            full = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(content)

        # Rule: determinism (seeded into a serialization-path file).
        write("src/core/plan_signature.cc",
              "#include <unordered_map>\n"
              "std::unordered_map<int, int> table_;\n"
              "void Emit() {\n"
              "  for (const auto& kv : table_) { Append(kv); }\n"
              "}\n")
        # Rule: rng (any src/ file outside common/rng).
        write("src/core/planner.cc",
              "#include <cstdlib>\n"
              "int Draw() { return rand() % 7; }\n")
        # Rule: blocking-io (event-loop file, no allow annotation).
        write("src/service/event_loop.cc",
              "void Loop::OnReadable(Connection* conn) {\n"
              "  auto frame = ReadFrame(conn->socket, kMax);\n"
              "}\n")
        # Rule: nodiscard (Status present but unannotated).
        write("src/common/status.h",
              "class Status {};\n"
              "template <typename T> class StatusOr {};\n")
        # Rule: timing (ad-hoc clock read in a src/ file outside metrics).
        write("src/service/transport.cc",
              "#include <chrono>\n"
              "int64_t NowMs() {\n"
              "  return std::chrono::duration_cast<std::chrono::milliseconds>(\n"
              "      std::chrono::steady_clock::now().time_since_epoch())"
              ".count();\n"
              "}\n")

        findings = lint_tree(tmp)
        rules_hit = {f[2] for f in findings}
        for rule in ("determinism", "rng", "blocking-io", "nodiscard",
                     "timing"):
            if rule not in rules_hit:
                failures.append(f"seeded {rule} violation was NOT flagged")

        # Clean equivalents must pass: sorted iteration, seeded rng usage,
        # annotated gossip call, annotated classes.
        write("src/core/plan_signature.cc",
              "#include <vector>\n"
              "std::vector<int> keys_;\n"
              "void Emit() {\n"
              "  for (int k : keys_) { Append(k); }\n"
              "}\n")
        write("src/core/planner.cc",
              "#include \"common/rng.h\"\n"
              "int Draw(dcp::Rng& rng) { return rng.Next() % 7; }\n")
        write("src/service/event_loop.cc",
              "void Server::Gossip() {\n"
              "  // dcp-lint: allow(blocking-io) — background thread.\n"
              "  auto frame = ReadFrame(sock_, kMax);\n"
              "}\n")
        write("src/common/status.h",
              "class [[nodiscard]] Status {};\n"
              "template <typename T> class [[nodiscard]] StatusOr {};\n")
        # Clean timing: the metrics helper everywhere, the raw clock only
        # inside the exempt src/common/metrics.cc, and one annotated waiver.
        write("src/service/transport.cc",
              "#include \"common/metrics.h\"\n"
              "int64_t NowMs() { return dcp::metrics::MonotonicMillis(); }\n")
        write("src/common/metrics.cc",
              "#include <chrono>\n"
              "int64_t Raw() {\n"
              "  return std::chrono::steady_clock::now()"
              ".time_since_epoch().count();\n"
              "}\n")
        write("src/core/engine.cc",
              "#include <chrono>\n"
              "// dcp-lint: allow(timing) — calibration needs the raw clock.\n"
              "auto Raw() { return std::chrono::steady_clock::now(); }\n")
        residue = lint_tree(tmp)
        if residue:
            for f in residue:
                failures.append(f"clean snippet still flagged: {f}")

    if failures:
        for msg in failures:
            print(f"dcp_lint self-test FAILED: {msg}", file=sys.stderr)
        return 1
    print("dcp_lint self-test passed: all seeded violations flagged, "
          "clean snippets pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root (default: the checkout containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter flags seeded violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    if findings:
        for path, lineno, rule, message in findings:
            print(f"{path}:{lineno}: [{rule}] {message}")
        print(f"dcp_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("dcp_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
