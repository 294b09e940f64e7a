"""Lock-order analysis: acquisition graph over every dcp::Mutex in the tree.

Harvests mutex members (and file-scope/local mutexes), MutexLock sites, raw
Lock()/Unlock() calls, and the DCP_REQUIRES / DCP_ACQUIRED_BEFORE /
DCP_ACQUIRED_AFTER annotation set.  A body walker tracks the held-lock set
through scopes (including MutexLock's Unlock()/Lock() relock protocol) and a
call-graph fixed point propagates "locks acquired during this call" summaries,
so nesting through helper calls is seen too.  Call targets are resolved by
typing the receiver (parameters, locals, `auto`/range-for roots, member
fields), so `fallback_engine_->PlanWithBlockSize(...)` contributes Engine's locks
and nobody else's.  Emitted rules:

  lock-order   An observed nesting edge A -> B that the annotation set does not
               document (via DCP_ACQUIRED_BEFORE/AFTER, transitively).
               Same-class edges should be documented with a real annotation on
               the mutex declaration (clang checks those too); cross-class
               edges — which clang attributes cannot express — are waived at
               the acquiring site with the protocol spelled out.  A waiver on
               B's *declaration* line marks B a leaf lock: it may be acquired
               while holding anything because nothing is ever acquired under
               it (the analyzer still sees edges out of B, so a leaf that
               grows a nested acquisition loses the exemption's premise and
               shows up as new findings).
  lock-cycle   A cycle in the union of observed + documented edges, or a lock
               re-acquired while already held.
  lock-native  A `.native()` escape-hatch use outside the wrapper header; every
               such site must carry a waiver explaining its protocol (the tree
               has none today).
"""

from __future__ import annotations

import re

from cpp_model import SourceTree, Function, find_matching
from waivers import Finding, allowed

_MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+([A-Za-z_]\w*)\s*[({]([^;{}]*?)[)}]\s*;")
_RAW_LOCK_RE = re.compile(r"\.\s*(Lock|Unlock)\s*\(\s*\)")
_CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*)(?:\[[^\]]*\])?\s*(?:\.|->)\s*)?([A-Za-z_]\w*)\s*\(")
_GLOBAL_MUTEX_RE = re.compile(
    r"^\s*(?:static\s+)?(?:dcp::)?Mutex\s+([A-Za-z_]\w*)\s*;", re.M)
_NATIVE_RE = re.compile(r"\.\s*native\s*\(\s*\)")
# Callables whose lambda argument runs on another thread: the lambda's
# acquisitions are NOT nested under locks the caller holds at the call site.
_ASYNC_SINK_RE = re.compile(
    r"std::thread\s*\(|(?:\.|->)\s*(?:Submit|Schedule)\s*\(")


def _base_expr_before(text: str, idx: int) -> str:
    """Extract the expression ending just before text[idx] (a '.')."""
    i = idx
    while i > 0:
        c = text[i - 1]
        if c.isalnum() or c in "_.]":
            i -= 1
        elif c == ">" and i > 1 and text[i - 2] == "-":
            i -= 2
        elif c == "[":
            i -= 1
        else:
            break
    return text[i:idx]


class LockAnalysis:
    def __init__(self, tree: SourceTree):
        self.tree = tree
        self.notes: set[str] = set()
        # member name -> [class names that declare a mutex member of that name]
        self.member_owner: dict[str, list[str]] = {}
        # class -> {field name -> declared type}, every field of every struct
        self.class_fields: dict[str, dict[str, str]] = {}
        # field name -> [class names declaring it] (any type, for base typing)
        self.field_owner: dict[str, list[str]] = {}
        self.node_sites: dict[str, tuple[str, int]] = {}
        self.global_mutexes: dict[str, tuple[str, int]] = {}
        self.documented: set[tuple[str, str]] = set()
        self.doc_sites: dict[tuple[str, str], tuple[str, int]] = {}
        self.observed: dict[tuple[str, str], tuple[str, int, str]] = {}
        self._callee_cache: dict = {}
        # Classes defined inside a function body: their mutexes are born and
        # die with one call, so they are leaves by construction — tracked for
        # cycles but exempt from the ordering-documentation requirement.
        self.local_structs: set[str] = set()
        self._collect()

    # ---- harvesting -----------------------------------------------------

    def _collect(self):
        for fn in self.tree.functions:
            if not fn.body_span:
                continue
            for s in self.tree._file_structs[fn.file]:
                if fn.body_span[0] < s.span[0] and s.span[1] < fn.body_span[1]:
                    self.local_structs.add(s.name)
        # Pass 1: register every field and mutex node, so that pass 2 can
        # resolve DCP_ACQUIRED_BEFORE/AFTER arguments that name a mutex
        # declared later in the class (or in another class entirely).
        for name, structs in self.tree.structs.items():
            for s in structs:
                cf = self.class_fields.setdefault(name, {})
                for f in s.fields:
                    cf[f.name] = f.type
                    self.field_owner.setdefault(f.name, [])
                    if name not in self.field_owner[f.name]:
                        self.field_owner[f.name].append(name)
                    if not f.is_mutex():
                        continue
                    self.member_owner.setdefault(f.name, [])
                    if name not in self.member_owner[f.name]:
                        self.member_owner[f.name].append(name)
                    self.node_sites.setdefault(f"{name}::{f.name}",
                                               (s.file, f.line))
        for rel, sf in self.tree.files.items():
            structs = self.tree._file_structs[rel]
            for m in _GLOBAL_MUTEX_RE.finditer(sf.stripped):
                if any(s.span[0] < m.start() < s.span[1] for s in structs):
                    continue
                name = m.group(1)
                if name not in self.global_mutexes:
                    # Anchor to the declared name, not m.start(): ^\s* can
                    # swallow blank lines above the declaration.
                    self.global_mutexes[name] = (rel, sf.line_of(m.start(1)))
                    self.node_sites[f"::{name}"] = self.global_mutexes[name]
        # Pass 2: documented ordering edges (all nodes are registered now).
        for name, structs in self.tree.structs.items():
            for s in structs:
                for f in s.fields:
                    if not f.is_mutex():
                        continue
                    me = f"{name}::{f.name}"
                    for arg in f.acquired_before:
                        other = self._resolve_in_class(arg, name)
                        if other:
                            self.documented.add((me, other))
                            self.doc_sites[(me, other)] = (s.file, f.line)
                    for arg in f.acquired_after:
                        other = self._resolve_in_class(arg, name)
                        if other:
                            self.documented.add((other, me))
                            self.doc_sites[(other, me)] = (s.file, f.line)

    def _resolve_in_class(self, arg: str, cls: str) -> str | None:
        arg = arg.strip()
        if "::" in arg:
            return arg
        owners = self.member_owner.get(arg, [])
        if cls in owners:
            return f"{cls}::{arg}"
        if len(owners) == 1:
            return f"{owners[0]}::{arg}"
        if arg in self.global_mutexes:
            return f"::{arg}"
        return None

    # ---- typing ---------------------------------------------------------

    def _classes_in(self, type_str: str) -> list[str]:
        return [w for w in re.findall(r"[A-Za-z_]\w*", type_str)
                if w in self.tree.structs]

    def _type_candidates(self, base: str, fn: Function, body: str) -> list[str]:
        """Known struct types the variable `base` may have, best guess first."""
        b = re.escape(base)
        out: list[str] = []

        def add(types):
            for t in types:
                if t not in out:
                    out.append(t)

        for m in re.finditer(
                r"([A-Za-z_][\w:]*(?:<[^;()]*>)?)\s*(?:const\s*)?[\*&\s]+%s\b"
                % b, fn.params):
            add(self._classes_in(m.group(1)))
        m = re.search(r"%s\s*=\s*static_cast<\s*(?:const\s+)?([A-Za-z_]\w*)"
                      % b, body)
        if m and m.group(1) in self.tree.structs:
            add([m.group(1)])
        for m in re.finditer(
                r"\b([A-Za-z_][\w:]*(?:<[^;()]*>)?)\s*[\*&]?\s+%s\s*[=;({:]"
                % b, body):
            add(self._classes_in(m.group(1)))
        for m in re.finditer(
                r"\b%s\s*=\s*std::make_(?:shared|unique)<\s*([A-Za-z_]\w*)"
                % b, body):
            if m.group(1) in self.tree.structs:
                add([m.group(1)])
        # `auto x = root...`, `for (auto& x : root...)`, and lambda
        # init-captures `[x = root]`: type the root.
        roots = [m.group(1) for m in re.finditer(
            r"auto[^=;:(){]*[\s\*&]%s\s*=\s*[&\*\s]*([A-Za-z_]\w*)" % b, body)]
        roots += [m.group(1) for m in re.finditer(
            r"for\s*\(\s*(?:const\s+)?auto[^:;){]*[\s\*&]%s\s*:\s*"
            r"[&\*\s]*([A-Za-z_]\w*)" % b, body)]
        roots += [m.group(1) for m in re.finditer(
            r"[\[,]\s*%s\s*=\s*[&\*\s]*([A-Za-z_]\w*)\s*[,\]]" % b, body)]
        for root in roots:
            if fn.cls and root in self.class_fields.get(fn.cls, {}):
                add(self._classes_in(self.class_fields[fn.cls][root]))
            for owner in self.field_owner.get(root, ()):
                add(self._classes_in(self.class_fields[owner][root]))
        # `base` itself a member field of the enclosing (or any) class.
        if fn.cls and base in self.class_fields.get(fn.cls, {}):
            add(self._classes_in(self.class_fields[fn.cls][base]))
        for owner in self.field_owner.get(base, ()):
            add(self._classes_in(self.class_fields[owner][base]))
        return out

    def _resolve_expr(self, expr: str, fn: Function, body: str) -> str | None:
        expr = expr.strip().lstrip("*&").strip().strip("()")
        parts = re.split(r"\.|->", expr)
        member = re.sub(r"\[.*\]", "", parts[-1]).strip()
        if not re.fullmatch(r"[A-Za-z_]\w*", member):
            return None
        base = parts[-2].strip() if len(parts) > 1 else None
        base = re.sub(r"\[.*\]", "", base).strip() if base else None
        owners = self.member_owner.get(member, [])
        if not owners:
            if member in self.global_mutexes:
                return f"::{member}"
            # A function-local Mutex.
            if re.search(r"\bMutex\s+%s\b" % re.escape(member), body) or \
               re.search(r"\bMutex\s+%s\b" % re.escape(member), fn.params):
                return f"{fn.qualname}()::{member}"
            return None
        if base is None or base == "this":
            if fn.cls in owners:
                return f"{fn.cls}::{member}"
            return f"{owners[0]}::{member}" if len(owners) == 1 else None
        for t in self._type_candidates(base, fn, body):
            if t in owners:
                return f"{t}::{member}"
        if len(owners) == 1:
            return f"{owners[0]}::{member}"
        self.notes.add(
            f"{fn.file}:{fn.line}: cannot type `{expr}` in {fn.qualname}; "
            f"candidates {owners}; acquisition not tracked")
        return None

    def _callee_defs(self, receiver: str | None, method: str,
                     fn: Function, body: str) -> list[Function]:
        """Function definitions a call site may reach."""
        key = (id(fn), receiver, method)
        if key in self._callee_cache:
            return self._callee_cache[key]
        defs = self.tree.defs
        result: list[Function] = []
        if receiver:
            cands = self._type_candidates(receiver, fn, body)
            for t in cands:
                result += defs.get(f"{t}::{method}", [])
            if not result and cands:
                # Receiver typed, but that class has no such definition: the
                # method acquires nothing we know about.  Precise no-op.
                result = []
            elif not result:
                result = [d for d in defs.get(method, []) if d.cls]
        else:
            result = defs.get(f"{fn.cls}::{method}", []) if fn.cls else []
            if not result:
                free = [d for d in defs.get(method, []) if not d.cls]
                result = free or defs.get(method, [])
        self._callee_cache[key] = result
        return result

    # ---- body walking ---------------------------------------------------

    def _entry_held(self, fn: Function, body: str) -> list[str]:
        held = []
        for macro, args in self.tree.merged_annotations(fn):
            if macro in ("DCP_REQUIRES", "DCP_ACQUIRE", "DCP_ACQUIRE_SHARED"):
                for a in args.split(","):
                    a = a.strip().rstrip("&")
                    if not a:
                        continue
                    node = self._resolve_expr(a, fn, body)
                    if node:
                        held.append(node)
        return held

    def _detach_async_lambdas(self, body: str):
        """Mask bodies of lambdas handed to async sinks out of `body`.

        Returns (masked_body, [(open_brace_off, close_brace_off)]).  The
        masked text drives the synchronous walk; each lambda body is walked
        separately with an empty held set, since it runs on another thread.
        """
        masked = list(body)
        spans = []
        for m in _ASYNC_SINK_RE.finditer(body):
            open_p = m.end() - 1
            close_p = find_matching(body, open_p, "(", ")")
            if close_p == -1:
                continue
            i = open_p + 1
            while i < close_p:
                if body[i] != "[":
                    i += 1
                    continue
                cb = find_matching(body, i, "[", "]")
                if cb == -1:
                    break
                j = cb + 1
                while j < close_p and body[j].isspace():
                    j += 1
                if j < close_p and body[j] == "(":
                    pc = find_matching(body, j, "(", ")")
                    if pc == -1:
                        break
                    j = pc + 1
                while j < close_p and body[j] not in "{,)":
                    j += 1
                if j >= close_p or body[j] != "{":
                    i = cb + 1
                    continue
                bc = find_matching(body, j)
                if bc == -1 or bc > close_p:
                    i = cb + 1
                    continue
                spans.append((j, bc))
                for k in range(j, bc + 1):
                    if masked[k] != "\n":
                        masked[k] = " "
                i = bc + 1
        return "".join(masked), spans

    def _walk(self, fn: Function, record_edges: bool) -> set[str]:
        """Walk one body; optionally record edges.

        Returns the nodes the function acquires *synchronously* (async lambda
        acquisitions excluded — they don't nest under the caller's locks).
        """
        full = self.tree.body_text(fn)
        masked, lambda_spans = self._detach_async_lambdas(full)
        base = fn.body_span[0] + 1
        acquired = self._walk_span(fn, masked, base, full,
                                   self._entry_held(fn, full), record_edges)
        if record_edges:
            for (j, bc) in lambda_spans:
                self._walk_span(fn, full[j + 1:bc], base + j + 1, full, [],
                                record_edges)
        return acquired

    def _walk_span(self, fn: Function, body: str, base_off: int,
                   type_body: str, entry_held: list[str],
                   record_edges: bool) -> set[str]:
        sf = self.tree.files[fn.file]
        events = []  # (offset, kind, payload)
        for i, c in enumerate(body):
            if c == "{":
                events.append((i, "open", None))
            elif c == "}":
                events.append((i, "close", None))
        for m in _MUTEXLOCK_RE.finditer(body):
            events.append((m.start(), "mutexlock", (m.group(1), m.group(2))))
        for m in _RAW_LOCK_RE.finditer(body):
            events.append((m.start(), "rawlock",
                           (_base_expr_before(body, m.start()), m.group(1))))
        if record_edges:
            for m in _CALL_RE.finditer(body):
                recv, name = m.group(1), m.group(2)
                if name in ("MutexLock", "Lock", "Unlock", "native"):
                    continue
                if name in self.tree.defs:
                    events.append((m.start(), "call", (recv, name)))
        events.sort(key=lambda e: e[0])

        held: list[str] = list(entry_held)
        scopes: list[list[str]] = [[]]
        lock_vars: dict[str, str] = {}
        acquired: set[str] = set()

        def acquire(node: str, off: int):
            if record_edges:
                line = sf.line_of(base_off + off)
                for h in held:
                    key = (h, node)
                    if key not in self.observed:
                        self.observed[key] = (fn.file, line, fn.qualname)
            held.append(node)
            scopes[-1].append(node)
            acquired.add(node)

        for off, kind, payload in events:
            if kind == "open":
                scopes.append([])
            elif kind == "close":
                for node in scopes.pop() if len(scopes) > 1 else []:
                    if node in held:
                        held.remove(node)
            elif kind == "mutexlock":
                var, expr = payload
                node = self._resolve_expr(expr, fn, type_body)
                if node:
                    lock_vars[var] = node
                    acquire(node, off)
            elif kind == "rawlock":
                expr, op = payload
                parts = re.split(r"\.|->", expr)
                if parts and parts[-1] in lock_vars:
                    node = lock_vars[parts[-1]]
                    if op == "Lock":
                        acquire(node, off)
                    elif node in held:
                        held.remove(node)
                    continue
                node = self._resolve_expr(expr, fn, type_body)
                if node is None:
                    continue
                if op == "Lock":
                    acquire(node, off)
                elif node in held:
                    held.remove(node)
            elif kind == "call":
                if not held:
                    continue
                recv, name = payload
                line = sf.line_of(base_off + off)
                summary: set[str] = set()
                for target in self._callee_defs(recv, name, fn, type_body):
                    summary |= self._summaries.get(id(target), set())
                for node in summary:
                    for h in held:
                        if h == node:
                            continue  # re-entry checked at direct sites
                        key = (h, node)
                        if key not in self.observed:
                            self.observed[key] = (fn.file, line,
                                                  f"{fn.qualname} -> {name}")
        # Locks a function acquires on behalf of callers exclude what it
        # already required held at entry.
        return acquired - set(entry_held)

    # ---- the analysis ---------------------------------------------------

    def run(self) -> list[Finding]:
        defs = [f for f in self.tree.functions
                if f.body_span and f.file != "src/common/thread_annotations.h"]
        # Fixed-point call summaries with receiver-typed callee resolution.
        self._summaries = {}
        resolved_calls: dict[int, list[Function]] = {}
        for fn in defs:
            self._summaries[id(fn)] = self._walk(fn, record_edges=False)
            body = self.tree.body_text(fn)
            # Calls made inside detached async lambdas don't count toward the
            # caller's synchronous summary either.
            masked, _ = self._detach_async_lambdas(body)
            targets = []
            for m in _CALL_RE.finditer(masked):
                recv, name = m.group(1), m.group(2)
                if name in ("MutexLock", "Lock", "Unlock", "native"):
                    continue
                if name in self.tree.defs:
                    targets += self._callee_defs(recv, name, fn, body)
            resolved_calls[id(fn)] = targets
        for _ in range(20):
            changed = False
            for fn in defs:
                s = self._summaries[id(fn)]
                before = len(s)
                for target in resolved_calls[id(fn)]:
                    s |= self._summaries.get(id(target), set())
                if len(s) != before:
                    changed = True
            if not changed:
                break

        for fn in defs:
            self._walk(fn, record_edges=True)

        findings: list[Finding] = []
        # Undocumented nesting: observed edge not implied by the documented
        # partial order (transitive closure).
        closure = set(self.documented)
        for _ in range(len(closure) + 1):
            new = {(a, d) for (a, b) in closure for (c, d) in closure if b == c}
            if new <= closure:
                break
            closure |= new
        for (a, b), (file, line, where) in sorted(self.observed.items()):
            if a == b:
                findings.append(Finding(
                    file, line, "lock-cycle",
                    f"{b} acquired in {where} while already held "
                    f"(self-deadlock)"))
                continue
            if (a, b) in closure:
                continue
            if self._leaf_waived(b):
                continue
            if b.split("::")[0] in self.local_structs:
                continue
            findings.append(Finding(
                file, line, "lock-order",
                f"{b} acquired in {where} while holding {a}, but no "
                f"DCP_ACQUIRED_BEFORE/AFTER annotation documents that "
                f"order"))
        # Cycles in documented + observed edges.
        graph: dict[str, set[str]] = {}
        for (a, b) in set(self.observed) | self.documented:
            if a != b:
                graph.setdefault(a, set()).add(b)
        for cycle in _find_cycles(graph):
            edge = None
            for i in range(len(cycle)):
                key = (cycle[i], cycle[(i + 1) % len(cycle)])
                if key in self.observed:
                    edge = self.observed[key][:2]
                    break
                if key in self.doc_sites:
                    edge = self.doc_sites[key]
            file, line = edge if edge else ("src", 0)
            path = " -> ".join(cycle + [cycle[0]])
            findings.append(Finding(
                file, line, "lock-cycle",
                f"lock acquisition cycle (potential deadlock): {path}"))
        # native() escape hatch.
        for rel, sf in self.tree.files.items():
            if rel.endswith("common/thread_annotations.h"):
                continue
            for m in _NATIVE_RE.finditer(sf.stripped):
                findings.append(Finding(
                    rel, sf.line_of(m.start()), "lock-native",
                    "Mutex::native() bypasses the lock model; waive with the "
                    "locking protocol spelled out"))
        return findings

    def _leaf_waived(self, node: str) -> bool:
        site = self.node_sites.get(node)
        if not site:
            return False
        sf = self.tree.files.get(site[0])
        return sf is not None and allowed(sf.lines, site[1], "lock-order")


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Every elementary cycle's node set, deduplicated (DFS back-edge based)."""
    cycles, seen = [], set()
    state: dict[str, int] = {}
    stack: list[str] = []

    def dfs(v: str):
        state[v] = 1
        stack.append(v)
        for w in sorted(graph.get(v, ())):
            if state.get(w, 0) == 0:
                dfs(w)
            elif state.get(w) == 1:
                cyc = stack[stack.index(w):]
                key = frozenset(cyc)
                if key not in seen:
                    seen.add(key)
                    cycles.append(list(cyc))
        stack.pop()
        state[v] = 2

    for v in sorted(graph):
        if state.get(v, 0) == 0:
            dfs(v)
    return cycles


def run(tree: SourceTree, notes: list[str] | None = None) -> list[Finding]:
    a = LockAnalysis(tree)
    findings = a.run()
    if notes is not None:
        notes.extend(sorted(a.notes))
    return findings
