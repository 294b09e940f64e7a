"""Codec-completeness analysis: every declared field, both directions, every flavor.

For each registered (struct set, serialize fn, deserialize fn) group, the
analysis diffs the struct's declared fields against the member names the codec
function — plus every helper it calls, transitively — actually touches.  A
field the serializer never reads, or the deserializer never writes, is the
"added a field, forgot one codec" drift that today only fuzzing can catch.

A mention is qualified by struct where its receiver's type can be told:
`t.kv_slot` covers `AttentionWorkItem.kv_slot` only when `t` is declared in
the same function as an `AttentionWorkItem` (directly or through a `using`
alias, as the column codecs' lambdas are), and `e.dst.kind` follows `dst`'s
declared type to `BlockRef.kind`.  Wire structs do share field names
(`LocalChunk` and `AttentionWorkItem` share `seq`, `group`, `q_slot` and
`kv_slot`; `ReduceItem` and `TransferBlock` share `token_count`; `Instruction`
and `BlockRef` share `kind`), so a codec that writes one struct's field must
not cover the other's.  A mention whose receiver cannot be typed, or is
typed as a struct outside the group (a decoder's view of the same message),
covers a field by name alone, and only a name no other struct of its group
declares.

The analysis also emits a machine-readable field inventory
(scripts/dcp_analyze/field_inventory.json).  When the pinned file drifts from
the headers, the run fails until `--update-inventory` is rerun — so adding a
wire field is always a conscious, reviewed act.

Rules: codec-drift (field missed by one codec direction; waivable at the field
declaration line), codec-inventory (unregistered Serialize*/Deserialize*
function, or a stale pinned inventory).
"""

from __future__ import annotations

import dataclasses
import json
import re

from cpp_model import SourceTree, MEMBER_MENTION_RE, CALL_RE
from waivers import Finding


@dataclasses.dataclass(frozen=True)
class Group:
    name: str                 # flavor label used in messages ("plan-binary"...)
    structs: tuple[str, ...]  # structs whose every field must round-trip
    serialize: str
    deserialize: str


# The plan codec ships every struct reachable from BatchPlan; service messages
# are flat.  PlanSignature rides in the PlanStore record header.
GROUPS = (
    Group("plan-binary",
          ("BatchPlan", "BatchLayout", "PlanStats", "DevicePlan", "LocalChunk",
           "Instruction", "AttentionWorkItem", "ReduceItem", "TransferBlock",
           "BlockRef"),
          "SerializePlanBinary", "DeserializePlanBinary"),
    Group("service-request", ("PlanServiceRequest", "MaskSpec"),
          "SerializePlanServiceRequest", "DeserializePlanServiceRequestView"),
    Group("service-response", ("PlanServiceResponse",),
          "SerializePlanServiceResponse", "DeserializePlanServiceResponseView"),
    Group("metrics-request", ("PlanServiceMetricsRequest",),
          "SerializePlanServiceMetricsRequest",
          "DeserializePlanServiceMetricsRequest"),
    Group("metrics-response", ("PlanServiceMetricsResponse",),
          "SerializePlanServiceMetricsResponse",
          "DeserializePlanServiceMetricsResponse"),
    Group("sync-request", ("PlanSyncRequest",),
          "SerializePlanSyncRequest", "DeserializePlanSyncRequest"),
    Group("sync-response", ("PlanSyncResponse",),
          "SerializePlanSyncResponse", "DeserializePlanSyncResponse"),
    Group("store-record", ("PlanSignature",), "EncodeRecord", "DecodeRecord"),
)

# Codec-shaped functions that are deliberately not groups of their own.
EXEMPT_CODECS = {
    # The one writer of the response fields: SerializePlanServiceResponse is
    # built as this head plus the record bytes, so the service-response group
    # checks it through that serializer. The server sends it alone and splices
    # the shared record after it; test_service_wire pins the equality.
    "SerializePlanServiceResponseHead",
    # An owning copy of DeserializePlanServiceResponseView's result, field for
    # field; the dcpbench traced pass calls it by name.
    "DeserializePlanServiceResponse",
}

# Files whose Serialize*/Deserialize*/EncodeRecord/DecodeRecord definitions
# must all be registered above (the discovery check).
CODEC_FILES = ("src/runtime/instructions.cc", "src/service/messages.cc",
               "src/core/plan_store.cc")


_USING_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([\w:]+)\s*[&*]*\s*;")
_DECL_RE = re.compile(r"(?=\b([A-Za-z_][\w:]*)\s*[&*]*\s+([A-Za-z_]\w*)\b)")
# The `a.b->c` chain that ends right before a member mention's `.` or `->`.
_RECEIVER_RE = re.compile(
    r"([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*$")


def _base_type(type_text: str) -> str:
    """`const dcp::BlockRef&` -> `BlockRef`; templates stay unresolved."""
    return type_text.replace("const ", "").strip().rstrip("&* ").split("::")[-1]


def _typed_mentions(tree: SourceTree, text: str) -> set[tuple[str | None, str]]:
    """(struct, member) per member mention in `text`; struct is None when the
    receiver's type cannot be told from the declarations in `text`."""
    text = re.sub(r"\bconst\s+", "", text)
    aliases = {m.group(1): _base_type(m.group(2)) for m in _USING_RE.finditer(text)}
    var_types: dict[str, str | None] = {}
    for m in _DECL_RE.finditer(text):
        type_name = aliases.get(m.group(1), _base_type(m.group(1)))
        if tree.struct(type_name) is None:
            continue
        var = m.group(2)
        # A name declared with two types in one function is left untyped.
        var_types[var] = type_name if var_types.get(var, type_name) == type_name \
            else None
    mentions: set[tuple[str | None, str]] = set()
    for m in MEMBER_MENTION_RE.finditer(text):
        receiver = _RECEIVER_RE.search(text, max(0, m.start() - 200), m.start())
        owner = None
        if receiver is not None:
            chain = re.split(r"\s*(?:\.|->)\s*", receiver.group(1))
            owner = var_types.get(chain[0])
            for member in chain[1:]:
                struct = tree.struct(owner) if owner else None
                field = next((f for f in struct.fields if f.name == member),
                             None) if struct else None
                owner = _base_type(field.type) if field else None
        mentions.add((owner if owner and tree.struct(owner) else None,
                      m.group(1)))
    return mentions


def _closure_mentions(tree: SourceTree,
                      fn_name: str) -> set[tuple[str | None, str]] | None:
    """(struct, member) mentions of fn and every function it transitively
    calls; see _typed_mentions."""
    if fn_name not in tree.defs:
        return None
    mentions: set[tuple[str | None, str]] = set()
    seen: set[str] = set()
    work = [fn_name]
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        for fn in tree.defs.get(name, ()):
            if not fn.body_span:
                continue
            body = tree.body_text(fn)
            mentions |= _typed_mentions(tree, fn.params + "\n" + body)
            for c in CALL_RE.finditer(body):
                if c.group(1) in tree.defs:
                    work.append(c.group(1))
    return mentions


def compute_inventory(tree: SourceTree) -> dict:
    inv: dict[str, dict] = {}
    for g in GROUPS:
        for sname in g.structs:
            s = tree.struct(sname)
            if s is None:
                continue
            entry = inv.setdefault(sname, {"fields": [], "codecs": []})
            entry["fields"] = sorted(f.name for f in s.fields)
            if g.name not in entry["codecs"]:
                entry["codecs"].append(g.name)
    return dict(sorted(inv.items()))


def run(tree: SourceTree, notes: list[str] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    for g in GROUPS:
        ser = _closure_mentions(tree, g.serialize)
        de = _closure_mentions(tree, g.deserialize)
        if ser is None or de is None:
            continue  # codec pair absent from this tree (fixture subsets)
        declared = [f.name for sname in g.structs if tree.struct(sname)
                    for f in tree.struct(sname).fields]
        # Mentions not typed as one of the group's structs count by name.
        untyped = {direction: {f for owner, f in touched
                               if owner not in g.structs}
                   for direction, touched in (("serialize", ser),
                                              ("deserialize", de))}
        for sname in g.structs:
            s = tree.struct(sname)
            if s is None:
                continue
            for f in s.fields:
                unique = declared.count(f.name) == 1
                for direction, touched, fn in (("serialize", ser, g.serialize),
                                               ("deserialize", de,
                                                g.deserialize)):
                    if (sname, f.name) not in touched and \
                       not (unique and f.name in untyped[direction]):
                        findings.append(Finding(
                            s.file, f.line, "codec-drift",
                            f"{sname}.{f.name} is never touched by {fn} "
                            f"({g.name} {direction}); the {g.name} codec "
                            f"drops this field"))
    # Discovery: codec-shaped definitions must be registered or exempted.
    registered = {g.serialize for g in GROUPS} | {g.deserialize for g in GROUPS}
    for rel in CODEC_FILES:
        sf = tree.files.get(rel)
        if sf is None:
            continue
        for fn in tree.functions:
            if fn.file != rel or not fn.body_span:
                continue
            looks_codec = (fn.name.startswith(("Serialize", "Deserialize"))
                           or fn.name in ("EncodeRecord", "DecodeRecord"))
            if looks_codec and fn.name not in registered and \
               fn.name not in EXEMPT_CODECS:
                findings.append(Finding(
                    rel, fn.line, "codec-inventory",
                    f"{fn.qualname} looks like a codec but is not registered "
                    f"in dcp_analyze codec GROUPS (or EXEMPT_CODECS)"))
    return findings


def check_inventory(tree: SourceTree, pinned_path) -> list[Finding]:
    """Diff the recomputed inventory against the pinned JSON file."""
    current = compute_inventory(tree)
    try:
        pinned = json.loads(pinned_path.read_text())
    except FileNotFoundError:
        return [Finding(str(pinned_path), 0, "codec-inventory",
                        "pinned field inventory missing; run "
                        "`python3 scripts/dcp_analyze --update-inventory`")]
    findings = []
    for sname in sorted(set(current) | set(pinned)):
        if current.get(sname) != pinned.get(sname):
            was = (pinned.get(sname) or {}).get("fields", [])
            now = (current.get(sname) or {}).get("fields", [])
            findings.append(Finding(
                "scripts/dcp_analyze/field_inventory.json", 0,
                "codec-inventory",
                f"wire-field inventory for {sname} drifted (pinned "
                f"{was} vs declared {now}); update the codecs and tests, "
                f"then rerun with --update-inventory"))
    return findings
