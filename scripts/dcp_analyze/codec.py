"""Codec-completeness analysis: every declared field, both directions, every flavor.

For each registered (struct set, serialize fn, deserialize fn) group, the
analysis diffs the struct's declared fields against the member names the codec
function — plus every helper it calls, transitively — actually touches.  A
field the serializer never reads, or the deserializer never writes, is the
"added a field, forgot one codec" drift that today only fuzzing can catch.

The check is name-based: a mention of `.total_flops` anywhere in the codec's
call closure covers `total_flops` in every group struct declaring it.  That is
deliberate — codecs here are monolithic functions writing nested structs
inline, so per-struct receiver typing would be guesswork.  The limitation is
harmless unless two group structs share a field name and only one is encoded;
keep wire-struct field names distinct (they all are today).

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
    # Partial by contract: writes everything except the record bytes, which
    # the server splices from the store; equivalence with the full serializer
    # is pinned by test_service_wire.
    "SerializePlanServiceResponseHead",
    # An owning copy of DeserializePlanServiceResponseView's result, field for
    # field; the dcpbench traced pass calls it by name.
    "DeserializePlanServiceResponse",
}

# Files whose Serialize*/Deserialize*/EncodeRecord/DecodeRecord definitions
# must all be registered above (the discovery check).
CODEC_FILES = ("src/runtime/instructions.cc", "src/core/plan_store.cc")


def _closure_mentions(tree: SourceTree, fn_name: str) -> set[str] | None:
    """Member names mentioned by fn and every function it transitively calls."""
    if fn_name not in tree.defs:
        return None
    mentions: set[str] = set()
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
            mentions |= {m.group(1) for m in MEMBER_MENTION_RE.finditer(body)}
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
        for sname in g.structs:
            s = tree.struct(sname)
            if s is None:
                continue
            for f in s.fields:
                for direction, touched, fn in (("serialize", ser, g.serialize),
                                               ("deserialize", de,
                                                g.deserialize)):
                    if f.name not in touched:
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
