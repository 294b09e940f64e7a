"""Lightweight C++ source model for dcp_analyze.

Not a real parser: a tokenizer plus brace-matching declaration indexer tuned to
this repo's style (Google-ish C++20, one class per header, out-of-line
definitions as `Ret Class::Name(args) SUFFIX... {`).  It extracts exactly what
the four analyses need — struct fields with their DCP_* annotations, enum
enumerators, function definitions with bodies, and member/call mentions — and
nothing more.  Where C++ is ambiguous the model is deliberately conservative
and the analyses layer waivers on top.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

# Keywords and macro-ish names that look like `name(` but are never function
# definitions we want to index.
_NOT_A_FUNCTION = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "else", "do", "case", "throw", "static_assert", "alignas",
    "alignof", "decltype", "defined", "assert", "co_return", "co_await",
}

_SUFFIX_WORDS = {"const", "noexcept", "override", "final", "mutable", "try"}


def strip_comments_and_strings(text: str) -> str:
    """Blank comment and string/char-literal interiors with spaces.

    Line structure (every newline) is preserved so offsets and line numbers in
    the stripped text match the original.  Mirrors dcp_lint's helper; kept
    separate so the two tools stay independently runnable.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            elif c == "\n":  # unterminated (macro line continuation); bail out
                state = "code"
                out.append("\n")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


def find_matching(text: str, open_idx: int, open_ch: str = "{",
                  close_ch: str = "}") -> int:
    """Index of the bracket matching text[open_idx], or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def blank_nested_braces(body: str) -> str:
    """Blank everything inside nested {...} groups of a struct/function body.

    Each closing brace becomes ';' so an in-class method definition terminates
    like a declaration and never glues onto the next field.  Newlines survive.
    """
    out = []
    depth = 0
    for c in body:
        if c == "{":
            depth += 1
            out.append(" ")
        elif c == "}":
            depth -= 1
            out.append(";" if depth == 0 else " ")
        elif depth > 0:
            out.append("\n" if c == "\n" else " ")
        else:
            out.append(c)
    return "".join(out)


_ANNOTATION_RE = re.compile(r"\b(DCP_[A-Z_]+)\s*\(([^()]*)\)")
_FIELD_SKIP_RE = re.compile(
    r"^\s*(static|constexpr|using|typedef|friend|template|public|private|"
    r"protected|enum|struct|class|explicit|virtual|operator)\b")
_FIELD_RE = re.compile(
    r"^(?:mutable\s+)?(?P<type>[\w:]+(?:\s*<.*>)?"
    r"(?:\s+[\w:]+(?:\s*<.*>)?)*?(?:\s*[\*&]+)?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\])?$")


@dataclasses.dataclass
class Field:
    name: str
    type: str
    line: int
    guards: list[str]            # DCP_GUARDED_BY / DCP_PT_GUARDED_BY args
    acquired_before: list[str]   # DCP_ACQUIRED_BEFORE args
    acquired_after: list[str]    # DCP_ACQUIRED_AFTER args

    def is_mutex(self) -> bool:
        base = self.type.split("<")[0].strip().rstrip("*& ")
        return base.split("::")[-1] == "Mutex"


@dataclasses.dataclass
class Struct:
    name: str
    file: str
    line: int
    span: tuple[int, int]  # offsets into the stripped text: '{' .. '}'
    fields: list[Field]


@dataclasses.dataclass
class Function:
    cls: str            # enclosing/qualifying class name, "" for free functions
    name: str
    file: str
    line: int
    params: str         # raw parameter list text
    annotations: list[tuple[str, str]]  # (macro, args) suffix annotations
    body_span: tuple[int, int] | None   # '{' .. '}' offsets, None = declaration

    @property
    def qualname(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


_STRUCT_RE = re.compile(
    r"\b(enum\s+)?(?:struct|class)\s+([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*"
    r"(?:final\s*)?(?::[^:{;][^{;]*)?\{")
_ENUM_RE = re.compile(
    r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)\s*(?::\s*[\w:]+\s*)?\{")
# Leading `[[attribute]]`s are skipped, so `[[gnu::always_inline]] T F(...)` is a def.
_DEF_RE = re.compile(
    r"^[^\S\n]*(?:\[\[[^\]\n]*\]\]\s*)*((?:[\w:~]+(?:<[^;()\n]*>)?[\s\*&]+)*)"
    r"((?:[A-Za-z_]\w*::)*)(~?[A-Za-z_]\w*)\s*\(",
    re.M)
MEMBER_MENTION_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\b(?!\s*\()")
CALL_RE = re.compile(r"(?:\.|->|\b)([A-Za-z_]\w*)\s*\(")


class SourceFile:
    def __init__(self, rel: str, text: str):
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.stripped = strip_comments_and_strings(text)

    def line_of(self, offset: int) -> int:
        return self.stripped.count("\n", 0, offset) + 1


def parse_fields(sf: SourceFile, body_start: int, body_end: int) -> list[Field]:
    body = blank_nested_braces(sf.stripped[body_start + 1:body_end])
    fields = []
    chunk_start = 0
    for m in re.finditer(";", body):
        chunk = body[chunk_start:m.start()]
        offset = body_start + 1 + chunk_start
        chunk_start = m.end()
        anns = _ANNOTATION_RE.findall(chunk)
        decl = _ANNOTATION_RE.sub(" ", chunk)
        # A brace initialiser is blank by now (`= {}` leaves a bare `=`).
        decl = re.sub(r"=\s*(?:[^=].*)?$", " ", decl.strip(), flags=re.S)
        decl = re.sub(r"\{[^{}]*\}\s*$", " ", decl)
        decl = " ".join(decl.split())
        # An access label shares its chunk with the member that follows it
        # (`private: Mutex mu_`): peel labels off before classifying.
        decl = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", decl)
        if not decl or "(" in decl or _FIELD_SKIP_RE.match(decl):
            continue
        fm = _FIELD_RE.match(decl)
        if not fm:
            continue
        name_off = sf.stripped.find(fm.group("name"), offset)
        line = sf.line_of(name_off if name_off != -1 else offset)
        guards, before, after = [], [], []
        for macro, args in anns:
            arglist = [a.strip() for a in args.split(",") if a.strip()]
            if macro in ("DCP_GUARDED_BY", "DCP_PT_GUARDED_BY"):
                guards += arglist
            elif macro == "DCP_ACQUIRED_BEFORE":
                before += arglist
            elif macro == "DCP_ACQUIRED_AFTER":
                after += arglist
        fields.append(Field(fm.group("name"), fm.group("type").strip(), line,
                            guards, before, after))
    return fields


def parse_structs(sf: SourceFile) -> list[Struct]:
    structs = []
    for m in _STRUCT_RE.finditer(sf.stripped):
        if m.group(1):  # enum class
            continue
        open_idx = m.end() - 1
        close_idx = find_matching(sf.stripped, open_idx)
        if close_idx == -1:
            continue
        # `struct Outer::Inner { ... }` definitions index under the inner name.
        name = m.group(2).split("::")[-1]
        structs.append(Struct(name, sf.rel, sf.line_of(m.start()),
                              (open_idx, close_idx),
                              parse_fields(sf, open_idx, close_idx)))
    return structs


def parse_enums(sf: SourceFile) -> dict[str, list[tuple[str, int]]]:
    enums = {}
    for m in _ENUM_RE.finditer(sf.stripped):
        open_idx = m.end() - 1
        close_idx = find_matching(sf.stripped, open_idx)
        if close_idx == -1:
            continue
        body = blank_nested_braces(sf.stripped[open_idx + 1:close_idx])
        names = []
        pos = 0
        for part in body.split(","):
            tok = part.split("=")[0].strip()
            if re.fullmatch(r"[A-Za-z_]\w*", tok):
                off = sf.stripped.find(tok, open_idx + 1 + pos)
                names.append((tok, sf.line_of(off)))
            pos += len(part) + 1
        enums[m.group(1)] = names
    return enums


def _scan_suffix(text: str, i: int):
    """Classify what follows a parameter list's ')'.

    Returns (kind, body_open, annotations) where kind is 'def', 'decl' or None.
    """
    anns = []
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            return None, -1, anns
        c = text[i]
        if c in ";,)":
            return "decl", -1, anns
        if c == "{":
            return "def", i, anns
        if c == "=":
            return "decl", -1, anns
        if c == ":":
            # Constructor init list: skip `name(args)` / `name{args}` items.
            i += 1
            while i < n:
                while i < n and text[i].isspace():
                    i += 1
                w = re.match(r"[\w:]+", text[i:])
                if not w:
                    return None, -1, anns
                i += w.end()
                while i < n and text[i].isspace():
                    i += 1
                if i >= n or text[i] not in "({":
                    return None, -1, anns
                close = find_matching(text, i, text[i],
                                      ")" if text[i] == "(" else "}")
                if close == -1:
                    return None, -1, anns
                i = close + 1
                while i < n and text[i].isspace():
                    i += 1
                if i < n and text[i] == ",":
                    i += 1
                    continue
                if i < n and text[i] == "{":
                    return "def", i, anns
                return None, -1, anns
            return None, -1, anns
        if text[i:i + 2] == "->":
            # Trailing return type: scan to '{' or ';' outside <> and ().
            i += 2
            depth = 0
            while i < n:
                c = text[i]
                if c in "<(":
                    depth += 1
                elif c in ">)":
                    depth -= 1
                elif depth <= 0 and c == "{":
                    return "def", i, anns
                elif depth <= 0 and c == ";":
                    return "decl", -1, anns
                i += 1
            return None, -1, anns
        w = re.match(r"[A-Za-z_]\w*", text[i:])
        if w:
            word = w.group(0)
            i += w.end()
            if word.startswith("DCP_"):
                while i < n and text[i].isspace():
                    i += 1
                args = ""
                if i < n and text[i] == "(":
                    close = find_matching(text, i, "(", ")")
                    if close == -1:
                        return None, -1, anns
                    args = text[i + 1:close]
                    anns.append((word, args))
                    i = close + 1
                else:
                    anns.append((word, ""))
                continue
            if word in _SUFFIX_WORDS:
                if word == "noexcept":
                    while i < n and text[i].isspace():
                        i += 1
                    if i < n and text[i] == "(":
                        close = find_matching(text, i, "(", ")")
                        if close == -1:
                            return None, -1, anns
                        i = close + 1
                continue
            return None, -1, anns
        if c == "&":
            i += 1
            continue
        return None, -1, anns
    return None, -1, anns


def parse_functions(sf: SourceFile, structs: list[Struct]) -> list[Function]:
    text = sf.stripped
    funcs = []
    for m in _DEF_RE.finditer(text):
        name = m.group(3)
        if name in _NOT_A_FUNCTION or name.startswith("DCP_"):
            continue
        open_paren = m.end() - 1
        close_paren = find_matching(text, open_paren, "(", ")")
        if close_paren == -1:
            continue
        kind, body_open, anns = _scan_suffix(text, close_paren + 1)
        if kind is None:
            continue
        qual = m.group(2).rstrip(":")
        cls = qual.split("::")[-1] if qual else ""
        if not cls:
            for s in structs:
                if s.span[0] < m.start() < s.span[1]:
                    cls = s.name
                    break
        body_span = None
        if kind == "def":
            body_close = find_matching(text, body_open)
            if body_close == -1:
                continue
            body_span = (body_open, body_close)
        funcs.append(Function(cls, name.lstrip("~"), sf.rel,
                              sf.line_of(m.start(3)),
                              text[open_paren + 1:close_paren], anns,
                              body_span))
    return funcs


class SourceTree:
    """Index of every .h/.cc under <root>/src."""

    def __init__(self, root: Path, subdir: str = "src"):
        self.root = Path(root)
        self.files: dict[str, SourceFile] = {}
        base = self.root / subdir
        for p in sorted(base.rglob("*")):
            if p.suffix in (".h", ".cc") and p.is_file():
                rel = str(p.relative_to(self.root))
                self.files[rel] = SourceFile(rel, p.read_text(errors="replace"))
        self.structs: dict[str, list[Struct]] = {}
        self.enums: dict[str, list[tuple[str, int]]] = {}
        self.functions: list[Function] = []
        self._file_structs: dict[str, list[Struct]] = {}
        for rel, sf in self.files.items():
            structs = parse_structs(sf)
            self._file_structs[rel] = structs
            for s in structs:
                self.structs.setdefault(s.name, []).append(s)
            for name, vals in parse_enums(sf).items():
                self.enums.setdefault(name, vals)
            self.functions += parse_functions(sf, structs)
        # Definitions (with bodies) indexed by qualified and bare name.
        self.defs: dict[str, list[Function]] = {}
        self.decl_annotations: dict[str, list[tuple[str, str]]] = {}
        for f in self.functions:
            if f.body_span:
                self.defs.setdefault(f.qualname, []).append(f)
                self.defs.setdefault(f.name, []).append(f)
            elif f.annotations:
                self.decl_annotations.setdefault(f.qualname, []).extend(
                    f.annotations)

    def struct(self, name: str) -> Struct | None:
        lst = self.structs.get(name)
        return lst[0] if lst else None

    def body_text(self, f: Function) -> str:
        sf = self.files[f.file]
        return sf.stripped[f.body_span[0] + 1:f.body_span[1]]

    def merged_annotations(self, f: Function) -> list[tuple[str, str]]:
        """Definition-site annotations plus any from the header declaration."""
        return f.annotations + self.decl_annotations.get(f.qualname, [])
