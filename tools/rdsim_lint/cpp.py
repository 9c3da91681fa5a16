"""C++ source-text tooling shared by every rdsim lint rule.

Three layers, all deterministic and dependency-free:

  clean()           one-pass state machine producing two views of a file that
                    stay byte-aligned with the original: `masked` (comments
                    stripped AND string/char-literal contents blanked) and
                    `code` (comments stripped, string literals kept). Handles
                    line/block comments, char literals (including digit
                    separators like 1'000'000), escapes, and raw strings
                    R"delim(...)delim" — the cases the old per-line regex
                    lints could not.

  parse_includes()  `#include "..."` extraction from the `code` view.

  StructIndex       a lightweight struct/class member extractor over the
                    `masked` view: records every struct's members (name,
                    line, default-initializer presence) while
                    skipping member functions, nested-type bodies, using/
                    typedef/static/friend declarations and access specifiers.
                    Namespace and outer-struct context is tracked so indexed
                    names can be disambiguated.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Cleaning


@dataclass
class CleanText:
    """Two comment-free views of one file, byte-aligned with the original."""

    masked: str  #: comments stripped, string/char contents blanked
    code: str    #: comments stripped, string literals kept

    def masked_lines(self) -> list[str]:
        return self.masked.splitlines()

    def code_lines(self) -> list[str]:
        return self.code.splitlines()


_RAW_OPEN_RE = re.compile(r'R"([^ ()\\\t\n]{0,16})\(')


def clean(text: str) -> CleanText:
    """Strip comments; blank string/char contents in the masked view."""
    masked: list[str] = []
    code: list[str] = []
    i = 0
    n = len(text)

    def emit(ch: str) -> None:
        masked.append(ch)
        code.append(ch)

    def emit_string_char(ch: str) -> None:
        masked.append(ch if ch == "\n" else " ")
        code.append(ch)

    def emit_comment_char(ch: str) -> None:
        masked.append(ch if ch == "\n" else " ")
        code.append(ch if ch == "\n" else " ")

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""

        if ch == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                emit_comment_char(text[i])
                i += 1
            continue

        if ch == "/" and nxt == "*":  # block comment
            emit_comment_char(ch)
            emit_comment_char(nxt)
            i += 2
            while i < n:
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    emit_comment_char("*")
                    emit_comment_char("/")
                    i += 2
                    break
                emit_comment_char(text[i])
                i += 1
            continue

        if ch == "R" and nxt == '"':  # raw string literal
            m = _RAW_OPEN_RE.match(text, i)
            if m is not None:
                delim = m.group(1)
                closer = ")" + delim + '"'
                end = text.find(closer, m.end())
                if end < 0:
                    end = n  # unterminated; treat rest of file as literal
                emit(ch)  # R
                emit('"')
                for j in range(i + 2, min(end + len(closer), n)):
                    emit_string_char(text[j])
                i = end + len(closer) if end < n else n
                continue

        if ch == '"':  # string literal
            emit(ch)
            i += 1
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n:
                    emit_string_char(text[i])
                    emit_string_char(text[i + 1])
                    i += 2
                    continue
                if text[i] == '"':
                    emit(text[i])
                    i += 1
                    break
                emit_string_char(text[i])
                i += 1
            continue

        if ch == "'":
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() or prev == "_":
                # digit separator (1'000'000) or suffix context — not a char
                emit(ch)
                i += 1
                continue
            emit(ch)
            i += 1
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n:
                    emit_string_char(text[i])
                    emit_string_char(text[i + 1])
                    i += 2
                    continue
                if text[i] == "'":
                    emit(text[i])
                    i += 1
                    break
                emit_string_char(text[i])
                i += 1
            continue

        emit(ch)
        i += 1

    return CleanText(masked="".join(masked), code="".join(code))


# --------------------------------------------------------------------------
# lint:allow escapes

# Grammar: `// lint:allow(rule)` or `// lint:allow(rule: reason)`. Multiple
# escapes may share one line. Rule names are kebab-case.
ALLOW_RE = re.compile(r"lint:allow\(([a-z][a-z0-9-]*)(?:\s*:[^)]*)?\)")


def allowed_rules(raw_line: str) -> set[str]:
    return set(ALLOW_RE.findall(raw_line))


# --------------------------------------------------------------------------
# Includes

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def parse_includes(code_lines: list[str]) -> list[tuple[int, str]]:
    """(line_no, path) for every quoted include, 1-based line numbers."""
    found: list[tuple[int, str]] = []
    for line_no, line in enumerate(code_lines, start=1):
        m = _INCLUDE_RE.match(line)
        if m is not None:
            found.append((line_no, m.group(1)))
    return found


# --------------------------------------------------------------------------
# Struct / member extraction


@dataclass
class Member:
    name: str
    line: int          #: 1-based line of the declarator
    has_init: bool     #: default member initializer (`{...}` or `= ...`)


@dataclass
class Struct:
    name: str
    qualified: str     #: namespace/outer-struct qualified, '::'-joined
    file: str          #: repo-relative path
    line: int
    kind: str          #: "struct" | "class"
    members: list[Member] = field(default_factory=list)


# Annotation macros that may trail a member declarator; stripped before
# classification so `std::deque<T> q_ RDSIM_GUARDED_BY(mutex_);` still parses
# as a data member, not a function.
_ATTR_MACRO_RE = re.compile(r"\bRDSIM_[A-Z_]+\s*\([^()]*\)|\[\[[^\]]*\]\]")

_DECL_START_RE = re.compile(r"\b(struct|class)\s+([A-Za-z_]\w*)")
_NAMESPACE_RE = re.compile(r"\bnamespace\s+((?:[A-Za-z_]\w*)(?:::[A-Za-z_]\w*)*)?\s*\{")
_SKIP_KEYWORDS_RE = re.compile(r"\b(?:using|typedef|static|friend|operator|template)\b")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def _line_of(offset: int, newline_offsets: list[int]) -> int:
    return bisect.bisect_right(newline_offsets, offset) + 1


class _StatementParser:
    """Splits a struct body into top-level statements and classifies them."""

    def __init__(self, masked: str, newline_offsets: list[int], rel: str):
        self.masked = masked
        self.newlines = newline_offsets
        self.rel = rel

    def parse_members(self, struct: Struct, body_start: int, body_end: int,
                      index: "StructIndex", context: list[str]) -> None:
        """Walk [body_start, body_end) collecting members; nested struct
        definitions recurse into the index with `context` extended."""
        i = body_start
        stmt_start = i
        paren_depth = 0
        saw_paren = False
        while i < body_end:
            ch = self.masked[i]
            if ch == "(":
                paren_depth += 1
                saw_paren = True
            elif ch == ")":
                paren_depth = max(0, paren_depth - 1)
            elif ch == ":" and paren_depth == 0:
                # access specifier (`public:`) — only when the statement so
                # far is exactly one of the three keywords.
                head = self.masked[stmt_start:i].strip()
                if head in ("public", "private", "protected"):
                    stmt_start = i + 1
                    saw_paren = False
            elif ch == "{":
                head = self.masked[stmt_start:i]
                nested = _DECL_START_RE.search(head)
                if (nested is not None and not saw_paren
                        and not re.search(r"\benum\s+(struct|class)?\s*$",
                                          head[:nested.start()])):
                    close = self._matching_brace(i, body_end)
                    # re-anchor the match against the full text so offsets
                    # and line numbers are absolute
                    abs_decl = _DECL_START_RE.search(
                        self.masked, stmt_start + nested.start(), i)
                    index._index_struct(self.rel, abs_decl, i, close, context)
                    i = close + 1
                    stmt_start = i
                    # swallow a trailing `;` (and any declarator — not used
                    # in this codebase — is intentionally not re-parsed)
                    while stmt_start < body_end and \
                            self.masked[stmt_start] in " \t\n;":
                        stmt_start += 1
                    i = stmt_start
                    saw_paren = False
                    continue
                if saw_paren or _SKIP_KEYWORDS_RE.search(head) or \
                        nested is not None or "enum" in head:
                    # function body / nested enum / lambda-ish — skip it
                    close = self._matching_brace(i, body_end)
                    i = close + 1
                    stmt_start = i
                    # function bodies need no trailing `;`
                    while stmt_start < body_end and \
                            self.masked[stmt_start] in " \t\n;":
                        stmt_start += 1
                    i = stmt_start
                    saw_paren = False
                    continue
                # brace initializer on a member — consume it, stay in stmt
                i = self._matching_brace(i, body_end) + 1
                continue
            elif ch == ";" and paren_depth == 0:
                self._classify(struct, stmt_start, i)
                stmt_start = i + 1
                saw_paren = False
            i += 1

    def _matching_brace(self, open_idx: int, limit: int) -> int:
        depth = 0
        i = open_idx
        while i < limit:
            if self.masked[i] == "{":
                depth += 1
            elif self.masked[i] == "}":
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return limit - 1

    def _classify(self, struct: Struct, start: int, end: int) -> None:
        text = self.masked[start:end]
        stripped = _ATTR_MACRO_RE.sub(" ", text)
        if not stripped.strip():
            return
        if _SKIP_KEYWORDS_RE.search(stripped):
            return
        if "(" in self._outside_braces(stripped):
            return  # function / constructor declaration
        for name, has_init, rel_off in self._declarators(stripped):
            line = _line_of(start + rel_off, self.newlines)
            struct.members.append(Member(name, line, has_init))

    @staticmethod
    def _outside_braces(text: str) -> str:
        out = []
        depth = 0
        for ch in text:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth = max(0, depth - 1)
            elif depth == 0:
                out.append(ch)
        return "".join(out)

    @staticmethod
    def _top_level_commas(text: str) -> list[int]:
        spots = []
        angle = brace = paren = 0
        for i, ch in enumerate(text):
            if ch == "<":
                angle += 1
            elif ch == ">":
                angle = max(0, angle - 1)
            elif ch == "{":
                brace += 1
            elif ch == "}":
                brace = max(0, brace - 1)
            elif ch == "(":
                paren += 1
            elif ch == ")":
                paren = max(0, paren - 1)
            elif ch == "," and angle == brace == paren == 0:
                spots.append(i)
        return spots

    def _declarators(self, text: str) -> list[tuple[str, bool, int]]:
        """(name, has_init, offset-in-text) per declarator in a member stmt."""
        chunks: list[tuple[int, str]] = []
        prev = 0
        for comma in self._top_level_commas(text):
            chunks.append((prev, text[prev:comma]))
            prev = comma + 1
        chunks.append((prev, text[prev:]))

        out: list[tuple[str, bool, int]] = []
        for base, chunk in chunks:
            # name = last identifier before any top-level `{` or `=`
            cut = len(chunk)
            angle = 0
            for i, ch in enumerate(chunk):
                if ch == "<":
                    angle += 1
                elif ch == ">":
                    angle = max(0, angle - 1)
                elif ch in "{=" and angle == 0:
                    cut = i
                    break
            head = chunk[:cut]
            idents = [m for m in _IDENT_RE.finditer(head)]
            if not idents:
                continue
            last = idents[-1]
            # skip array brackets: `double a[3]` — name is still `a`
            name = last.group(0)
            if name in ("const", "constexpr", "mutable", "volatile", "auto"):
                continue
            has_init = cut < len(chunk)
            out.append((name, has_init, base + last.start()))
        return out


class StructIndex:
    """All struct/class definitions found across a set of files."""

    def __init__(self) -> None:
        self.by_name: dict[str, list[Struct]] = {}

    def add_file(self, rel: str, masked: str) -> None:
        newline_offsets = [i for i, ch in enumerate(masked) if ch == "\n"]
        self._scan(rel, masked, 0, len(masked), [], newline_offsets)

    # -- lookup ------------------------------------------------------------

    def find(self, name: str) -> list[Struct]:
        """Match by simple or partially-qualified name (`net::StreamStats`)."""
        simple = name.split("::")[-1]
        candidates = self.by_name.get(simple, [])
        if len(candidates) <= 1 or "::" not in name:
            return candidates
        suffix = name
        narrowed = [s for s in candidates
                    if s.qualified.endswith(suffix) or s.qualified == suffix]
        return narrowed or candidates

    # -- scanning ----------------------------------------------------------

    def _scan(self, rel: str, masked: str, start: int, end: int,
              context: list[str], newline_offsets: list[int]) -> None:
        """Find namespace blocks and struct definitions in [start, end)."""
        self._newlines = newline_offsets
        i = start
        while i < end:
            ns = _NAMESPACE_RE.search(masked, i, end)
            decl = _DECL_START_RE.search(masked, i, end)
            if ns is None and decl is None:
                return
            if decl is None or (ns is not None and ns.start() < decl.start()):
                body_open = masked.index("{", ns.start())
                close = self._match(masked, body_open, end)
                parts = (ns.group(1) or "").split("::") if ns.group(1) else []
                self._scan(rel, masked, body_open + 1, close,
                           context + parts, newline_offsets)
                i = close + 1
                continue
            # struct/class decl — find `{` or `;` first
            if self._preceded_by_enum(masked, decl.start()):
                i = decl.end()
                continue
            j = decl.end()
            while j < end and masked[j] not in "{;(":
                j += 1
            if j >= end or masked[j] != "{":
                i = decl.end()
                continue
            close = self._match(masked, j, end)
            self._index_struct(rel, decl, j, close, context)
            i = close + 1

    @staticmethod
    def _preceded_by_enum(masked: str, at: int) -> bool:
        head = masked[max(0, at - 16):at]
        return bool(re.search(r"\benum\s+$", head))

    @staticmethod
    def _match(masked: str, open_idx: int, limit: int) -> int:
        depth = 0
        for i in range(open_idx, limit):
            if masked[i] == "{":
                depth += 1
            elif masked[i] == "}":
                depth -= 1
                if depth == 0:
                    return i
        return limit - 1

    def _index_struct(self, rel: str, decl: "re.Match[str]", body_open: int,
                      body_close: int, context: list[str]) -> None:
        masked = decl.string
        name = decl.group(2)
        qualified = "::".join(context + [name])
        struct = Struct(name=name, qualified=qualified, file=rel,
                        line=_line_of(decl.start(), self._newlines),
                        kind=decl.group(1))
        parser = _StatementParser(masked, self._newlines, rel)
        parser.parse_members(struct, body_open + 1, body_close, self,
                             context + [name])
        self.by_name.setdefault(name, []).append(struct)

