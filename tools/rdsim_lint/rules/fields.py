"""Hash-field-coverage lint (ctest `fields_lint`).

`src/core/campaign_fields.hpp` enumerates, once per struct, every field that
the campaign hash folds. The one remaining way to break the bit-exact-replay
contract *silently* is to add a member to one of those structs and forget to
list it: the member escapes hashing and nothing fails until two campaigns
diverge.

This rule closes that gap statically:

  unhashed   a data member of a struct covered by campaign_fields.hpp that is
             neither folded by any field list nor explicitly annotated
             `// lint:allow(unhashed: reason)` on its declaration line

Coverage is computed from the field lists themselves, with no per-struct
configuration to drift:

  * every `template <...> // T: [const] Name  void x_fields(Ar& ar, T& v)`
    function is parsed; member paths `v.a.b.c` in its body mark `Name::a`
    covered, then recurse into the declared type of `a` for `b`, and so on —
    so nested config structs (EstimatorConfig, GovernorConfig, StateLimits…)
    are checked without being named anywhere;
  * `ar.vec(v.member, [](Ar& a, auto& e) { … e.x … })` resolves the element
    type of `member` from the struct index (std::vector<X> -> X) and treats
    the lambda body as covering X;
  * cross-function evidence merges: `r.mitigation.enabled` in run_fields
    covers MitigationSummary::enabled even though mitigation_summary_fields
    never touches it (it is the opt_block presence flag).

A struct is audited as soon as any field list touches it; every audited
member must then be covered or carry the `unhashed` escape with a reason.
"""

from __future__ import annotations

import re

from .. import cpp
from ..engine import ConfigError, SourceFile, SourceTree, Violation

FIELDS_FILE = "src/core/campaign_fields.hpp"

_T_HINT_RE = re.compile(r"//\s*T:\s*\[const\]\s*([\w:]+)")
_SIGNATURE_RE = re.compile(r"\bvoid\s+(\w+)\s*\(\s*Ar&\s*(\w+)\s*,\s*T&\s*(\w+)\s*\)")
_VEC_LAMBDA_RE = re.compile(
    r"\.vec\(\s*(\w+)\.((?:\w+\.)*\w+)\s*,\s*\[[^\]]*\]\s*"
    r"\(\s*Ar&\s*(\w+)\s*,\s*auto&\s*(\w+)\s*\)")
_LAMBDA_AR_RE = re.compile(r"\[[^\]]*\]\s*\(\s*Ar&\s*(\w+)\s*[,)]")
_PATH_RE = re.compile(r"\b([A-Za-z_]\w*)\.((?:\w+\.)*\w+)\b")


class FieldFunction:
    def __init__(self, name: str, struct_hint: str, param: str, body: str,
                 line: int):
        self.name = name
        self.struct_hint = struct_hint
        self.param = param
        self.body = body
        self.line = line


def parse_field_functions(sf: SourceFile) -> list[FieldFunction]:
    """Field-list functions with their `// T: [const] Struct` hints."""
    functions: list[FieldFunction] = []
    masked = sf.masked_text
    # Hints live in comments, so scan the raw text for them and associate
    # each with the next function signature in the masked text.
    for hint in _T_HINT_RE.finditer(sf.raw):
        sig = _SIGNATURE_RE.search(masked, hint.start())
        if sig is None:
            continue
        between = masked[hint.end():sig.start()]
        if between.count("\n") > 3:
            continue  # stray comment, not adjacent to a signature
        open_brace = masked.find("{", sig.end())
        if open_brace < 0:
            continue
        depth = 0
        end = open_brace
        for i in range(open_brace, len(masked)):
            if masked[i] == "{":
                depth += 1
            elif masked[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        line = masked.count("\n", 0, sig.start()) + 1
        functions.append(FieldFunction(
            name=sig.group(1), struct_hint=hint.group(1),
            param=sig.group(3), body=masked[open_brace + 1:end], line=line))
    return functions


class FieldsRule:
    name = "fields"

    def __init__(self, fields_file: str = FIELDS_FILE):
        self.fields_file = fields_file
        self.notes: list[str] = []

    # -- type resolution ---------------------------------------------------

    def _resolve(self, index: cpp.StructIndex, name: str) -> cpp.Struct | None:
        candidates = index.find(name)
        if not candidates:
            return None
        if len(candidates) > 1:
            raise ConfigError(
                f"struct name '{name}' is ambiguous across "
                f"{sorted({c.file for c in candidates})}; qualify the "
                "// T: hint in campaign_fields.hpp")
        return candidates[0]

    def _member_struct(self, index: cpp.StructIndex, struct: cpp.Struct,
                       member_name: str) -> cpp.Struct | None:
        for member in struct.members:
            if member.name == member_name:
                return self._resolve(index,
                                     cpp.simple_type_name(member.type))
        return None

    def _element_struct(self, index: cpp.StructIndex, struct: cpp.Struct,
                        path: list[str]) -> cpp.Struct | None:
        """Struct of the vector element at `path` below `struct`."""
        current = struct
        for component in path[:-1]:
            current = self._member_struct(index, current, component)
            if current is None:
                return None
        for member in current.members:
            if member.name == path[-1]:
                elem = cpp.element_type(member.type)
                if elem is None:
                    return None
                return self._resolve(index, cpp.simple_type_name(elem))
        return None

    # -- coverage ----------------------------------------------------------

    def _add_path(self, index: cpp.StructIndex, covered: dict,
                  struct: cpp.Struct, components: list[str]) -> None:
        if not components:
            return
        head = components[0]
        if not any(m.name == head for m in struct.members):
            return  # not a data member (method call, or would not compile)
        covered.setdefault(struct.qualified, set()).add(head)
        if len(components) > 1:
            nested = self._member_struct(index, struct, head)
            if nested is not None:
                self._add_path(index, covered, nested, components[1:])

    def check(self, tree: SourceTree) -> list[Violation]:
        sf = tree.file(self.fields_file)
        if sf is None:
            self.notes = [f"fields: {self.fields_file} not present — skipped"]
            return []
        index = tree.struct_index()
        functions = parse_field_functions(sf)
        if not functions:
            raise ConfigError(
                f"{self.fields_file} contains no '// T: [const] …' field-list "
                "functions — the fields lint has nothing to anchor on")

        covered: dict[str, set[str]] = {}   # qualified name -> member names
        audited: dict[str, cpp.Struct] = {}

        for fn in functions:
            root = self._resolve(index, fn.struct_hint)
            if root is None:
                raise ConfigError(
                    f"{self.fields_file}: function {fn.name} is hinted as "
                    f"'// T: [const] {fn.struct_hint}' but no such struct "
                    "exists in src/")
            audited[root.qualified] = root

            # archive parameter names never denote hashed objects
            archives = {"ar"}
            for m in _LAMBDA_AR_RE.finditer(fn.body):
                archives.add(m.group(1))

            # bindings: object parameter names -> struct they denote
            bindings: dict[str, cpp.Struct] = {fn.param: root}
            for m in _VEC_LAMBDA_RE.finditer(fn.body):
                outer, path, _ar, elem_param = (m.group(1), m.group(2),
                                                m.group(3), m.group(4))
                outer_struct = bindings.get(outer)
                if outer_struct is None:
                    continue
                elem = self._element_struct(index, outer_struct,
                                            path.split("."))
                if elem is None:
                    continue  # vector of scalars
                existing = bindings.get(elem_param)
                if existing is not None and existing is not elem:
                    raise ConfigError(
                        f"{self.fields_file}: lambda parameter "
                        f"'{elem_param}' in {fn.name} is reused for two "
                        "different element types; rename one")
                bindings[elem_param] = elem
                audited[elem.qualified] = elem

            for m in _PATH_RE.finditer(fn.body):
                binding, path = m.group(1), m.group(2)
                if binding in archives:
                    continue
                target = bindings.get(binding)
                if target is None:
                    continue
                self._add_path(index, covered, target, path.split("."))

        # every struct that received coverage is audited too (nested configs)
        for qualified in covered:
            if qualified not in audited:
                for structs in index.by_name.values():
                    for s in structs:
                        if s.qualified == qualified:
                            audited[qualified] = s

        violations: list[Violation] = []
        for qualified in sorted(audited):
            struct = audited[qualified]
            hashed = covered.get(qualified, set())
            for member in struct.members:
                if member.name in hashed:
                    continue
                violations.append(Violation(
                    "unhashed", struct.file, member.line,
                    f"{struct.name}::{member.name} is not folded by any "
                    f"field list in {self.fields_file} — add it to the "
                    "struct's *_fields function (campaign-hash-affecting!) "
                    "or annotate the member with "
                    "// lint:allow(unhashed: reason)"))
        return violations


def make_rule() -> FieldsRule:
    return FieldsRule()
