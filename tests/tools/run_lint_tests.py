#!/usr/bin/env python3
"""Golden-fixture and unit tests for tools/rdsim_lint (ctest `lint_framework_tests`).

Two layers:

  * unit checks of the shared C++ tooling (cpp.clean views, the
    `lint:allow` escape grammar, include parsing, the struct extractor);
  * golden fixtures: each directory under tests/tools/fixtures/ is a
    miniature repo root whose `expected.json` freezes the exact
    (rule, file, line) set a rule must report — known-bad trees must yield
    exactly their violations, known-good trees must be clean.

Regenerate a golden after an intentional rule change with
`python3 tests/tools/run_lint_tests.py --regen`, then review the diff like
any other golden update.

Exit status: 0 all pass, 1 failures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from tools.rdsim_lint import cpp  # noqa: E402
from tools.rdsim_lint.engine import SourceTree, run_rules  # noqa: E402
from tools.rdsim_lint.rules import determinism, layering  # noqa: E402
from tools.rdsim_lint.rules import threads, units  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "tools" / "fixtures"

#: fixture directory -> rule factory (fixture-sized configuration)
CASES = {
    "determinism_bad": lambda: determinism.DeterminismRule(
        {"src/sim/frame.hpp": ["Frame"]}),
    "determinism_good": lambda: determinism.DeterminismRule({}),
    "layering_bad": layering.LayeringRule,
    "layering_good": layering.LayeringRule,
    "threads_bad": threads.ThreadsRule,
    "units_bad": lambda: units.UnitsRule(baseline={}),
    "units_stale": lambda: units.UnitsRule(
        baseline={"src/sim/speeds.cpp": 2}),
}

failures: list[str] = []


def check(ok: bool, label: str) -> None:
    if ok:
        print(f"  ok   {label}")
    else:
        failures.append(label)
        print(f"  FAIL {label}")


def unit_tests() -> None:
    print("unit: cpp.clean views")
    text = (
        'int a = 1; // trailing comment with rand()\n'
        'const char* s = "call rand() here";\n'
        "int sep = 1'000'000;\n"
        'const char* raw = R"x(std::mutex inside)x";\n'
        "char c = '\\'';\n"
        "/* block\n   comment */ int b = 2;\n"
    )
    cleaned = cpp.clean(text)
    masked = cleaned.masked_lines()
    code = cleaned.code_lines()
    check(len(masked) == len(code) == 7, "clean keeps line structure")
    check("rand()" not in masked[0] and "int a = 1;" in masked[0],
          "line comment stripped from masked view")
    check("rand()" not in masked[1], "string contents blanked in masked view")
    check("rand()" in code[1], "string contents kept in code view")
    check("1'000'000" in masked[2], "digit separators are not char literals")
    check("std::mutex" not in masked[3], "raw string contents blanked")
    check("int b = 2;" in masked[6], "code after block comment survives")

    print("unit: lint:allow grammar")
    check(cpp.allowed_rules("x; // lint:allow(raw-rand)") == {"raw-rand"},
          "bare escape")
    check(cpp.allowed_rules("x; // lint:allow(unhashed: mirror copy)")
          == {"unhashed"}, "escape with reason")
    check(cpp.allowed_rules(
        "// lint:allow(raw-rand: a) lint:allow(wall-clock)")
        == {"raw-rand", "wall-clock"}, "two escapes on one line")
    check(cpp.allowed_rules("// lint: allow(raw-rand)") == set(),
          "malformed escape ignored")

    print("unit: include parsing")
    inc = cpp.parse_includes(
        ['#include "net/packet.hpp"', "#include <vector>",
         '  #include "util/time.hpp"', "int x;"])
    check(inc == [(1, "net/packet.hpp"), (3, "util/time.hpp")],
          "quoted includes with line numbers")

    print("unit: struct extractor")
    masked_src = cpp.clean(
        "namespace rdsim::sim {\n"
        "struct Outer {\n"
        "  double vx{0.0}, vy{0.0}, vz;\n"
        "  std::vector<int> items{};\n"
        "  int method() const { return 0; }\n"
        "  struct Nested {\n"
        "    bool flag{false};\n"
        "  };\n"
        "  static int counter;\n"
        "  std::deque<int> q_ RDSIM_GUARDED_BY(mutex_);\n"
        "};\n"
        "enum class Color { kRed };\n"
        "}\n").masked
    index = cpp.StructIndex()
    index.add_file("src/sim/outer.hpp", masked_src)
    outer = index.find("Outer")[0]
    names = [m.name for m in outer.members]
    check(names == ["vx", "vy", "vz", "items", "q_"],
          f"members (multi-declarator, no methods/statics): {names}")
    inits = {m.name: m.has_init for m in outer.members}
    check(inits["vx"] and inits["vy"] and not inits["vz"],
          "per-declarator initializer detection")
    nested = index.find("Nested")
    check(len(nested) == 1 and nested[0].qualified
          == "rdsim::sim::Outer::Nested", "nested struct qualified name")
    check(index.find("Color") == [], "enum class is not a struct")


def fixture_tests(regen: bool) -> None:
    for name in sorted(CASES):
        fixture = FIXTURES / name
        print(f"fixture: {name}")
        rule = CASES[name]()
        report = run_rules(SourceTree(fixture), [rule])
        got = sorted((v.rule, v.file, v.line) for v in report.violations)
        expected_path = fixture / "expected.json"
        if regen:
            expected_path.write_text(json.dumps(
                [{"rule": r, "file": f, "line": l} for r, f, l in got],
                indent=2) + "\n")
            print(f"  wrote {len(got)} expected violation(s)")
            continue
        expected = sorted(
            (e["rule"], e["file"], e["line"])
            for e in json.loads(expected_path.read_text()))
        if got == expected:
            check(True, f"{len(got)} violation(s) match golden")
        else:
            check(False, f"{name}: got {got} expected {expected}")

        if name == "layering_bad":
            dot = rule.dot()
            check("color=red" in dot and '"util" -> "core"' in dot,
                  "DOT marks the seeded back-edge red")


def main() -> int:
    regen = "--regen" in sys.argv[1:]
    unit_tests()
    fixture_tests(regen)
    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall lint framework tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
