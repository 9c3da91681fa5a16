"""Units lint (ctest `units_lint`).

`src/util/units.hpp` makes physical units part of the type system. This rule
set keeps the migration from regressing:

  raw-unit-suffix   a raw `double`/`float` declaration whose name ends in a
                    unit suffix (_ms, _s, _us, _mps, _kmh, _mps2, _bps, _m —
                    including trailing-underscore members). New code must use
                    the strong types. *Ratchet*: files listed in BASELINE
                    keep their audited count of deliberate raw declarations;
                    a file may go below its baseline (the entry must then be
                    lowered) but never above, and unlisted files are clean.
  magic-conversion  hand-written unit-conversion constants outside the units
                    layer — every conversion factor lives exactly once in
                    src/util/units.hpp (or src/util/time.hpp).
"""

from __future__ import annotations

import re

from ..engine import SourceTree, Violation

# Files allowed to contain conversion constants: the units layer itself and
# the integer-microsecond virtual clock it is built on.
CONVERSION_LAYER = {
    "src/util/units.hpp",
    "src/util/units.cpp",
    "src/util/time.hpp",
}

# Audited raw-suffix declaration counts (matching lines per file). These are
# deliberate: serialized wire/trace formats stay raw doubles (stable layout,
# wrapped at call sites), DriverParams documents each gain's unit per field,
# the road builder is a generic numeric utility. Ratchet: lower
# these when a file migrates further; never raise one. Re-measured when the
# lint moved onto the rdsim_lint engine — every entry equals its head count.
BASELINE = {
    # 19 documented DriverParams model gains; display_staleness() migrated to
    # units::Seconds when the mitigation estimator started consuming it.
    "src/core/driver.hpp": 19,
    "src/sim/road.hpp": 4,
    "src/sim/road.cpp": 4,
    "src/trace/trace.hpp": 2,
    "src/sim/frame.hpp": 1,
}

RAW_SUFFIX_RE = re.compile(
    r"\b(?:double|float)\s+[A-Za-z_][A-Za-z_0-9]*"
    r"_(?:ms|s|us|mps|kmh|mps2|bps|m)_?\b"
)

MAGIC_CONVERSION_RE = re.compile(
    r"\b1e3(?![0-9])"           # ms <-> s factor (1e300 sentinels excluded)
    r"|(?<![\d.])3\.6(?![\d])"  # km/h <-> m/s factor
    r"|\*\s*1000\.0\b"          # tc decimal kilo step
    r"|/\s*8\.0\b"              # bits -> bytes
)


class UnitsRule:
    name = "units"

    def __init__(self, baseline: dict[str, int] | None = None):
        self.baseline = BASELINE if baseline is None else baseline

    def check(self, tree: SourceTree) -> list[Violation]:
        violations: list[Violation] = []
        for sf in tree.files:
            if sf.rel in CONVERSION_LAYER:
                continue
            suffix_hits: list[Violation] = []
            for line_no, code in enumerate(sf.masked_lines, start=1):
                allowed = sf.allowed(line_no)
                raw = sf.raw_lines[line_no - 1].strip()
                if ("raw-unit-suffix" not in allowed
                        and RAW_SUFFIX_RE.search(code)):
                    suffix_hits.append(Violation(
                        "raw-unit-suffix", sf.rel, line_no, raw))
                if ("magic-conversion" not in allowed
                        and MAGIC_CONVERSION_RE.search(code)):
                    violations.append(Violation(
                        "magic-conversion", sf.rel, line_no, raw))

            budget = self.baseline.get(sf.rel, 0)
            if len(suffix_hits) > budget:
                violations.extend(suffix_hits)
                violations.append(Violation(
                    "raw-unit-suffix", sf.rel, 0,
                    f"ratchet: {len(suffix_hits)} raw-unit-suffix "
                    f"declarations, baseline allows {budget} — use the "
                    "units:: strong types"))
            elif len(suffix_hits) < budget:
                violations.append(Violation(
                    "raw-unit-suffix", sf.rel, 0,
                    f"ratchet: baseline {budget} but only {len(suffix_hits)} "
                    "raw-unit-suffix declarations remain — lower BASELINE in "
                    "tools/rdsim_lint/rules/units.py to lock in the progress"))
        return violations


def make_rule() -> UnitsRule:
    return UnitsRule()
