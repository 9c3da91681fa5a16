"""Rule registry for rdsim_lint.

Each module exposes a factory `make_rule()` returning an engine-compatible
rule object. `ALL_RULES` maps the CLI/ctest names to those factories; order
here is the order rules run and report.
"""

from __future__ import annotations

from . import determinism, layering, threads, units

ALL_RULES = {
    "determinism": determinism.make_rule,
    "units": units.make_rule,
    "layering": layering.make_rule,
    "threads": threads.make_rule,
}
