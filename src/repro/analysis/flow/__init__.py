"""Interprocedural flow lint: determinism provenance + pool FS races.

The third lint engine.  Where :mod:`repro.analysis.python_lint` judges
one line at a time and :mod:`repro.liberty.lint` judges one
library at a time, this package follows *values* — RNG objects,
wall-clock reads, ``os.environ`` lookups, pool-protocol paths —
across call, return and attribute boundaries through the whole linted
tree, and flags them only when they reach a sink that the repo's
determinism or pool-protocol contracts care about:

- ``FLOW001`` — a nondeterministically seeded RNG reaches an LHS/EM/
  k-means/SSTA sampling API;
- ``FLOW002``/``FLOW003`` — wall-clock/entropy (resp. environment)
  values reach content-key, fingerprint, seed-derivation or shard
  computation;
- ``POOL001``–``POOL003`` — checkpoint/claim/journal/status paths are
  mutated outside the sanctioned idioms (fsfaults seam, O_EXCL claim
  birth, temp-file+rename payload staging).

Entry points: :func:`lint_flow_paths` / :func:`lint_flow_sources`;
architecture and soundness limits are documented in DESIGN.md §12.
"""

from repro.analysis.flow.engine import lint_flow_paths, lint_flow_sources
from repro.analysis.flow.symbols import (
    SymbolTable,
    build_symbol_table,
    module_name_for,
)
from repro.analysis.flow.taint import FlowConfig

__all__ = [
    "FlowConfig",
    "SymbolTable",
    "build_symbol_table",
    "lint_flow_paths",
    "lint_flow_sources",
    "module_name_for",
]
