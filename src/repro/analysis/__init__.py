"""Static analysis: determinism lint for sources and LVF2 artifacts.

Three engines share one rule registry, finding model and severity
scale (:mod:`repro.findings`) and the reporters below (see DESIGN.md
§"Static analysis" and §12):

- :mod:`repro.analysis.python_lint` — an :mod:`ast`-based per-file
  linter for the repo's own sources, enforcing the reproducibility
  contract the checkpoint/resume layer and the parallel
  characterisation workers depend on (RNG discipline, determinism
  hazards, numerical safety, shared-state rules).  CLI: ``repro
  lint``.
- :mod:`repro.liberty.lint` — the one Liberty contract checker: it
  walks the parsed Liberty AST and checks LVF2 semantics (λ range,
  Eq. 10 backward compatibility, LUT shape/axis agreement, mixture
  moment sanity, pins and structure) so a bad library is rejected
  with rule-tagged diagnostics before it reaches SSTA.  It lives in
  :mod:`repro.liberty` because ``validate_library`` runs it on bound
  libraries; this package re-exports it.  CLI: ``repro lint-lib``
  and ``repro validate``.
- :mod:`repro.analysis.flow` — an interprocedural taint pass over the
  whole linted tree: determinism provenance (FLOW0xx — RNG/entropy/
  wall-clock/env values crossing function boundaries into sampling or
  content keys) and the pool filesystem-race detector (POOL0xx —
  protocol paths mutated outside the fsfaults/O_EXCL/temp+rename
  idioms).  CLI: ``repro lint --flow``.

All support inline suppression (``# repro-lint: disable=RULE``) and a
grandfathering baseline file (:mod:`repro.analysis.suppressions`), and
emit human text, telemetry-convention JSONL, or SARIF 2.1.0
(:mod:`repro.analysis.reporter`).  Like the telemetry package, this
package imports nothing heavyweight at module load.
"""

from repro.analysis.flow import (
    FlowConfig,
    lint_flow_paths,
    lint_flow_sources,
)
from repro.analysis.python_lint import (
    LintConfig,
    collect_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.reporter import (
    fails,
    render_jsonl,
    render_sarif,
    render_stats,
    render_text,
    scan_stats,
    summarize,
)
from repro.analysis.suppressions import (
    SuppressionIndex,
    apply_baseline,
    apply_suppressions,
    load_baseline,
    write_baseline,
)
from repro.findings import REGISTRY, Finding, Rule, RuleRegistry, Severity
from repro.liberty.lint import (
    collect_lib_files,
    lint_library_paths,
    lint_library_text,
)

__all__ = [
    "Finding",
    "FlowConfig",
    "LintConfig",
    "REGISTRY",
    "Rule",
    "RuleRegistry",
    "Severity",
    "SuppressionIndex",
    "apply_baseline",
    "apply_suppressions",
    "collect_lib_files",
    "collect_python_files",
    "fails",
    "lint_flow_paths",
    "lint_flow_sources",
    "lint_library_paths",
    "lint_library_text",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "render_jsonl",
    "render_sarif",
    "render_stats",
    "render_text",
    "scan_stats",
    "summarize",
    "write_baseline",
]
