"""Finding model, severity and rule registry shared by every checker.

A *rule* is a named invariant with a stable id (``RNG001``,
``LIB004``...); a *finding* is one concrete violation of a rule at a
file/line.  The Python source engine
(:mod:`repro.analysis.python_lint`), the interprocedural flow pass
(:mod:`repro.analysis.flow`) and the Liberty contract checker
(:mod:`repro.liberty.lint`) all register their rules in the one
:class:`RuleRegistry` below, so ``repro lint --rules`` can render a
single table and rule ids can never collide across engines.

:class:`Severity` is the only severity scale: ``INFO`` findings never
fail a lint run, ``WARNING`` and ``ERROR`` do unless baselined or
suppressed (see :mod:`repro.analysis.suppressions`), and ``repro
validate`` fails on ``ERROR`` only.  The module lives outside
:mod:`repro.analysis` so :mod:`repro.liberty` can use it without
importing the source linters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import ParameterError

__all__ = [
    "Finding",
    "REGISTRY",
    "Rule",
    "RuleRegistry",
    "Severity",
]


class Severity(enum.Enum):
    """Finding severity, in increasing order of gravity."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Rule:
    """One registered invariant.

    Attributes:
        rule_id: Stable short id, e.g. ``RNG001``.
        name: Symbolic kebab-case name, e.g. ``global-rng``.
        engine: ``"python"``, ``"flow"`` or ``"liberty"``.
        severity: Default severity of findings from this rule.
        summary: One-line description for the rule table.
    """

    rule_id: str
    name: str
    engine: str
    severity: Severity
    summary: str


@dataclass(frozen=True)
class Finding:
    """One concrete rule violation.

    Attributes:
        rule_id: Id of the violated rule.
        severity: Effective severity (defaults to the rule's).
        file: Path of the offending file, as given to the engine
            (the library name for an in-memory library).
        line: 1-based line number (0 when unknown, e.g. a file-level
            Liberty finding).
        message: Human-readable description of the violation.
        source: Stripped text of the offending source line; used for
            drift-tolerant baseline matching.
        suppressed: True when an inline directive waived this finding.
        baselined: True when a baseline entry grandfathered it.
    """

    rule_id: str
    severity: Severity
    file: str
    line: int
    message: str
    source: str = ""
    suppressed: bool = False
    baselined: bool = False

    @property
    def is_active(self) -> bool:
        """Whether this finding still counts against the run."""
        return not (self.suppressed or self.baselined)

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.rule_id} {self.message}"

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.rule_id, self.message)

    def to_dict(self) -> dict:
        """JSONL record (telemetry conventions: self-describing type)."""
        return {
            "type": "finding",
            "rule": self.rule_id,
            "severity": self.severity.value,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }

    def waived(self, *, suppressed: bool = False, baselined: bool = False) -> "Finding":
        """Copy of the finding with a waiver flag set."""
        return replace(
            self,
            suppressed=self.suppressed or suppressed,
            baselined=self.baselined or baselined,
        )


class RuleRegistry:
    """All registered rules, keyed by id and by symbolic name."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}
        self._by_name: dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if rule.rule_id in self._rules:
            raise ParameterError(
                f"duplicate rule id {rule.rule_id!r}"
            )
        if rule.name in self._by_name:
            raise ParameterError(
                f"duplicate rule name {rule.name!r}"
            )
        self._rules[rule.rule_id] = rule
        self._by_name[rule.name] = rule
        return rule

    def get(self, key: str) -> Rule:
        """Look a rule up by id or symbolic name.

        Raises:
            ParameterError: For an unknown rule.
        """
        rule = self._rules.get(key) or self._by_name.get(key)
        if rule is None:
            raise ParameterError(f"unknown lint rule {key!r}")
        return rule

    def __contains__(self, key: str) -> bool:
        return key in self._rules or key in self._by_name

    def rules(self, engine: str | None = None) -> list[Rule]:
        """All rules (optionally one engine's), sorted by id."""
        return sorted(
            (
                rule
                for rule in self._rules.values()
                if engine is None or rule.engine == engine
            ),
            key=lambda rule: rule.rule_id,
        )

    def finding(
        self,
        rule_id: str,
        file: str,
        line: int,
        message: str,
        *,
        source: str = "",
        severity: Severity | None = None,
    ) -> Finding:
        """Build a finding for a registered rule (id must exist)."""
        rule = self.get(rule_id)
        return Finding(
            rule_id=rule.rule_id,
            severity=severity if severity is not None else rule.severity,
            file=file,
            line=line,
            message=message,
            source=source,
        )

    def table(self) -> str:
        """Render the rule table for ``repro lint --rules``."""
        lines = []
        for rule in self.rules():
            lines.append(
                f"{rule.rule_id}  {rule.severity.value:<7s} "
                f"{rule.name:<24s} {rule.summary}"
            )
        return "\n".join(lines)


#: The process-wide registry both engines populate at import time.
#: Read-only after module import — safe to share across workers.
REGISTRY = RuleRegistry()


def _register(
    rule_id: str,
    name: str,
    engine: str,
    severity: Severity,
    summary: str,
) -> Rule:
    return REGISTRY.register(
        Rule(rule_id, name, engine, severity, summary)
    )


# ---------------------------------------------------------------------------
# Python source rules (:mod:`repro.analysis.python_lint`): RNG
# discipline, determinism hazards, numerical-safety smells,
# parallel-readiness.
# ---------------------------------------------------------------------------
_register(
    "RNG001",
    "global-rng",
    "python",
    Severity.ERROR,
    "np.random.* global-state call; thread a Generator instead",
)
_register(
    "RNG002",
    "seedless-rng",
    "python",
    Severity.ERROR,
    "default_rng() without a seed outside conftest/faults",
)
_register(
    "RNG003",
    "sampler-no-rng",
    "python",
    Severity.WARNING,
    "sampler function does not accept an rng argument",
)
_register(
    "DET001",
    "set-iteration",
    "python",
    Severity.ERROR,
    "iteration over an unordered set feeds ordered output",
)
_register(
    "DET002",
    "wallclock-fingerprint",
    "python",
    Severity.ERROR,
    "wall-clock/entropy call inside a fingerprint/token function",
)
_register(
    "NUM001",
    "bare-except",
    "python",
    Severity.ERROR,
    "bare except (or except-pass) swallows numerical errors",
)
_register(
    "NUM002",
    "silent-errstate",
    "python",
    Severity.ERROR,
    'np.errstate(all="ignore") silences every FP signal',
)
_register(
    "NUM003",
    "unguarded-division",
    "python",
    Severity.WARNING,
    "division in stats/ by a value never checked against zero",
)
_register(
    "PAR001",
    "module-mutable-state",
    "python",
    Severity.ERROR,
    "module-level mutable container blocks parallel workers",
)
_register(
    "PAR002",
    "non-atomic-write",
    "python",
    Severity.ERROR,
    "file write bypasses the atomic repro.runtime.export helpers",
)
_register(
    "PAR003",
    "global-rebind",
    "python",
    Severity.WARNING,
    "function rebinds module state via `global` in repro.runtime",
)

# ---------------------------------------------------------------------------
# Interprocedural flow rules: determinism provenance and the pool
# filesystem-race detector (:mod:`repro.analysis.flow`).  Unlike
# the per-file RNG/DET rules above, these track values across
# call/return/attribute flow through the whole linted tree.
# ---------------------------------------------------------------------------
_register(
    "FLOW001",
    "tainted-rng-flow",
    "flow",
    Severity.ERROR,
    "entropy/wall-clock/env-seeded RNG reaches a sampling API",
)
_register(
    "FLOW002",
    "wallclock-into-key",
    "flow",
    Severity.ERROR,
    "wall-clock/entropy value flows into a content key or shard",
)
_register(
    "FLOW003",
    "env-into-key",
    "flow",
    Severity.ERROR,
    "os.environ value flows into a content key or shard",
)
_register(
    "POOL001",
    "pool-write-bypasses-seam",
    "flow",
    Severity.ERROR,
    "pool-protocol path mutated without the fsfaults retry seam",
)
_register(
    "POOL002",
    "claim-write-not-exclusive",
    "flow",
    Severity.ERROR,
    "claim-file body written without an O_CREAT|O_EXCL create",
)
_register(
    "POOL003",
    "inplace-pool-write",
    "flow",
    Severity.ERROR,
    "pool payload truncated in place; stage to a temp file + rename",
)

# ---------------------------------------------------------------------------
# Liberty / LVF2 contract rules (:mod:`repro.liberty.lint`), paper
# §3.3 semantics.
# ---------------------------------------------------------------------------
_register(
    "LIB001",
    "weight-range",
    "liberty",
    Severity.ERROR,
    "ocv_weight2 (lambda) value outside [0, 1]",
)
_register(
    "LIB002",
    "backward-compat",
    "liberty",
    Severity.ERROR,
    "lambda=0 tables do not collapse to plain LVF (Eq. 10)",
)
_register(
    "LIB003",
    "axis-monotonicity",
    "liberty",
    Severity.ERROR,
    "LUT index axis not strictly increasing",
)
_register(
    "LIB004",
    "shape-mismatch",
    "liberty",
    Severity.ERROR,
    "LVF2 attribute table shape disagrees across the seven LUTs",
)
_register(
    "LIB005",
    "moment-sanity",
    "liberty",
    Severity.ERROR,
    "mixture moment out of range (sigma<=0 or |skew|>=SN bound)",
)
_register(
    "LIB006",
    "template-consistency",
    "liberty",
    Severity.ERROR,
    "LUT references a missing template or contradicts its axes",
)
_register(
    "LIB007",
    "mixture-completeness",
    "liberty",
    Severity.ERROR,
    "nonzero ocv_weight2 without the full second-component LUT set",
)
_register(
    "LIB008",
    "malformed-table",
    "liberty",
    Severity.ERROR,
    "LUT group is missing values or carries unparseable numbers",
)
_register(
    "LIB009",
    "unit-consistency",
    "liberty",
    Severity.WARNING,
    "library-level unit/delay-model attributes absent or unusual",
)
_register(
    "LIB010",
    "dead-extension",
    "liberty",
    Severity.INFO,
    "LVF2 extension LUTs present but lambda is zero everywhere",
)
_register(
    "LIB011",
    "nominal-positive",
    "liberty",
    Severity.ERROR,
    "nominal delay/transition LUT has non-positive entries",
)
_register(
    "LIB012",
    "related-pin",
    "liberty",
    Severity.ERROR,
    "timing group lacks related_pin or names a pin the cell lacks",
)
_register(
    "LIB013",
    "empty-structure",
    "liberty",
    Severity.WARNING,
    "library without cells, cell without output, arc without LUTs",
)
_register(
    "LIB014",
    "no-variation",
    "liberty",
    Severity.WARNING,
    "timing group has nominal LUTs but no LVF variation data",
)
