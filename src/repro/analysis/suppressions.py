"""Inline suppression directives and the grandfathering baseline.

Two waiver mechanisms, applied in this order:

1. **Inline directives** — a comment on the offending line (or a
   file-scope directive on its own line) waives named rules::

       value = legacy_call()  # repro-lint: disable=RNG001
       # repro-lint: disable-file=PAR003

   Directives name rules by id or symbolic name, comma-separated.
   Suppressed findings are still reported (marked ``suppressed``) so a
   waiver is visible, but they never fail the run.

2. **Baseline file** — a JSON list of grandfathered findings created
   with ``repro lint --write-baseline``.  Entries match on
   ``(file, rule, hash of the stripped source line)`` so findings
   survive unrelated edits that shift line numbers, but *new*
   occurrences of the same rule in the same file still fail.

Both engines share this module; Liberty findings can be baselined the
same way (their ``source`` is the offending group header).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from repro.findings import REGISTRY, Finding
from repro.errors import ParameterError
from repro.runtime.export import write_text_file

__all__ = [
    "SuppressionIndex",
    "apply_baseline",
    "apply_suppressions",
    "load_baseline",
    "write_baseline",
]

#: ``# repro-lint: disable=RULE[,RULE...]`` / ``disable-file=...``.
_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\- ]+)"
)


class SuppressionIndex:
    """Parsed inline directives of one source file."""

    def __init__(self, file_rules: set[str], line_rules: dict[int, set[str]]):
        self._file_rules = file_rules
        self._line_rules = line_rules

    @classmethod
    def from_source(cls, text: str, *, file: str = "<source>") -> "SuppressionIndex":
        """Scan ``text`` for directives.

        Raises:
            ParameterError: When a directive names an unknown rule —
                a typo'd suppression silently failing open is worse
                than an error.
        """
        file_rules: set[str] = set()
        line_rules: dict[int, set[str]] = {}
        for number, line in enumerate(text.splitlines(), start=1):
            match = _DIRECTIVE.search(line)
            if match is None:
                continue
            names = [
                piece.strip()
                for piece in match.group("rules").split(",")
                if piece.strip()
            ]
            if not names:
                raise ParameterError(
                    f"{file}:{number}: empty repro-lint directive"
                )
            ids = set()
            for name in names:
                rule = REGISTRY.get(name)  # raises on unknown rule
                ids.add(rule.rule_id)
            if match.group("scope") == "disable-file":
                file_rules |= ids
            else:
                line_rules.setdefault(number, set()).update(ids)
        return cls(file_rules, line_rules)

    def waives(self, rule_id: str, line: int) -> bool:
        """Whether the directive set waives ``rule_id`` at ``line``."""
        if rule_id in self._file_rules:
            return True
        return rule_id in self._line_rules.get(line, set())


def apply_suppressions(
    findings: list[Finding], sources: dict[str, str]
) -> list[Finding]:
    """Mark findings waived by inline directives in their file.

    Args:
        findings: Raw engine output.
        sources: Map of file path -> source text (files absent from the
            map keep their findings active).
    """
    indices: dict[str, SuppressionIndex] = {}
    result = []
    for finding in findings:
        index = indices.get(finding.file)
        if index is None and finding.file in sources:
            index = SuppressionIndex.from_source(
                sources[finding.file], file=finding.file
            )
            indices[finding.file] = index
        if index is not None and index.waives(finding.rule_id, finding.line):
            finding = finding.waived(suppressed=True)
        result.append(finding)
    return result


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------
_BASELINE_SCHEMA = "repro.lint_baseline/1"


def _entry_key(finding: Finding) -> tuple[str, str, str]:
    digest = hashlib.sha256(
        finding.source.strip().encode()
    ).hexdigest()[:16]
    return (finding.file, finding.rule_id, digest)


def write_baseline(path: str | Path, findings: list[Finding]) -> int:
    """Write the active findings as a baseline; returns entry count.

    Suppressed findings are excluded — an inline waiver already covers
    them, and double-listing would hide the directive going stale.
    """
    entries = [
        {
            "file": file,
            "rule": rule,
            "source_hash": digest,
        }
        for file, rule, digest in sorted(
            _entry_key(finding)
            for finding in findings
            if not finding.suppressed
        )
    ]
    payload = {"schema": _BASELINE_SCHEMA, "entries": entries}
    write_text_file(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return len(entries)


def load_baseline(path: str | Path) -> set[tuple[str, str, str]]:
    """Load a baseline file into a set of match keys.

    Raises:
        ParameterError: When the file is unreadable or not a baseline.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        raise ParameterError(
            f"cannot read baseline {path}: {error}"
        ) from error
    except json.JSONDecodeError as error:
        raise ParameterError(
            f"baseline {path} is not valid JSON: {error}"
        ) from error
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != _BASELINE_SCHEMA
        or not isinstance(payload.get("entries"), list)
    ):
        raise ParameterError(
            f"baseline {path} has an unknown format "
            f"(expected schema {_BASELINE_SCHEMA!r})"
        )
    keys = set()
    for entry in payload["entries"]:
        try:
            keys.add(
                (entry["file"], entry["rule"], entry["source_hash"])
            )
        except (TypeError, KeyError) as error:
            raise ParameterError(
                f"baseline {path} entry missing field: {error}"
            ) from error
    return keys


def apply_baseline(
    findings: list[Finding], keys: set[tuple[str, str, str]]
) -> list[Finding]:
    """Mark findings covered by baseline ``keys`` as grandfathered."""
    return [
        finding.waived(baselined=_entry_key(finding) in keys)
        for finding in findings
    ]
