"""Finding reporters: human text, JSONL, SARIF, and scan statistics.

The JSONL stream follows the same conventions as the telemetry sinks
(:mod:`repro.runtime.telemetry.sinks`): one self-describing object per
line with a ``type`` key — ``finding`` records followed by a single
``lint_summary`` record — so the same tooling that tails traces can
tail lint output, and ``repro trace summarize``-style consumers can
skip unknown record types.

The SARIF reporter emits a minimal but valid SARIF 2.1.0 document
(one run, one driver, rule metadata from the shared registry) so any
engine's findings — syntactic, Liberty, or interprocedural flow — can
surface in GitHub code scanning without a format shim.
"""

from __future__ import annotations

import json
from typing import TextIO

from repro.findings import REGISTRY, Finding, Severity

__all__ = [
    "fails",
    "render_jsonl",
    "render_sarif",
    "render_stats",
    "render_text",
    "scan_stats",
    "summarize",
]

#: SARIF 2.1.0 level names by finding severity.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def summarize(findings: list[Finding]) -> dict:
    """Aggregate counts for the summary line / JSONL trailer."""
    active = [finding for finding in findings if finding.is_active]
    by_severity = {severity.value: 0 for severity in Severity}
    by_rule: dict[str, int] = {}
    for finding in active:
        by_severity[finding.severity.value] += 1
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    return {
        "type": "lint_summary",
        "total": len(findings),
        "active": len(active),
        "suppressed": sum(1 for f in findings if f.suppressed),
        "baselined": sum(1 for f in findings if f.baselined),
        "by_severity": by_severity,
        "by_rule": dict(sorted(by_rule.items())),
    }


def fails(findings: list[Finding]) -> bool:
    """Whether the active findings should fail the run.

    INFO findings never fail; any active WARNING or ERROR does — the
    CI gate is "no non-baselined findings", not "no catastrophes".
    """
    return any(
        finding.is_active
        and finding.severity is not Severity.INFO
        for finding in findings
    )


def render_text(findings: list[Finding], stream: TextIO) -> None:
    """One line per finding plus a summary, pylint-style."""
    for finding in sorted(findings, key=Finding.sort_key):
        waiver = ""
        if finding.suppressed:
            waiver = " (suppressed)"
        elif finding.baselined:
            waiver = " (baselined)"
        location = (
            f"{finding.file}:{finding.line}"
            if finding.line
            else finding.file
        )
        stream.write(
            f"{location}: {finding.rule_id} "
            f"[{finding.severity.value}] {finding.message}{waiver}\n"
        )
    counts = summarize(findings)
    severities = counts["by_severity"]
    stream.write(
        f"{counts['active']} finding(s) "
        f"({severities['error']} error, {severities['warning']} warning, "
        f"{severities['info']} info), "
        f"{counts['suppressed']} suppressed, "
        f"{counts['baselined']} baselined\n"
    )


def render_jsonl(findings: list[Finding], stream: TextIO) -> None:
    """Self-describing JSONL: finding records, then one summary."""
    for finding in sorted(findings, key=Finding.sort_key):
        stream.write(
            json.dumps(finding.to_dict(), sort_keys=True) + "\n"
        )
    stream.write(
        json.dumps(summarize(findings), sort_keys=True) + "\n"
    )


def _sarif_result(finding: Finding) -> dict:
    result: dict = {
        "ruleId": finding.rule_id,
        "level": _SARIF_LEVELS[finding.severity.value],
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.file},
                    "region": {"startLine": max(finding.line, 1)},
                }
            }
        ],
    }
    if finding.suppressed or finding.baselined:
        kind = "inSource" if finding.suppressed else "external"
        result["suppressions"] = [{"kind": kind}]
    return result


def render_sarif(findings: list[Finding], stream: TextIO) -> None:
    """SARIF 2.1.0 document for GitHub code scanning.

    Rule metadata (short description, default level) comes from the
    shared registry, so every rule id that appears in the results is
    also declared in ``tool.driver.rules`` — the shape code-scanning
    ingestion validates.  Waived findings are kept, marked with a
    SARIF ``suppressions`` entry (``inSource`` for inline directives,
    ``external`` for baseline grandfathering), so the upload reflects
    the same ledger as the text report.
    """
    ordered = sorted(findings, key=Finding.sort_key)
    rule_ids = sorted({finding.rule_id for finding in ordered})
    rules = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS[rule.severity.value]
            },
        }
        for rule in (REGISTRY.get(rule_id) for rule_id in rule_ids)
    ]
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": [_sarif_result(f) for f in ordered],
            }
        ],
    }
    stream.write(json.dumps(document, sort_keys=True, indent=2) + "\n")


def scan_stats(findings: list[Finding], sources: dict[str, str]) -> dict:
    """Per-rule finding counts plus scanned file/loc totals."""
    by_rule: dict[str, dict[str, int]] = {}
    for finding in sorted(findings, key=Finding.sort_key):
        entry = by_rule.setdefault(
            finding.rule_id,
            {"total": 0, "active": 0, "suppressed": 0, "baselined": 0},
        )
        entry["total"] += 1
        if finding.suppressed:
            entry["suppressed"] += 1
        elif finding.baselined:
            entry["baselined"] += 1
        else:
            entry["active"] += 1
    return {
        "type": "lint_stats",
        "files": len(sources),
        "loc": sum(len(text.splitlines()) for text in sources.values()),
        "by_rule": by_rule,
    }


def render_stats(
    findings: list[Finding],
    sources: dict[str, str],
    stream: TextIO,
) -> None:
    """Human-readable scan statistics block."""
    stats = scan_stats(findings, sources)
    stream.write(
        f"scanned {stats['files']} file(s), {stats['loc']} line(s)\n"
    )
    if not stats["by_rule"]:
        stream.write("no findings by rule\n")
        return
    for rule_id, entry in sorted(stats["by_rule"].items()):
        stream.write(
            f"{rule_id}  total={entry['total']} "
            f"active={entry['active']} "
            f"suppressed={entry['suppressed']} "
            f"baselined={entry['baselined']}\n"
        )
