"""Whole-tree fixpoint driver and entry points for the flow pass.

The pass runs in two phases over the :class:`~repro.analysis.flow.
symbols.SymbolTable` of every linted file:

1. **Summary fixpoint.**  Each round first abstract-interprets every
   module body (so module constants like ``SUFFIX = ".claim"`` seed
   path taint into the module namespace), then every function in
   qualname order, joining the new :class:`~repro.analysis.flow.
   taint.Summary` into the old one.  Summaries, class-attribute taint
   and module namespaces only ever grow, so the iteration is monotone
   over finite label sets and terminates; ``max_rounds`` is a
   belt-and-braces cap, sized generously above the deepest
   return-chain in the tree.
2. **Report pass.**  One more sweep with reporting enabled: sink hits
   whose trigger labels are concrete become findings; everything
   symbolic was already lifted into caller summaries during phase 1
   and fires at the call site that supplies the concrete value.

Findings are deduplicated on ``(file, line, rule, message)`` — the
may-call join can reach the same sink through several candidate
callees — and returned in the stable :meth:`Finding.sort_key` order
the other engines use, so the reporters and the suppression/baseline
machinery treat all three engines identically.
"""

from __future__ import annotations

from repro.findings import Finding
from repro.analysis.flow.symbols import SymbolTable, build_symbol_table
from repro.analysis.flow.taint import FlowConfig, FunctionAnalyzer, Summary
from repro.analysis.python_lint import collect_python_files

__all__ = [
    "lint_flow_paths",
    "lint_flow_sources",
]


def _join(old: Summary | None, new: Summary) -> Summary:
    if old is None:
        return new
    return Summary(
        returns=old.returns | new.returns,
        param_sinks=old.param_sinks | new.param_sinks,
    )


def _sweep(
    config: FlowConfig,
    table: SymbolTable,
    summaries: dict[str, Summary],
    class_attrs: dict,
    module_envs: dict,
    lines_by_file: dict[str, list[str]],
    report: list[Finding] | None,
) -> bool:
    """One whole-program round; True when any summary grew."""
    changed = False
    for name in sorted(table.modules):
        module = table.modules[name]
        FunctionAnalyzer(
            config,
            table,
            module,
            None,
            summaries,
            class_attrs,
            module_envs,
            lines_by_file[module.file],
            report=report,
        ).run()
    for info in table.functions():
        module = table.modules[info.module]
        fresh = FunctionAnalyzer(
            config,
            table,
            module,
            info,
            summaries,
            class_attrs,
            module_envs,
            lines_by_file[info.file],
            report=report,
        ).run()
        merged = _join(summaries.get(info.qualname), fresh)
        if merged != summaries.get(info.qualname):
            summaries[info.qualname] = merged
            changed = True
    return changed


def lint_flow_sources(
    sources: dict[str, str],
    config: FlowConfig | None = None,
) -> list[Finding]:
    """Run the interprocedural pass over ``path → source text``.

    Returns findings for the FLOW0xx/POOL0xx rules, sorted; inline
    suppressions and baselines are the caller's concern (the CLI
    applies :func:`repro.analysis.suppressions.apply_suppressions`
    exactly as it does for the per-file engines).
    """
    config = config or FlowConfig()
    table = build_symbol_table(sources)
    lines_by_file = {
        path: text.splitlines() for path, text in sources.items()
    }
    summaries: dict[str, Summary] = {}
    class_attrs: dict = {}
    module_envs: dict = {}
    for _ in range(config.max_rounds):
        if not _sweep(
            config,
            table,
            summaries,
            class_attrs,
            module_envs,
            lines_by_file,
            report=None,
        ):
            break
    report: list[Finding] = []
    _sweep(
        config,
        table,
        summaries,
        class_attrs,
        module_envs,
        lines_by_file,
        report=report,
    )
    unique = {
        (f.file, f.line, f.rule_id, f.message): f for f in report
    }
    return sorted(unique.values(), key=Finding.sort_key)


def lint_flow_paths(
    paths: list[str],
    config: FlowConfig | None = None,
) -> tuple[list[Finding], dict[str, str]]:
    """Flow-lint files/trees; returns ``(findings, sources)``.

    Mirrors :func:`repro.analysis.python_lint.lint_paths` so the CLI
    can feed the same ``sources`` map into the suppression scanner.
    """
    files = collect_python_files(paths)
    sources: dict[str, str] = {}
    for path in files:
        sources[str(path)] = path.read_text(encoding="utf-8")
    return lint_flow_sources(sources, config), sources
