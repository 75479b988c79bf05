"""Taint lattice and per-function transfer summaries for the flow pass.

The abstract domain is a set of *labels* per value.  Concrete labels
``("src", kind, origin)`` mark where a tainted value was born:

- ``entropy``   — OS entropy (seedless ``default_rng()``/
  ``SeedSequence()``, ``os.urandom``, ``uuid.uuid4`` ...);
- ``wallclock`` — wall-clock reads (``time.time``, ``datetime.now``...);
- ``env``       — ``os.environ`` / ``os.getenv`` values;
- ``poolpath``  — a path derived from the pool-protocol files
  (checkpoint entries, claims, journal, status/meta), recognised by
  the protocol's literal name markers (``".ckpt"``, ``".claim"``,
  ``"pool-journal"``...) anywhere in the path expression;
- ``claimpath`` — the ``.claim`` subset of ``poolpath`` (stricter
  rules apply: claim bodies must be born ``O_CREAT|O_EXCL``);
- ``tmppath``   — a staging path (``tempfile.mkstemp`` results,
  ``".tmp"``-suffixed names): writing one in place is the *first
  half* of the sanctioned temp-file+rename idiom, so it cancels the
  in-place-write rule.

Symbolic labels ``("param", name)`` stand for "whatever the caller
passes for parameter *name*"; they are what makes the analysis
interprocedural.  Each function gets a :class:`Summary`:

- ``returns``      — labels its return value may carry;
- ``param_sinks``  — sinks inside it (or transitively below it) that
  a parameter's taint would reach, with the residual concrete labels
  (``extra``) already present at the sink and the call chain
  (``via``) for diagnostics.

:class:`FunctionAnalyzer` computes one function's summary by a
flow-insensitive abstract interpretation of its AST (iterated a few
passes so loop-carried taint stabilises), consuming callee summaries.
The engine (:mod:`repro.analysis.flow.engine`) drives the whole-tree
fixpoint and the final reporting pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.findings import REGISTRY, Finding
from repro.analysis.flow.symbols import (
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
)

__all__ = [
    "EMPTY",
    "FlowConfig",
    "FunctionAnalyzer",
    "ParamSink",
    "Summary",
    "concrete_kinds",
]

#: The empty label set, shared.
EMPTY: frozenset = frozenset()

#: Label-kind groups driving rule decisions.
_NONDET_KINDS = frozenset({"entropy", "wallclock", "env"})
_KEY_WALL_KINDS = frozenset({"wallclock", "entropy"})
_POOL_KINDS = frozenset({"poolpath", "claimpath"})

#: Seam ops whose payload write creates/truncates the file body (the
#: ops where a claim path demands O_EXCL instead).
_BODY_WRITE_OPS = frozenset(
    {"open", "os.open", "write_text", "write_bytes", "fsfaults.write_bytes"}
)


@dataclass(frozen=True)
class FlowConfig:
    """Repo-tuned knobs of the interprocedural pass.

    Attributes:
        sampling_sinks: Terminal callee names that consume an RNG for
            Monte-Carlo/fit work (the FLOW001 sinks).
        sampling_params: Parameter/keyword names that carry the RNG or
            seed into a sampling sink.
        key_markers: Substrings of a callee name marking deterministic
            key/fingerprint construction (FLOW002/FLOW003 sinks).
        key_names: Exact callee names that are key/shard sinks.
        key_suffixes: Callee-name suffixes marking the seed-derivation
            helpers (``*_seed``) — deterministic by contract, so
            nondeterministic inputs to them are findings.
        pool_markers: Literal substrings identifying pool-protocol
            file names in path expressions.
        claim_markers: The subset marking claim files.
        tmp_markers: Substrings marking staging/temp names.
        seam_files: Path fragments of the modules that *implement* the
            FS seam and atomic writers — their internal raw syscalls
            are the sanctioned bottom layer, never findings.
        max_rounds: Whole-program fixpoint round cap.
        local_passes: Per-function statement passes per round.
    """

    sampling_sinks: frozenset = frozenset(
        {
            "latin_hypercube",
            "lhs_normal",
            "lhs_transform",
            "fit_mixture_em",
            "fit_mixture_em_batch",
            "fit_mixture_em_multistart",
            "kmeans_1d_batch",
            "sample",
            "sample_path_delays",
        }
    )
    sampling_params: tuple[str, ...] = (
        "rng",
        "seed",
        "seed_sequence",
        "random_state",
    )
    key_markers: tuple[str, ...] = (
        "fingerprint",
        "token",
        "checksum",
        "content_key",
    )
    key_names: frozenset = frozenset({"key_of", "shard_of", "shards"})
    key_suffixes: tuple[str, ...] = ("_seed",)
    pool_markers: tuple[str, ...] = (
        ".claim",
        ".ckpt",
        ".corrupt",
        "pool-journal",
        "pool-meta",
        "pool-status",
    )
    claim_markers: tuple[str, ...] = (".claim",)
    tmp_markers: tuple[str, ...] = (".tmp", ".staging", ".partial")
    seam_files: tuple[str, ...] = (
        "repro/runtime/fsfaults.py",
        "repro/runtime/export.py",
    )
    max_rounds: int = 12
    local_passes: int = 3


#: ``(param_name, channel, op, via, extra)`` — a sink reachable from a
#: parameter.  ``channel`` is ``"sampling"``, ``"key"``, ``"raw"`` or
#: ``"seam"``; ``op`` the concrete operation; ``via`` the (capped)
#: callee chain; ``extra`` the concrete labels already at the sink.
ParamSink = tuple


@dataclass(frozen=True)
class Summary:
    """One function's interprocedural transfer summary."""

    returns: frozenset = EMPTY
    param_sinks: frozenset = EMPTY


def concrete_kinds(labels: frozenset) -> set[str]:
    """The concrete taint kinds present in a label set."""
    return {label[1] for label in labels if label[0] == "src"}


def _origins(labels: frozenset, kinds: set[str]) -> list[str]:
    """Source descriptions for the labels of the given kinds, sorted."""
    return sorted(
        {
            f"{label[1]} from {label[2]}"
            for label in labels
            if label[0] == "src" and label[1] in kinds
        }
    )


def _param_labels(labels: frozenset) -> set[str]:
    return {label[1] for label in labels if label[0] == "param"}


#: Wall-clock calls, matched on the last two dotted components.
_WALLCLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
    }
)

#: Entropy calls, matched on the last two dotted components.
_ENTROPY_CALLS = frozenset(
    {
        ("os", "urandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
        ("secrets", "token_bytes"),
        ("secrets", "token_hex"),
        ("secrets", "token_urlsafe"),
        ("secrets", "randbits"),
    }
)

#: RNG/seed constructors whose result carries its seed's taint — and
#: is entropy-tainted when called with no seed at all.
_RNG_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "Generator",
        "RandomState",
        "PCG64",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Temp-name factories whose results are staging paths.
_TMP_FACTORIES = frozenset(
    {"mkstemp", "mkdtemp", "mktemp", "NamedTemporaryFile", "TemporaryDirectory"}
)

#: Seam entry points that are the *sanctioned* mutation idioms: their
#: own destination handling is what the POOL rules mandate.
_SEAM_SAFE = frozenset(
    {"append_line", "create_exclusive", "replace", "touch", "write_text_file"}
)

_WRITE_MODES = ("w", "wb", "a", "ab", "w+", "a+", "wt", "at", "r+", "rb+")


def _call_name(node: ast.Call) -> tuple[str, ...] | None:
    """Dotted name of a call target, e.g. ``("os", "replace")``."""
    parts: list[str] = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
        return tuple(reversed(parts))
    return None


def _matches_any(text: str, markers: tuple[str, ...]) -> bool:
    return any(marker in text for marker in markers)


class FunctionAnalyzer:
    """Abstract interpretation of one function (or module) body.

    One instance is built per (function, round); :meth:`run` returns
    the function's :class:`Summary`.  With ``report`` set, sink hits
    whose trigger labels are concrete are emitted as findings — the
    engine only passes ``report`` on the final post-fixpoint pass.
    """

    def __init__(
        self,
        config: FlowConfig,
        table: SymbolTable,
        module: ModuleInfo,
        info: FunctionInfo | None,
        summaries: dict[str, Summary],
        class_attrs: dict[tuple[str, str], frozenset],
        module_envs: dict[str, dict[str, frozenset]],
        lines: list[str],
        report: list[Finding] | None = None,
    ) -> None:
        self.config = config
        self.table = table
        self.module = module
        self.info = info
        self.summaries = summaries
        self.class_attrs = class_attrs
        self.module_envs = module_envs
        self.lines = lines
        self.report = report
        self.env: dict[str, frozenset] = {}
        self.returns: frozenset = EMPTY
        self.param_sinks: set = set()
        self._is_seam = _matches_any(
            module.file.replace("\\", "/"), config.seam_files
        )
        self._reported: set = set()

    # ------------------------------------------------------------------
    def run(self) -> Summary:
        if self.info is not None:
            for name in self.info.params + self.info.kwonly:
                self.env[name] = frozenset({("param", name)})
            body = self.info.node.body
        else:
            body = [
                stmt
                for stmt in self.module.tree.body
                if not isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
            ]
        for _ in range(self.config.local_passes):
            before = dict(self.env)
            for stmt in body:
                self._exec(stmt)
            if self.env == before:
                break
        if self.info is None:
            self.module_envs[self.module.name] = dict(self.env)
        return Summary(
            returns=self.returns,
            param_sinks=frozenset(self.param_sinks),
        )

    # ------------------------------------------------------------------
    # Statements (flow-insensitive: every branch contributes)
    # ------------------------------------------------------------------
    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            labels = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, labels)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            labels = self._eval(stmt.value) | self._eval(stmt.target)
            self._bind(stmt.target, labels)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self._eval(stmt.value)
        elif isinstance(stmt, (ast.Expr, ast.Assert)):
            value = stmt.value if isinstance(stmt, ast.Expr) else stmt.test
            self._eval(value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter))
            for sub in stmt.body + stmt.orelse:
                self._exec(sub)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._eval(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._exec(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, labels)
            for sub in stmt.body:
                self._exec(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self._exec(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._exec(sub)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function (closure): its body reads the enclosing
            # frame, so analyze it inline against the current
            # environment — the `def attempt(): ...` idiom the seam
            # callers use.  Its own parameters are unknown (empty).
            for sub in stmt.body:
                self._exec(sub)
        elif isinstance(stmt, ast.ClassDef):
            pass
        elif isinstance(stmt, (ast.Raise, ast.Delete, ast.Global,
                               ast.Nonlocal, ast.Pass, ast.Break,
                               ast.Continue, ast.Import, ast.ImportFrom)):
            pass
        else:  # pragma: no cover — future statement kinds
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._exec(sub)
                elif isinstance(sub, ast.expr):
                    self._eval(sub)

    def _bind(self, target: ast.expr, labels: frozenset) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id, EMPTY) | labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, labels)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels)
        elif isinstance(target, ast.Attribute):
            # self.attr stores: keep only concrete labels — symbolic
            # parameter taint is per-call-site and would leak across
            # unrelated instances through the shared class map.
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.info is not None
                and self.info.cls is not None
            ):
                key = (self.info.cls, target.attr)
                concrete = frozenset(
                    label for label in labels if label[0] == "src"
                )
                self.class_attrs[key] = (
                    self.class_attrs.get(key, EMPTY) | concrete
                )
        elif isinstance(target, ast.Subscript):
            # Container element store: the container accumulates.
            if isinstance(target.value, ast.Name):
                name = target.value.id
                self.env[name] = self.env.get(name, EMPTY) | labels

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _eval(self, node: ast.expr) -> frozenset:
        if isinstance(node, ast.Constant):
            return self._constant_labels(node)
        if isinstance(node, ast.Name):
            return self._name_labels(node.id)
        if isinstance(node, ast.Attribute):
            return self._attribute_labels(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.JoinedStr):
            labels = EMPTY
            for part in node.values:
                labels |= self._eval(part)
            return labels
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            return self._eval(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            labels = EMPTY
            for elt in node.elts:
                labels |= self._eval(elt)
            return labels
        if isinstance(node, ast.Dict):
            labels = EMPTY
            for value in node.values:
                if value is not None:
                    labels |= self._eval(value)
            return labels
        if isinstance(node, ast.IfExp):
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.BoolOp):
            labels = EMPTY
            for value in node.values:
                labels |= self._eval(value)
            return labels
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, (ast.Compare, ast.Lambda)):
            return EMPTY
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            labels = self._comp_bind(node.generators)
            return labels | self._eval(node.elt)
        if isinstance(node, ast.DictComp):
            labels = self._comp_bind(node.generators)
            return labels | self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            labels = self._eval(node.value)
            self._bind(node.target, labels)
            return labels
        labels = EMPTY  # pragma: no cover — future expression kinds
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.expr):
                labels |= self._eval(sub)
        return labels

    def _comp_bind(self, generators: list[ast.comprehension]) -> frozenset:
        labels = EMPTY
        for gen in generators:
            iter_labels = self._eval(gen.iter)
            self._bind(gen.target, iter_labels)
            labels |= iter_labels
        return labels

    def _src(self, kind: str, node: ast.AST) -> frozenset:
        origin = f"{self.module.file}:{getattr(node, 'lineno', 0)}"
        return frozenset({("src", kind, origin)})

    def _constant_labels(self, node: ast.Constant) -> frozenset:
        if not isinstance(node.value, str):
            return EMPTY
        labels = EMPTY
        if _matches_any(node.value, self.config.claim_markers):
            labels |= self._src("claimpath", node)
        if _matches_any(node.value, self.config.pool_markers):
            labels |= self._src("poolpath", node)
        if _matches_any(node.value, self.config.tmp_markers):
            labels |= self._src("tmppath", node)
        return labels

    def _name_labels(self, name: str) -> frozenset:
        labels = self.env.get(name, EMPTY)
        module_env = self.module_envs.get(self.module.name)
        if module_env is not None and name in module_env:
            labels |= module_env[name]
        target = self.module.imports.get(name)
        if target == "os.environ":
            labels |= frozenset(
                {("src", "env", f"{self.module.file}:os.environ")}
            )
        elif target and "." in target:
            # `from .journal import JOURNAL_FILENAME` — read the
            # constant's taint out of the defining module's namespace.
            mod_name, _, attr = target.rpartition(".")
            imported_env = self.module_envs.get(mod_name)
            if imported_env is not None and attr in imported_env:
                labels |= imported_env[attr]
        return labels

    def _attribute_labels(self, node: ast.Attribute) -> frozenset:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr == "environ"
        ):
            return self._src("env", node)
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.info is not None
            and self.info.cls is not None
        ):
            key = (self.info.cls, node.attr)
            return self.class_attrs.get(key, EMPTY) | self._eval(node.value)
        return self._eval(node.value)

    # ------------------------------------------------------------------
    # Calls: sources, summaries, sinks
    # ------------------------------------------------------------------
    def _call(self, node: ast.Call) -> frozenset:
        dotted = _call_name(node)
        arg_labels = [self._eval(arg) for arg in node.args]
        kw_labels = {
            kw.arg: self._eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        star_kwargs = EMPTY
        for kw in node.keywords:
            if kw.arg is None:
                star_kwargs |= self._eval(kw.value)
        all_args = EMPTY
        for labels in arg_labels:
            all_args |= labels
        for labels in kw_labels.values():
            all_args |= labels
        all_args |= star_kwargs

        if dotted is None:
            # Chained attribute call on a computed receiver, e.g.
            # `entry_path(d, k).write_bytes(data)`: no resolvable
            # name, but the terminal attribute still hits sinks.
            if isinstance(node.func, ast.Attribute):
                self._check_sinks(
                    node,
                    ("<expr>", node.func.attr),
                    [],
                    arg_labels,
                    kw_labels,
                )
            return self._eval(node.func) | all_args

        source = self._source_labels(node, dotted, all_args)
        if source is not None:
            return source

        result = EMPTY
        candidates = self.table.resolve(
            self.module,
            self.info.cls if self.info is not None else None,
            dotted,
        )
        resolved_exactly = bool(candidates) and len(candidates) == 1 and (
            dotted[0] == "self"
            or dotted[0] in self.module.imports
            or len(dotted) == 1
            or dotted[0] in self.module.classes
        )
        for info, offset in candidates:
            summary = self.summaries.get(info.qualname)
            if summary is None:
                continue
            argmap = self._bind_args(
                info, offset, arg_labels, kw_labels, node
            )
            result |= self._substitute(summary.returns, argmap)
            self._lift_param_sinks(node, info, summary, argmap)
        if not candidates or not resolved_exactly:
            # Unknown or ambiguous receiver: propagate the receiver's
            # and the arguments' taint through the result (str(),
            # Path(), path.with_name(), "".join(), ...).
            if isinstance(node.func, ast.Attribute):
                result |= self._eval(node.func.value)
            result |= all_args

        self._check_sinks(node, dotted, candidates, arg_labels, kw_labels)
        return result

    def _source_labels(
        self,
        node: ast.Call,
        dotted: tuple[str, ...],
        all_args: frozenset,
    ) -> frozenset | None:
        """Labels when this call is itself a taint source, else None."""
        terminal = dotted[-1]
        last2 = (dotted[-2], dotted[-1]) if len(dotted) >= 2 else None
        if terminal in _RNG_CONSTRUCTORS:
            if not node.args and not node.keywords:
                return self._src("entropy", node)
            return all_args
        if last2 in _WALLCLOCK_CALLS:
            return self._src("wallclock", node)
        if last2 in _ENTROPY_CALLS:
            return self._src("entropy", node)
        if last2 == ("os", "getenv") or (
            len(dotted) == 1
            and terminal == "getenv"
            and self.module.imports.get("getenv") == "os.getenv"
        ):
            return self._src("env", node)
        if terminal in _TMP_FACTORIES:
            return self._src("tmppath", node) | all_args
        return None

    def _bind_args(
        self,
        info: FunctionInfo,
        offset: int,
        arg_labels: list[frozenset],
        kw_labels: dict[str, frozenset],
        node: ast.Call,
    ) -> dict[str, frozenset]:
        """Map callee parameter names to the labels passed for them."""
        argmap: dict[str, frozenset] = {}
        params = info.params
        skip = 1 if (info.is_method and offset == 1) else 0
        if (
            info.is_method
            and offset == 1
            and isinstance(node.func, ast.Attribute)
            and params
        ):
            # Instance call: the receiver expression binds `self`.
            argmap[params[0]] = self._eval(node.func.value)
        for index, labels in enumerate(arg_labels):
            target = index + skip
            if target < len(params):
                argmap[params[target]] = (
                    argmap.get(params[target], EMPTY) | labels
                )
        for name, labels in kw_labels.items():
            if name in params or name in info.kwonly:
                argmap[name] = argmap.get(name, EMPTY) | labels
        return argmap

    @staticmethod
    def _substitute(
        labels: frozenset, argmap: dict[str, frozenset]
    ) -> frozenset:
        result = EMPTY
        for label in labels:
            if label[0] == "param":
                result |= argmap.get(label[1], EMPTY)
            else:
                result |= frozenset({label})
        return result

    # ------------------------------------------------------------------
    # Sink machinery
    # ------------------------------------------------------------------
    def _emit(
        self, node: ast.AST, rule_id: str, message: str
    ) -> None:
        if self.report is None:
            return
        line = getattr(node, "lineno", 0)
        key = (self.module.file, line, rule_id, message)
        if key in self._reported:
            return
        self._reported.add(key)
        source = (
            self.lines[line - 1].strip()
            if 0 < line <= len(self.lines)
            else ""
        )
        self.report.append(
            REGISTRY.finding(
                rule_id, self.module.file, line, message, source=source
            )
        )

    def _sink_hit(
        self,
        node: ast.AST,
        channel: str,
        op: str,
        labels: frozenset,
        via: tuple[str, ...] = (),
    ) -> None:
        """Judge one value reaching one sink; report or lift."""
        kinds = concrete_kinds(labels)
        rule, detail_kinds = _decide(channel, op, kinds)
        if rule is not None:
            origins = _origins(labels, detail_kinds)
            chain = f" via {' -> '.join(via)}" if via else ""
            self._emit(
                node, rule, _MESSAGES[rule].format(
                    op=op, origins="; ".join(origins[:2]), chain=chain
                )
            )
            return
        extra = frozenset(label for label in labels if label[0] == "src")
        for name in _param_labels(labels):
            if (
                self.info is not None
                and len(via) < 4
            ):
                self.param_sinks.add((name, channel, op, via, extra))

    def _lift_param_sinks(
        self,
        node: ast.Call,
        info: FunctionInfo,
        summary: Summary,
        argmap: dict[str, frozenset],
    ) -> None:
        for name, channel, op, via, extra in summary.param_sinks:
            passed = argmap.get(name, EMPTY)
            if not passed:
                continue
            chain = (info.display,) + tuple(via)
            self._sink_hit(node, channel, op, passed | extra, chain[:4])

    def _check_sinks(
        self,
        node: ast.Call,
        dotted: tuple[str, ...],
        candidates: list[tuple[FunctionInfo, int]],
        arg_labels: list[frozenset],
        kw_labels: dict[str, frozenset],
    ) -> None:
        if self._is_seam:
            return
        terminal = dotted[-1]
        cfg = self.config

        # --- FLOW001: sampling sinks -------------------------------
        is_sampling = terminal in cfg.sampling_sinks or any(
            info.module.startswith(("repro.stats", "repro.ssta"))
            and info.name in cfg.sampling_sinks
            for info, _ in candidates
        )
        if is_sampling:
            for name, labels in kw_labels.items():
                if name in cfg.sampling_params:
                    self._sink_hit(node, "sampling", terminal, labels)
            bound_names: dict[int, str] = {}
            for info, offset in candidates:
                skip = 1 if (info.is_method and offset == 1) else 0
                for index in range(len(arg_labels)):
                    target = index + skip
                    if target < len(info.params):
                        bound_names[index] = info.params[target]
            for index, labels in enumerate(arg_labels):
                name = bound_names.get(index)
                if name in cfg.sampling_params:
                    self._sink_hit(node, "sampling", terminal, labels)
                elif name is None and "entropy" in concrete_kinds(labels):
                    # Unresolved positional: only the unambiguous case
                    # (an OS-entropy RNG object) is flagged.
                    self._sink_hit(node, "sampling", terminal, labels)

        # --- FLOW002/003: content-key sinks ------------------------
        is_key = (
            _matches_any(terminal, cfg.key_markers)
            or terminal in cfg.key_names
            or any(terminal.endswith(sfx) for sfx in cfg.key_suffixes)
        )
        if is_key:
            for labels in arg_labels:
                self._sink_hit(node, "key", terminal, labels)
            for labels in kw_labels.values():
                self._sink_hit(node, "key", terminal, labels)

        # --- POOL: filesystem mutation sinks -----------------------
        self._check_mutations(node, dotted, arg_labels, kw_labels)

    def _check_mutations(
        self,
        node: ast.Call,
        dotted: tuple[str, ...],
        arg_labels: list[frozenset],
        kw_labels: dict[str, frozenset],
    ) -> None:
        terminal = dotted[-1]
        last2 = (dotted[-2], dotted[-1]) if len(dotted) >= 2 else None

        def arg(index: int) -> frozenset:
            return arg_labels[index] if index < len(arg_labels) else EMPTY

        # Seam calls: the sanctioned idioms pass untouched; the
        # in-place overwrite entry point is still checked for claim
        # bodies and final protocol payloads.
        if last2 is not None and dotted[-2] == "fsfaults":
            if terminal == "write_bytes":
                dst = arg(0) | kw_labels.get("path", EMPTY)
                self._sink_hit(
                    node, "seam", "fsfaults.write_bytes", dst
                )
            return
        if len(dotted) == 1 and terminal in _SEAM_SAFE:
            # Bare-name seam calls (`from ...export import
            # write_text_file`).  Qualified names fall through so
            # `os.replace` is still judged below.
            return

        if terminal == "open" and len(dotted) == 1:
            if self._write_mode(node, mode_index=1):
                self._sink_hit(node, "raw", "open", arg(0))
            return
        if terminal == "open" and len(dotted) >= 2 and last2 != ("os", "open"):
            if self._write_mode(node, mode_index=0):
                base = self._eval(node.func.value)  # type: ignore[union-attr]
                self._sink_hit(node, "raw", "open", base)
            return
        if terminal in ("write_text", "write_bytes") and len(dotted) >= 2:
            base = self._eval(node.func.value)  # type: ignore[union-attr]
            self._sink_hit(node, "raw", terminal, base)
            return
        if last2 in (("os", "replace"), ("os", "rename")):
            dst = arg(1) | kw_labels.get("dst", EMPTY)
            self._sink_hit(node, "raw", "os.replace", dst)
            return
        if last2 == ("shutil", "move"):
            dst = arg(1) | kw_labels.get("dst", EMPTY)
            self._sink_hit(node, "raw", "os.replace", dst)
            return
        if last2 == ("os", "truncate"):
            self._sink_hit(node, "raw", "os.truncate", arg(0))
            return
        if last2 == ("os", "utime"):
            self._sink_hit(node, "raw", "os.utime", arg(0))
            return
        if last2 == ("os", "open"):
            flags = {
                sub.attr
                for index in range(1, len(node.args))
                for sub in ast.walk(node.args[index])
                if isinstance(sub, ast.Attribute)
            }
            for kw in node.keywords:
                if kw.arg == "flags":
                    flags |= {
                        sub.attr
                        for sub in ast.walk(kw.value)
                        if isinstance(sub, ast.Attribute)
                    }
            if "O_EXCL" in flags:
                return  # the claim-safe exclusive create
            if flags & {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}:
                self._sink_hit(node, "raw", "os.open", arg(0))

    @staticmethod
    def _write_mode(node: ast.Call, mode_index: int) -> bool:
        mode: ast.expr | None = None
        if len(node.args) > mode_index:
            mode = node.args[mode_index]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and mode.value in _WRITE_MODES
        )


def _decide(
    channel: str, op: str, kinds: set[str]
) -> tuple[str | None, set[str]]:
    """Map (sink channel, operation, concrete kinds) to a rule id."""
    if channel == "sampling":
        hit = kinds & _NONDET_KINDS
        if hit:
            return "FLOW001", hit
        return None, set()
    if channel == "key":
        wall = kinds & _KEY_WALL_KINDS
        if wall:
            return "FLOW002", wall
        if "env" in kinds:
            return "FLOW003", {"env"}
        return None, set()
    if channel == "raw":
        if "claimpath" in kinds and op in _BODY_WRITE_OPS:
            return "POOL002", {"claimpath"}
        if kinds & _POOL_KINDS:
            return "POOL001", kinds & _POOL_KINDS
        return None, set()
    if channel == "seam":
        if "claimpath" in kinds:
            return "POOL002", {"claimpath"}
        if "poolpath" in kinds and "tmppath" not in kinds:
            return "POOL003", {"poolpath"}
        return None, set()
    return None, set()


_MESSAGES = {
    "FLOW001": (
        "nondeterministically seeded RNG ({origins}) reaches sampling "
        "call {op}(){chain}; derive the seed from the run seed instead"
    ),
    "FLOW002": (
        "time-dependent value ({origins}) flows into deterministic "
        "key/seed derivation {op}(){chain}; content addresses must be "
        "pure functions of the request"
    ),
    "FLOW003": (
        "os.environ value ({origins}) flows into deterministic "
        "key/shard derivation {op}(){chain}; environment must not "
        "steer content addressing"
    ),
    "POOL001": (
        "{op} mutates a pool-protocol path ({origins}){chain} without "
        "the repro.runtime.fsfaults retry seam; transient shared-mount "
        "errors will surface as protocol corruption"
    ),
    "POOL002": (
        "claim body written via {op} ({origins}){chain}; claims must "
        "be born with fsfaults.create_exclusive (O_CREAT|O_EXCL) or "
        "two owners can both win the item"
    ),
    "POOL003": (
        "{op} truncates a pool payload in place ({origins}){chain}; "
        "stage to a temp name and fsfaults.replace so a kill cannot "
        "leave a torn entry"
    ),
}
