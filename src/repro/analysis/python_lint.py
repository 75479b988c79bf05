"""Engine 1: AST lint for numerical determinism over Python sources.

The rules are tuned to this codebase's reproducibility contract — the
checkpoint/resume layer assumes identical inputs produce bit-identical
arcs, and the future parallel characterisation workers assume no
shared mutable module state.  Four rule families (ids in
:mod:`repro.findings`):

RNG discipline
    ``RNG001`` — any ``np.random.<fn>()`` global-state call (seeding or
    sampling through the legacy singleton); ``RNG002`` — a seedless
    ``default_rng()`` outside the allowlisted files (conftest, fault
    injection); ``RNG003`` — a function named ``sample``/``sampler``
    without an ``rng`` parameter.

Determinism hazards
    ``DET001`` — iterating directly over a ``set``/``frozenset``
    expression (order feeds output); ``DET002`` — wall-clock or
    entropy calls (``time.time``, ``os.urandom``, ``uuid.uuid4``...)
    inside fingerprint/token/checksum functions.

Numerical safety
    ``NUM001`` — bare ``except:`` or an ``except`` whose handler is
    only ``pass``; ``NUM002`` — ``np.errstate(all="ignore")``;
    ``NUM003`` — in ``stats/`` files, division by a local value that
    is never compared against anything (no zero guard anywhere in the
    function, following one assignment hop).

Parallel readiness (``repro.runtime`` and the write path)
    ``PAR001`` — module-level mutable containers in ``repro/runtime``;
    ``PAR002`` — write-mode ``open()`` / ``Path.write_text`` outside
    the atomic :mod:`repro.runtime.export` / telemetry sink modules
    (calls through the :mod:`repro.runtime.fsfaults` seam are the
    sanctioned path and never match);
    ``PAR003`` — ``global`` rebinding inside ``repro/runtime``
    functions (the sites a worker protocol must revisit).

Everything is :mod:`ast`-based — no text matching beyond the
suppression comments — and zero-dependency, like the telemetry layer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.findings import REGISTRY, Finding
from repro.errors import ParameterError

__all__ = ["LintConfig", "lint_source", "lint_paths", "collect_python_files"]

#: ``np.random`` attributes that hit the legacy global state.  The
#: modern API (``default_rng``, ``Generator``, ``SeedSequence``...) is
#: exempt.
_GLOBAL_RNG_ATTRS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "lognormal",
        "exponential",
        "beta",
        "gamma",
        "binomial",
        "poisson",
        "get_state",
        "set_state",
    }
)

#: Wall-clock / entropy calls that must never feed a fingerprint.
_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: Function-name fragments marking deterministic-fingerprint scope.
_FINGERPRINT_MARKERS = ("fingerprint", "token", "checksum")


@dataclass(frozen=True)
class LintConfig:
    """Repo-tuned knobs for the Python engine.

    Attributes:
        rng_allowed_files: File-name fragments where a seedless
            ``default_rng()`` is legitimate (test fixtures, fault
            injection contexts that derive their own seeds).
        atomic_write_files: File-name fragments allowed to open files
            in write mode directly — the atomic helpers themselves.
        runtime_fragment: Path fragment identifying ``repro.runtime``
            sources for the PAR rules.
        stats_fragment: Path fragment identifying ``stats/`` sources
            for NUM003.
    """

    rng_allowed_files: tuple[str, ...] = ("conftest.py", "faults.py")
    atomic_write_files: tuple[str, ...] = (
        "runtime/export.py",
        "runtime/telemetry/sinks.py",
    )
    runtime_fragment: str = "repro/runtime"
    stats_fragment: str = "repro/stats"


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def _matches(path: str, fragments: tuple[str, ...] | str) -> bool:
    posix = _posix(path)
    if isinstance(fragments, str):
        fragments = (fragments,)
    return any(fragment in posix for fragment in fragments)


def _call_name(node: ast.Call) -> tuple[str, ...] | None:
    """Dotted name of a call target, e.g. ``("np", "random", "seed")``."""
    parts: list[str] = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
        return tuple(reversed(parts))
    return None


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        return name is not None and name[-1] in ("set", "frozenset")
    return False


_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "bytearray"}
)


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        return name is not None and name[-1] in _MUTABLE_CALLS
    return False


class _FileLinter(ast.NodeVisitor):
    """Single-file rule walker; collects raw findings (no waivers)."""

    def __init__(self, path: str, lines: list[str], config: LintConfig):
        self.path = path
        self.lines = lines
        self.config = config
        self.findings: list[Finding] = []
        self._function_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        self._in_runtime = _matches(path, config.runtime_fragment)
        self._in_stats = _matches(path, config.stats_fragment)

    # ------------------------------------------------------------------
    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        source = (
            self.lines[line - 1].strip()
            if 0 < line <= len(self.lines)
            else ""
        )
        self.findings.append(
            REGISTRY.finding(
                rule_id, self.path, line, message, source=source
            )
        )

    @property
    def _enclosing_function(self):
        return self._function_stack[-1] if self._function_stack else None

    def _in_fingerprint_scope(self) -> bool:
        return any(
            any(m in fn.name.lower() for m in _FINGERPRINT_MARKERS)
            for fn in self._function_stack
        )

    # ------------------------------------------------------------------
    # RNG + DET002 + NUM002 + PAR002: all call-shaped rules
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name is not None:
            self._check_rng(node, name)
            self._check_wallclock(node, name)
            self._check_errstate(node, name)
            self._check_write(node, name)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, name: tuple[str, ...]) -> None:
        if (
            len(name) >= 3
            and name[-3] in ("np", "numpy")
            and name[-2] == "random"
            and name[-1] in _GLOBAL_RNG_ATTRS
        ):
            self._emit(
                "RNG001",
                node,
                f"np.random.{name[-1]} mutates the process-global RNG; "
                "thread an np.random.Generator instead",
            )
        if name[-1] == "default_rng" and not node.args and not node.keywords:
            if not _matches(self.path, self.config.rng_allowed_files):
                self._emit(
                    "RNG002",
                    node,
                    "default_rng() without a seed draws OS entropy; "
                    "pass the run seed so re-runs are bit-identical",
                )

    def _check_wallclock(self, node: ast.Call, name: tuple[str, ...]) -> None:
        if len(name) < 2 or not self._in_fingerprint_scope():
            return
        if (name[-2], name[-1]) in _WALLCLOCK_CALLS:
            self._emit(
                "DET002",
                node,
                f"{name[-2]}.{name[-1]}() inside a fingerprint/token "
                "function makes the content address time-dependent",
            )

    def _check_errstate(self, node: ast.Call, name: tuple[str, ...]) -> None:
        if name[-1] != "errstate":
            return
        for keyword in node.keywords:
            if (
                keyword.arg == "all"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value == "ignore"
            ):
                self._emit(
                    "NUM002",
                    node,
                    'errstate(all="ignore") hides overflow/invalid '
                    "signals; silence only the class you expect",
                )

    _WRITE_MODES = ("w", "wb", "a", "ab", "w+", "a+", "wt", "at")

    def _check_write(self, node: ast.Call, name: tuple[str, ...]) -> None:
        if _matches(self.path, self.config.atomic_write_files):
            return
        bypass = False
        if name[-1] == "open" and len(name) == 1:
            mode: ast.expr | None = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            bypass = (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and mode.value in self._WRITE_MODES
            )
        elif name[-1] in ("write_text", "write_bytes") and len(name) > 1:
            # Calls routed through the retrying FS seam are the
            # sanctioned write path, not a Path method bypassing it.
            bypass = name[-2] != "fsfaults"
        elif name[-1] == "open" and len(name) > 1:
            # Path.open("w") method form.
            mode = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            bypass = (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and mode.value in self._WRITE_MODES
            )
        if bypass:
            self._emit(
                "PAR002",
                node,
                "direct write-mode file access; route through "
                "repro.runtime.export.write_text_file so a kill cannot "
                "leave a truncated artifact",
            )

    # ------------------------------------------------------------------
    # RNG003 + function scope tracking + NUM003
    # ------------------------------------------------------------------
    def _visit_function(self, node) -> None:
        if node.name in ("sample", "sampler") or node.name.endswith("_sampler"):
            arg_names = {
                arg.arg
                for arg in (
                    node.args.args
                    + node.args.kwonlyargs
                    + node.args.posonlyargs
                )
            }
            if "rng" not in arg_names:
                self._emit(
                    "RNG003",
                    node,
                    f"sampler {node.name}() takes no rng argument; "
                    "callers cannot thread a Generator through it",
                )
        self._function_stack.append(node)
        self.generic_visit(node)
        self._function_stack.pop()
        if self._in_stats and not self._function_stack:
            self._check_divisions(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # ------------------------------------------------------------------
    # DET001: set iteration
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expression(node.iter):
            self._emit(
                "DET001",
                node,
                "iterating a set yields hash order; sort it before it "
                "can feed ordered output",
            )
        self.generic_visit(node)

    def visit_comprehension_iter(self, node) -> None:
        for generator in node.generators:
            if _is_set_expression(generator.iter):
                self._emit(
                    "DET001",
                    node,
                    "comprehension iterates a set in hash order; "
                    "sort it before it can feed ordered output",
                )
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_iter
    visit_GeneratorExp = visit_comprehension_iter

    # ------------------------------------------------------------------
    # NUM001: bare / swallowing except
    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "NUM001",
                node,
                "bare except catches KeyboardInterrupt and hides "
                "numerical failures; name the exception family",
            )
        elif len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            names = []
            targets = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names.append(target.id)
                elif isinstance(target, ast.Attribute):
                    names.append(target.attr)
            if any(
                name in ("Exception", "BaseException") for name in names
            ):
                self._emit(
                    "NUM001",
                    node,
                    "except-and-pass on Exception swallows every "
                    "failure silently",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # PAR001 / PAR003: module state
    # ------------------------------------------------------------------
    def check_module_state(self, tree: ast.Module) -> None:
        if not self._in_runtime:
            return
        for statement in tree.body:
            value = None
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                value = statement.value
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                value = statement.value
                targets = [statement.target]
            # Dunder metadata (__all__ and friends) is written once at
            # import and read-only by convention — not worker state.
            if any(
                isinstance(target, ast.Name)
                and target.id.startswith("__")
                and target.id.endswith("__")
                for target in targets
            ):
                continue
            if value is not None and _is_mutable_container(value):
                self._emit(
                    "PAR001",
                    statement,
                    "module-level mutable container is shared state a "
                    "process pool would race on; use an immutable "
                    "mapping/tuple or move it into an object",
                )

    def visit_Global(self, node: ast.Global) -> None:
        if self._in_runtime:
            self._emit(
                "PAR003",
                node,
                f"rebinds module state ({', '.join(node.names)}); "
                "parallel workers each see their own copy — see "
                "DESIGN.md 'Parallel-readiness rules'",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # NUM003: unguarded division in stats/
    # ------------------------------------------------------------------
    def _check_divisions(self, function: ast.AST) -> None:
        """Flag divisions by locals that are never zero-guarded.

        A denominator is *guarded* when its name (or, one assignment
        hop back, any name on the right-hand side it was computed
        from) appears in a comparison, an ``assert``, a ``max``/
        ``clip``/``abs`` call, or is validated by raising anywhere in
        the function.  Parameters with defaults and loop variables are
        skipped — the rule targets computed scale factors (sigma,
        totals) that silently reach zero.
        """
        compared: set[str] = set()
        assigned_from: dict[str, set[str]] = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        compared.add(sub.id)
            elif isinstance(node, ast.Assert):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        compared.add(sub.id)
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name is not None and name[-1] in (
                    "max",
                    "maximum",
                    "clip",
                    "abs",
                    "validate_samples",
                ):
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Name):
                            compared.add(sub.id)
            elif isinstance(node, ast.Assign):
                rhs_names = {
                    sub.id
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Name)
                }
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned_from.setdefault(target.id, set()).update(
                            rhs_names
                        )

        def guarded(name: str, depth: int = 0) -> bool:
            if name in compared:
                return True
            if depth >= 2:
                return False
            return any(
                guarded(origin, depth + 1)
                for origin in assigned_from.get(name, ())
            )

        for node in ast.walk(function):
            if not (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod))
            ):
                continue
            denominator = node.right
            # Accept ``x`` and ``x ** k`` shapes; anything else (calls,
            # attributes, literals) is out of scope for a static check.
            if (
                isinstance(denominator, ast.BinOp)
                and isinstance(denominator.op, ast.Pow)
            ):
                denominator = denominator.left
            if not isinstance(denominator, ast.Name):
                continue
            if denominator.id not in assigned_from:
                continue  # parameters / loop vars: caller's contract
            if not guarded(denominator.id):
                self._emit(
                    "NUM003",
                    node,
                    f"division by {denominator.id!r} which is never "
                    "compared against zero in this function",
                )


def lint_source(
    path: str, text: str, config: LintConfig | None = None
) -> list[Finding]:
    """Lint one Python source string; returns raw findings.

    Raises:
        ParameterError: When the source does not parse — the linter
            cannot vouch for a file it cannot read.
    """
    config = config or LintConfig()
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as error:
        raise ParameterError(
            f"{path}: cannot lint unparseable source: {error}"
        ) from error
    linter = _FileLinter(path, text.splitlines(), config)
    linter.visit(tree)
    linter.check_module_state(tree)
    return sorted(linter.findings, key=Finding.sort_key)


def collect_python_files(paths: list[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises:
        ParameterError: When a path is missing, or no Python source is
            found at all (an empty input is a configuration error, not
            a clean run).
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise ParameterError(f"no such file or directory: {raw}")
    files = sorted({file.as_posix(): file for file in files}.values())
    if not files:
        raise ParameterError(
            f"no Python sources found under: {', '.join(paths)}"
        )
    return files


def lint_paths(
    paths: list[str], config: LintConfig | None = None
) -> tuple[list[Finding], dict[str, str]]:
    """Lint files/directories; returns (findings, sources-by-path).

    The source map feeds
    :func:`repro.analysis.suppressions.apply_suppressions`.
    """
    config = config or LintConfig()
    findings: list[Finding] = []
    sources: dict[str, str] = {}
    for file in collect_python_files(paths):
        try:
            text = file.read_text()
        except OSError as error:
            raise ParameterError(
                f"cannot read {file}: {error}"
            ) from error
        sources[file.as_posix()] = text
        findings.extend(lint_source(file.as_posix(), text, config))
    return findings, sources
