"""The Liberty / LVF2 contract checker (paper §3.3, Eq. 10).

Characterisation flows emit libraries consumed by third-party STA
tools; a library that parses but carries inconsistent statistical data
fails silently at signoff.  This engine walks the raw parsed
:class:`~repro.liberty.ast.Group` tree and turns every violation of
the LVF / LVF2 contract into a finding with a stable rule id and
source line.  Working on the AST rather than on a bound
:class:`~repro.liberty.library.Library` matters: the typed binder
*raises* on the worst violations (``ocv_weight2`` outside [0, 1],
shape-mismatched extension LUTs), while this engine accepts any
syntactically valid ``.lib`` text and reports them, so a library is
*rejected with a diagnosis* before it reaches SSTA.  ``repro lint-lib``
runs it on files and :func:`validate_library` on a bound library's
:meth:`~repro.liberty.library.Library.to_group`; both give the same
verdict.

Checks (ids in :mod:`repro.findings`):

- ``LIB001`` λ (= ``ocv_weight2``) within [0, 1];
- ``LIB002`` λ = 0 ⇒ the component-1 LUTs equal the plain-LVF moment
  LUTs — the paper's backward-compatibility claim (Eq. 10);
- ``LIB003`` index axes strictly increasing, non-negative;
- ``LIB004`` value-grid shape agreement across the nominal LUT and
  all seven LVF2 extension LUTs of an arc quantity;
- ``LIB005`` mixture moment sanity: every σ LUT positive, |skewness|
  below the skew-normal feasibility bound;
- ``LIB006`` template references resolve and axis lengths agree;
- ``LIB007`` nonzero λ comes with the full second-component LUT set;
- ``LIB008`` LUT groups carry parseable, rectangular value grids;
- ``LIB009`` library-level unit / delay-model attributes present;
- ``LIB010`` (info) extension LUTs present but λ ≡ 0 — plain LVF
  would do (Eq. 10 read in reverse);
- ``LIB011`` nominal delay/transition entries positive;
- ``LIB012`` every timing group names a ``related_pin`` of its cell;
- ``LIB013`` (warning) the library has cells, each cell an output
  pin, each timing group a nominal LUT;
- ``LIB014`` (warning) a timing group with nominal LUTs carries LVF
  variation data (``ocv_std_dev``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import LibertyError, ParameterError
from repro.findings import REGISTRY, Finding
from repro.liberty.ast import Group
from repro.liberty.library import Library, _match_stat_table
from repro.liberty.lvf2_attrs import LVF2_PREFIXES
from repro.liberty.lvf_attrs import BASE_QUANTITIES, LVF_PREFIXES
from repro.liberty.parser import parse_liberty
from repro.liberty.tables import parse_number_list
from repro.runtime import telemetry
from repro.stats.skew_normal import MAX_SKEWNESS

__all__ = [
    "collect_lib_files",
    "lint_library_paths",
    "lint_library_text",
    "validate_library",
]

#: Relative tolerance for the λ=0 ⇒ plain-LVF equality check (LIB002).
_COLLAPSE_RTOL = 1e-9

#: Library-level attributes a signoff-grade library should carry.
_EXPECTED_LIBRARY_ATTRS = ("time_unit", "voltage_unit", "delay_model")

#: σ-valued and skew-valued LUT prefixes for LIB005.
_SIGMA_PREFIXES = ("ocv_std_dev", "ocv_std_dev1", "ocv_std_dev2")
_SKEW_PREFIXES = ("ocv_skewness", "ocv_skewness1", "ocv_skewness2")


@dataclass
class _Lut:
    """One leniently parsed LUT group.

    ``rows`` keeps the raw row lengths so ragged grids are reportable;
    ``shape`` is None when the grid could not be read at all.
    """

    group: Group
    index_1: tuple[float, ...]
    index_2: tuple[float, ...]
    rows: list[tuple[float, ...]]
    shape: tuple[int, ...] | None
    template: str

    @property
    def line(self) -> int:
        return self.group.line

    def flat(self) -> list[float]:
        return [value for row in self.rows for value in row]


class _LibraryLinter:
    """Walks one library AST, collecting findings."""

    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []
        #: Template name -> its (index_1, index_2) breakpoints.
        self.templates: dict[
            str, tuple[tuple[float, ...], tuple[float, ...]]
        ] = {}

    def _emit(
        self, rule_id: str, line: int, location: str, message: str,
        *, source: str = "",
    ) -> None:
        self.findings.append(
            REGISTRY.finding(
                rule_id,
                self.path,
                line,
                f"{location}: {message}" if location else message,
                source=source or location,
            )
        )

    # ------------------------------------------------------------------
    def lint(self, library: Group) -> list[Finding]:
        if library.name != "library":
            self._emit(
                "LIB008",
                library.line,
                library.label,
                f"top-level group is {library.name!r}, not 'library'",
            )
            return self.findings
        self._check_library_attrs(library)
        for template in library.groups():
            if template.name in (
                "lu_table_template",
                "ocv_table_template",
            ):
                self._register_template(template)
        cells = list(library.groups("cell"))
        if not cells:
            self._emit(
                "LIB013", library.line, library.label,
                "library has no cells",
            )
        for cell in cells:
            pins = list(cell.groups("pin"))
            if not any(pin.get("direction") == "output" for pin in pins):
                self._emit(
                    "LIB013", cell.line, cell.label,
                    "cell has no output pin",
                )
            pin_names = {pin.label for pin in pins}
            for pin in pins:
                for index, timing in enumerate(pin.groups("timing")):
                    location = (
                        f"{cell.label}.{pin.label}"
                        f".timing[{index}]"
                    )
                    self._check_related_pin(timing, pin_names, location)
                    self._lint_timing(timing, location)
        return sorted(self.findings, key=Finding.sort_key)

    # ------------------------------------------------------------------
    def _check_library_attrs(self, library: Group) -> None:
        for attr in _EXPECTED_LIBRARY_ATTRS:
            if library.get(attr) is None:
                self._emit(
                    "LIB009",
                    library.line,
                    library.label,
                    f"library attribute {attr!r} is missing; downstream "
                    "STA tools will guess units",
                )
        delay_model = library.get("delay_model")
        if delay_model is not None and delay_model != "table_lookup":
            self._emit(
                "LIB009",
                library.line,
                library.label,
                f"delay_model {delay_model!r} is not 'table_lookup'; "
                "LVF LUT semantics assume table lookup",
            )

    def _register_template(self, group: Group) -> None:
        name = group.label
        axes: list[tuple[float, ...]] = []
        for axis in ("index_1", "index_2"):
            raw = group.get_complex(axis)
            try:
                axes.append(parse_number_list(raw[0]) if raw else ())
            except LibertyError as error:
                self._emit(
                    "LIB008", group.line, name, f"{axis}: {error}"
                )
                axes.append(())
        if not axes[0]:
            self._emit(
                "LIB006",
                group.line,
                name,
                "template has no index_1 axis",
            )
        self.templates[name] = (axes[0], axes[1])

    # ------------------------------------------------------------------
    def _parse_lut(self, group: Group, location: str) -> _Lut | None:
        def axis(name: str) -> tuple[float, ...]:
            raw = group.get_complex(name)
            if raw is None or not raw:
                return ()
            return parse_number_list(raw[0])

        try:
            index_1 = axis("index_1")
            index_2 = axis("index_2")
            raw_rows = group.get_complex("values")
            if raw_rows is None:
                self._emit(
                    "LIB008",
                    group.line,
                    location,
                    f"{group.name} has no values attribute",
                )
                return None
            rows = [parse_number_list(row) for row in raw_rows]
        except LibertyError as error:
            self._emit("LIB008", group.line, location, str(error))
            return None
        template = group.label
        if template in self.templates:
            # Each missing axis comes from the template, as in the binder.
            template_1, template_2 = self.templates[template]
            index_1 = index_1 or template_1
            index_2 = index_2 or template_2
        shape: tuple[int, ...] | None
        row_lengths = {len(row) for row in rows}
        if len(rows) == 1 and index_2 and len(
            rows[0]
        ) == len(index_1) * len(index_2):
            # Flattened single-row 2-D form, accepted by the parser.
            shape = (len(index_1), len(index_2))
        elif index_1 and not index_2 and len(rows) > 1:
            self._emit(
                "LIB008",
                group.line,
                location,
                f"{group.name} is 1-D but has {len(rows)} values rows",
            )
            shape = None
        elif len(row_lengths) > 1:
            self._emit(
                "LIB008",
                group.line,
                location,
                f"{group.name} value grid is ragged "
                f"(row lengths {sorted(row_lengths)})",
            )
            shape = None
        elif len(rows) == 1 and not index_2:
            shape = (len(rows[0]),)
        else:
            shape = (len(rows), len(rows[0]) if rows else 0)
        return _Lut(
            group=group,
            index_1=index_1,
            index_2=index_2,
            rows=rows,
            shape=shape,
            template=template,
        )

    def _check_axes(self, lut: _Lut, location: str) -> None:
        for axis_name, axis in (
            ("index_1", lut.index_1),
            ("index_2", lut.index_2),
        ):
            if len(axis) < 2:
                continue
            if any(b <= a for a, b in zip(axis, axis[1:])):
                self._emit(
                    "LIB003",
                    lut.line,
                    location,
                    f"{axis_name} is not strictly increasing: "
                    f"{list(axis)}",
                )
            if any(value < 0.0 for value in axis):
                self._emit(
                    "LIB003",
                    lut.line,
                    location,
                    f"{axis_name} contains negative breakpoints",
                )

    def _check_template(self, lut: _Lut, location: str) -> None:
        name = lut.template
        if not name:
            if not lut.index_1:
                self._emit(
                    "LIB006",
                    lut.line,
                    location,
                    "LUT has neither a template reference nor an "
                    "inline index_1",
                )
            return
        if name not in self.templates:
            self._emit(
                "LIB006",
                lut.line,
                location,
                f"references unknown table template {name!r}",
            )
            return
        n1, n2 = (len(axis) for axis in self.templates[name])
        for axis_name, axis, expected in (
            ("index_1", lut.index_1, n1),
            ("index_2", lut.index_2, n2),
        ):
            if axis and expected and len(axis) != expected:
                self._emit(
                    "LIB006",
                    lut.line,
                    location,
                    f"{axis_name} has {len(axis)} breakpoints but "
                    f"template {name!r} declares {expected}",
                )

    def _check_related_pin(
        self, timing: Group, pin_names: set[str], location: str
    ) -> None:
        related = (timing.get("related_pin") or "").split()
        if not related:
            self._emit(
                "LIB012", timing.line, location,
                "timing group has no related_pin",
            )
        for name in related:
            if name not in pin_names:
                self._emit(
                    "LIB012", timing.line, location,
                    f"related_pin {name!r} is not a pin of the cell",
                )

    # ------------------------------------------------------------------
    def _lint_timing(self, timing: Group, location: str) -> None:
        names = {child.name for child in timing.groups()}
        bases = [base for base in BASE_QUANTITIES if base in names]
        if not bases:
            self._emit(
                "LIB013", timing.line, location,
                "timing group carries no nominal timing LUT",
            )
        elif not any(f"ocv_std_dev_{base}" in names for base in bases):
            self._emit(
                "LIB014", timing.line, location,
                "nominal LUTs but no LVF variation data (ocv_std_dev)",
            )
        nominal: dict[str, _Lut] = {}
        stat: dict[tuple[str, str], _Lut] = {}
        for child in timing.groups():
            base_name = child.name
            match = _match_stat_table(base_name)
            is_nominal = base_name in BASE_QUANTITIES
            if not (is_nominal or match):
                continue
            lut_location = f"{location}.{base_name}"
            lut = self._parse_lut(child, lut_location)
            if lut is None:
                continue
            self._check_axes(lut, lut_location)
            self._check_template(lut, lut_location)
            if is_nominal:
                nominal[base_name] = lut
            else:
                assert match is not None
                stat[match] = lut
        for base in BASE_QUANTITIES:
            self._lint_quantity(base, nominal.get(base), stat, location)

    def _lint_quantity(
        self,
        base: str,
        nominal: _Lut | None,
        stat: dict[tuple[str, str], _Lut],
        location: str,
    ) -> None:
        tables = {
            prefix: stat.get((prefix, base))
            for prefix in LVF_PREFIXES + LVF2_PREFIXES
        }
        present = {
            prefix: lut
            for prefix, lut in tables.items()
            if lut is not None
        }
        if nominal is None:
            if present:
                first = next(iter(present.values()))
                self._emit(
                    "LIB004",
                    first.line,
                    f"{location}.{base}",
                    "statistical LUTs present without a nominal "
                    f"{base} table",
                )
            return
        bad = [
            v for v in nominal.flat() if v <= 0.0 or not math.isfinite(v)
        ]
        if bad:
            self._emit(
                "LIB011",
                nominal.line,
                f"{location}.{base}",
                f"{len(bad)} non-positive nominal entries "
                f"(worst {min(bad):.6g})",
            )
        # LIB004: shape agreement against the nominal grid.
        if nominal.shape is not None:
            for prefix, lut in present.items():
                if lut.shape is not None and lut.shape != nominal.shape:
                    self._emit(
                        "LIB004",
                        lut.line,
                        f"{location}.{prefix}_{base}",
                        f"value grid shape {lut.shape} != nominal "
                        f"{base} shape {nominal.shape}",
                    )
        # LIB005: moment sanity.
        for prefix in _SIGMA_PREFIXES:
            lut = present.get(prefix)
            if lut is None:
                continue
            bad = [v for v in lut.flat() if v <= 0.0 or not math.isfinite(v)]
            if bad:
                self._emit(
                    "LIB005",
                    lut.line,
                    f"{location}.{prefix}_{base}",
                    f"{len(bad)} non-positive sigma entries "
                    f"(worst {min(bad):.6g})",
                )
        for prefix in _SKEW_PREFIXES:
            lut = present.get(prefix)
            if lut is None:
                continue
            worst = max((abs(v) for v in lut.flat()), default=0.0)
            if worst >= MAX_SKEWNESS:
                self._emit(
                    "LIB005",
                    lut.line,
                    f"{location}.{prefix}_{base}",
                    f"|skewness| {worst:.4f} >= SN feasibility bound "
                    f"{MAX_SKEWNESS:.4f}",
                )
        # LIB001 / LIB007 / LIB002 / LIB010: the mixture weight.
        weight = present.get("ocv_weight2")
        second = [
            present.get(prefix)
            for prefix in (
                "ocv_mean_shift2",
                "ocv_std_dev2",
                "ocv_skewness2",
            )
        ]
        if weight is not None:
            values = weight.flat()
            out_of_range = [
                v for v in values if v < 0.0 or v > 1.0 or not math.isfinite(v)
            ]
            if out_of_range:
                self._emit(
                    "LIB001",
                    weight.line,
                    f"{location}.ocv_weight2_{base}",
                    f"{len(out_of_range)} lambda values outside [0, 1] "
                    f"(worst {max(out_of_range, key=abs):.6g})",
                )
            has_mass = any(v > 0.0 for v in values)
            if has_mass and any(lut is None for lut in second):
                missing = [
                    prefix
                    for prefix, lut in zip(
                        ("ocv_mean_shift2", "ocv_std_dev2", "ocv_skewness2"),
                        second,
                    )
                    if lut is None
                ]
                self._emit(
                    "LIB007",
                    weight.line,
                    f"{location}.ocv_weight2_{base}",
                    "nonzero lambda but second-component LUTs missing: "
                    + ", ".join(missing),
                )
        zero_weight = weight is None or all(
            v == 0.0 for v in weight.flat()
        )
        if zero_weight:
            self._check_collapse(base, present, location)

    def _check_collapse(
        self, base: str, present: dict[str, _Lut], location: str
    ) -> None:
        """λ = 0 must degenerate to plain LVF (paper Eq. 10)."""
        any_extension = any(
            prefix in present for prefix in LVF2_PREFIXES
        )
        if not any_extension:
            return
        mismatched = False
        for lvf2_prefix, lvf_prefix in (
            ("ocv_mean_shift1", "ocv_mean_shift"),
            ("ocv_std_dev1", "ocv_std_dev"),
            ("ocv_skewness1", "ocv_skewness"),
        ):
            component = present.get(lvf2_prefix)
            plain = present.get(lvf_prefix)
            if component is None or plain is None:
                continue
            ours, theirs = component.flat(), plain.flat()
            if len(ours) != len(theirs):
                continue  # already a LIB004 finding
            for a, b in zip(ours, theirs):
                tolerance = _COLLAPSE_RTOL * max(abs(a), abs(b), 1.0)
                if abs(a - b) > tolerance:
                    self._emit(
                        "LIB002",
                        component.line,
                        f"{location}.{lvf2_prefix}_{base}",
                        "lambda is zero but component-1 LUT differs "
                        f"from {lvf_prefix}_{base} "
                        f"({a:.6g} != {b:.6g}); a legacy-LVF reader "
                        "would see a different distribution (Eq. 10)",
                    )
                    mismatched = True
                    break
        if not mismatched:
            first = next(
                present[prefix]
                for prefix in LVF2_PREFIXES
                if prefix in present
            )
            self._emit(
                "LIB010",
                first.line,
                f"{location}.{base}",
                "LVF2 extension LUTs present but lambda is zero "
                "everywhere; plain LVF represents this arc exactly",
            )


def lint_library_text(path: str, text: str) -> list[Finding]:
    """Lint Liberty source text; returns findings.

    Raises:
        ParameterError: When the text is empty or cannot be parsed at
            the syntax level — the domain linter needs an AST.
    """
    if not text.strip():
        raise ParameterError(f"{path}: library file is empty")
    try:
        library = parse_liberty(text)
    except LibertyError as error:
        raise ParameterError(
            f"{path}: cannot lint unparseable Liberty source: {error}"
        ) from error
    return _LibraryLinter(path).lint(library)


def validate_library(library: Library) -> list[Finding]:
    """Check a bound library against the LVF/LVF2 contract.

    Runs the same engine as :func:`lint_library_text` on
    ``library.to_group()``; findings carry the library name as their
    file.  An empty list means every rule holds.
    """
    with telemetry.span("liberty.validate"):
        return _LibraryLinter(library.name).lint(library.to_group())


def collect_lib_files(paths: list[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.lib`` files.

    Raises:
        ParameterError: On a missing path or when no ``.lib`` file is
            found at all.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.lib")))
        elif path.is_file():
            files.append(path)
        else:
            raise ParameterError(f"no such file or directory: {raw}")
    files = sorted({file.as_posix(): file for file in files}.values())
    if not files:
        raise ParameterError(
            f"no .lib files found under: {', '.join(paths)}"
        )
    return files


def lint_library_paths(
    paths: list[str],
) -> tuple[list[Finding], dict[str, str]]:
    """Lint ``.lib`` files/directories; returns (findings, sources)."""
    findings: list[Finding] = []
    sources: dict[str, str] = {}
    for file in collect_lib_files(paths):
        try:
            text = file.read_text()
        except OSError as error:
            raise ParameterError(
                f"cannot read {file}: {error}"
            ) from error
        sources[file.as_posix()] = text
        findings.extend(lint_library_text(file.as_posix(), text))
    return findings, sources
