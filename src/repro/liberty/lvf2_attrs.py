"""LVF2 Liberty extension: the seven new attributes (paper §3.3).

Per base quantity, LVF2 adds

- ``ocv_mean_shift1_<base>``  (mu1 - nominal; defaults to LVF mean shift)
- ``ocv_std_dev1_<base>``     (sigma1; defaults to LVF std dev)
- ``ocv_skewness1_<base>``    (gamma1; defaults to LVF skewness)
- ``ocv_weight2_<base>``      (lambda in [0, 1]; defaults to 0)
- ``ocv_mean_shift2_<base>``  (mu2 - nominal)
- ``ocv_std_dev2_<base>``     (sigma2)
- ``ocv_skewness2_<base>``    (gamma2)

The inheritance defaults implement backward compatibility (Eq. 10): a
conventional LVF library read through this resolver yields
``LVF2Model(lambda=0, theta1=theta_LVF)``, which *is* the LVF
distribution.  The paper spells the first attribute
``ocv_mean_shfit1`` (sic) in one spot; the parser accepts the typo and
the writer always emits the correct spelling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LibertySemanticError
from repro.liberty.lvf_attrs import LVFTables
from repro.liberty.tables import Table
from repro.models.lvf import LVFModel
from repro.models.lvf2 import LVF2Model

__all__ = ["LVF2_PREFIXES", "LVF2Tables", "lvf2_attr_name"]

#: LVF2 LUT prefixes in library-definition order (§3.3).
LVF2_PREFIXES = (
    "ocv_mean_shift1",
    "ocv_std_dev1",
    "ocv_skewness1",
    "ocv_weight2",
    "ocv_mean_shift2",
    "ocv_std_dev2",
    "ocv_skewness2",
)

#: Accepted alternative spellings seen in the wild (paper's own typo).
PREFIX_ALIASES = {"ocv_mean_shfit1": "ocv_mean_shift1"}


def lvf2_attr_name(prefix: str, base: str) -> str:
    """Compose an LVF2 LUT group name, e.g. ``ocv_weight2_cell_rise``."""
    if prefix in PREFIX_ALIASES:
        prefix = PREFIX_ALIASES[prefix]
    if prefix not in LVF2_PREFIXES:
        raise LibertySemanticError(f"unknown LVF2 prefix {prefix!r}")
    return f"{prefix}_{base}"


@dataclass(frozen=True)
class LVF2Tables:
    """LVF tables plus the seven LVF2 extension LUTs for one quantity.

    All extension tables are optional; absent tables take the §3.3
    defaults (inherit from LVF for component 1, zero weight for
    component 2).
    """

    lvf: LVFTables
    mean_shift1: Table | None = None
    std_dev1: Table | None = None
    skewness1: Table | None = None
    weight2: Table | None = None
    mean_shift2: Table | None = None
    std_dev2: Table | None = None
    skewness2: Table | None = None

    def __post_init__(self) -> None:
        shape = self.lvf.nominal.values.shape
        for name in (
            "mean_shift1",
            "std_dev1",
            "skewness1",
            "weight2",
            "mean_shift2",
            "std_dev2",
            "skewness2",
        ):
            table = getattr(self, name)
            if table is not None and table.values.shape != shape:
                raise LibertySemanticError(
                    f"ocv_{name}_{self.base} shape {table.values.shape} "
                    f"!= nominal shape {shape}"
                )
        if self.weight2 is not None:
            weights = self.weight2.values
            if np.any((weights < 0.0) | (weights > 1.0)):
                raise LibertySemanticError(
                    f"ocv_weight2_{self.base} values must lie in [0, 1]"
                )
        second_tables = (self.mean_shift2, self.std_dev2, self.skewness2)
        has_weight = self.weight2 is not None and np.any(
            self.weight2.values > 0.0
        )
        if has_weight and any(table is None for table in second_tables):
            raise LibertySemanticError(
                f"{self.base}: ocv_weight2 is nonzero but the second-"
                "component LUTs (mean_shift2/std_dev2/skewness2) are "
                "incomplete"
            )

    @property
    def base(self) -> str:
        return self.lvf.base

    @property
    def is_lvf2(self) -> bool:
        """True when any extension LUT is present."""
        return any(
            getattr(self, name) is not None
            for name in (
                "mean_shift1",
                "std_dev1",
                "skewness1",
                "weight2",
                "mean_shift2",
                "std_dev2",
                "skewness2",
            )
        )

    # ------------------------------------------------------------------
    def _component1(self, i: int, j: int | None) -> LVFModel:
        """First component with §3.3 default inheritance from LVF."""
        nominal = self.lvf.nominal.value_at(i, j)
        shift_table = (
            self.mean_shift1
            if self.mean_shift1 is not None
            else self.lvf.mean_shift
        )
        std_table = (
            self.std_dev1 if self.std_dev1 is not None else self.lvf.std_dev
        )
        skew_table = (
            self.skewness1
            if self.skewness1 is not None
            else self.lvf.skewness
        )
        if std_table is None:
            raise LibertySemanticError(
                f"{self.base}: neither ocv_std_dev1 nor ocv_std_dev "
                "present; no first-component sigma available"
            )
        mean = nominal + (
            shift_table.value_at(i, j) if shift_table is not None else 0.0
        )
        gamma = skew_table.value_at(i, j) if skew_table is not None else 0.0
        return LVFModel(
            mean, std_table.value_at(i, j), gamma, nominal=nominal
        )

    def lvf2_at(self, i: int, j: int | None = None) -> LVF2Model:
        """Resolve the LVF2 distribution at grid point ``(i, j)``.

        Implements Eq. 10: with no extension LUTs (or zero weight at
        this grid point) the result is the plain-LVF distribution as an
        ``lambda = 0`` LVF2 model.
        """
        first = self._component1(i, j)
        weight = (
            self.weight2.value_at(i, j) if self.weight2 is not None else 0.0
        )
        if weight <= 0.0:
            return LVF2Model(0.0, first, None, nominal=first.nominal)
        nominal = self.lvf.nominal.value_at(i, j)
        assert self.mean_shift2 is not None
        assert self.std_dev2 is not None
        assert self.skewness2 is not None
        second = LVFModel(
            nominal + self.mean_shift2.value_at(i, j),
            self.std_dev2.value_at(i, j),
            self.skewness2.value_at(i, j),
            nominal=nominal,
        )
        return LVF2Model(weight, first, second, nominal=nominal)

    # ------------------------------------------------------------------
    @classmethod
    def from_models(
        cls,
        base: str,
        nominal: Table,
        models: np.ndarray,
    ) -> "LVF2Tables":
        """Build the full LUT set from a grid of fitted LVF2 models.

        Args:
            base: Base quantity name.
            nominal: Nominal LUT (defines grid shape and indices).
            models: Object array of :class:`LVF2Model`, same shape as
                the nominal value grid.

        Returns:
            Tables with both the backward-compatible LVF moment LUTs
            (moment-matched overall distribution) and the LVF2
            extension LUTs.  When every model is collapsed the
            extension LUTs are omitted entirely — a legacy LVF library.
        """
        grid = np.asarray(models, dtype=object)
        if grid.shape != nominal.values.shape:
            raise LibertySemanticError(
                f"models shape {grid.shape} != nominal shape "
                f"{nominal.values.shape}"
            )

        def table_of(extract, source: np.ndarray = grid) -> Table:
            values = np.empty(grid.shape, dtype=float)
            for index in np.ndindex(grid.shape):
                values[index] = extract(
                    source[index], nominal.values[index]
                )
            return Table(
                nominal.template, nominal.index_1, nominal.index_2, values
            )

        # Backward-compatible LVF view: overall moment match (Eq. 10
        # read in reverse — what a legacy tool should see), projected
        # once per grid point.
        projected = np.empty(grid.shape, dtype=object)
        for index in np.ndindex(grid.shape):
            projected[index] = grid[index].to_lvf()
        lvf = LVFTables(
            base=base,
            nominal=nominal,
            mean_shift=table_of(lambda m, nom: m.mu - nom, projected),
            std_dev=table_of(lambda m, nom: m.sigma, projected),
            skewness=table_of(lambda m, nom: m.gamma, projected),
        )
        all_collapsed = all(
            grid[index].is_collapsed for index in np.ndindex(grid.shape)
        )
        if all_collapsed:
            return cls(lvf=lvf)

        def second(attr: str, default: float):
            def extract(model: LVF2Model, nom: float) -> float:
                if model.component2 is None:
                    return default
                if attr == "mean_shift":
                    return model.component2.mu - nom
                return getattr(model.component2, attr)

            return extract

        return cls(
            lvf=lvf,
            mean_shift1=table_of(lambda m, nom: m.component1.mu - nom),
            std_dev1=table_of(lambda m, nom: m.component1.sigma),
            skewness1=table_of(lambda m, nom: m.component1.gamma),
            weight2=table_of(lambda m, nom: m.weight),
            mean_shift2=table_of(second("mean_shift", 0.0)),
            std_dev2=table_of(second("sigma", 1.0)),
            skewness2=table_of(second("gamma", 0.0)),
        )
