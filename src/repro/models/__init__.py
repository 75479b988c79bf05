"""Statistical timing models.

The four models compared in the paper's experiments:

- :class:`LVF2Model` — the paper's contribution (2 skew-normals, EM)
- :class:`Norm2Model` — 2 Gaussians, EM (Takahashi et al. [10])
- :class:`LESNModel` — log-extended-skew-normal (Jin et al. [7])
- :class:`LVFModel` — single skew-normal, the industry baseline [4]

plus extension baselines (:class:`GaussianModel`,
:class:`LogNormalModel`, :class:`LogSkewNormalModel`).

Use the registry (:func:`get_model` / :func:`fit_model`) to select
models by the names used in the paper's tables.
"""

from repro.models.base import (
    TimingModel,
    available_models,
    fit_model,
    get_model,
    register_model,
)
from repro.models.gaussian import GaussianModel
from repro.models.lesn import LESNModel
from repro.models.lognormal import LogNormalModel, LogSkewNormalModel
from repro.models.lvf import LVFModel
from repro.models.lvf2 import LVF2Model, SKEW_NORMAL_FAMILY
from repro.models.norm2 import GAUSSIAN_FAMILY, Norm2Model
from repro.models.uncertainty import (
    BootstrapSummary,
    bootstrap_model,
    lvf2_weight_interval,
)

#: The four models of the paper's experiment section, in table order.
PAPER_MODELS = ("LVF2", "Norm2", "LESN", "LVF")

__all__ = [
    "BootstrapSummary",
    "GAUSSIAN_FAMILY",
    "GaussianModel",
    "LESNModel",
    "LVF2Model",
    "LVFModel",
    "LogNormalModel",
    "LogSkewNormalModel",
    "Norm2Model",
    "PAPER_MODELS",
    "SKEW_NORMAL_FAMILY",
    "TimingModel",
    "available_models",
    "bootstrap_model",
    "fit_model",
    "get_model",
    "lvf2_weight_interval",
    "register_model",
]
