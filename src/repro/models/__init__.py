"""Model zoo (substrate S5): Mixtral and BlackMamba families.

Paper-scale configs (:data:`MIXTRAL_8X7B`, :data:`BLACKMAMBA_2_8B`) are
used analytically — parameter counts, memory, FLOPs. Tiny configs
(:data:`MIXTRAL_TINY`, :data:`BLACKMAMBA_TINY`) instantiate real trainable
models on the autograd engine for the accuracy and load-balance studies.

Importing the package loads only the analytic names: the configs, the
parameter and memory formulas and the registry. The trainable modules
(:class:`MixtralModel`, :class:`BlackMambaModel` and their layers) sit
on ``repro.nn``, ``repro.tensor`` and ``repro.quant``; they resolve on
first use through ``__getattr__`` (PEP 562), so a planner that never
trains never imports the autograd engine. ``from repro.models import
MixtralModel`` still works.
"""

import importlib

from .config import (
    BLACKMAMBA_2_8B,
    BLACKMAMBA_TINY,
    BlackMambaConfig,
    MIXTRAL_8X7B,
    MIXTRAL_TINY,
    MixtralConfig,
    MoESettings,
)
from .params import (
    GB,
    ParamBreakdown,
    blackmamba_param_breakdown,
    lora_adapter_parameters,
    mixtral_param_breakdown,
    model_memory_gb,
    param_breakdown,
    trainable_parameters,
    weight_bytes_per_param,
)
from .registry import MODEL_REGISTRY, ModelSpec, get_model_spec

#: Lazy name -> defining submodule: the autograd-backed models.
_LAZY = {
    "BlackMambaModel": ".blackmamba",
    "MambaLayer": ".blackmamba",
    "MoEFFNLayer": ".blackmamba",
    "MixtralBlock": ".mixtral",
    "MixtralModel": ".mixtral",
    "convert_to_qlora": ".mixtral",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "BLACKMAMBA_2_8B",
    "BLACKMAMBA_TINY",
    "BlackMambaConfig",
    "BlackMambaModel",
    "GB",
    "MIXTRAL_8X7B",
    "MIXTRAL_TINY",
    "MODEL_REGISTRY",
    "MambaLayer",
    "MixtralBlock",
    "MixtralConfig",
    "MixtralModel",
    "MoEFFNLayer",
    "MoESettings",
    "ModelSpec",
    "ParamBreakdown",
    "blackmamba_param_breakdown",
    "convert_to_qlora",
    "get_model_spec",
    "lora_adapter_parameters",
    "mixtral_param_breakdown",
    "model_memory_gb",
    "param_breakdown",
    "trainable_parameters",
    "weight_bytes_per_param",
]
