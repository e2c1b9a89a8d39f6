"""Argument resolution shared by the experiment runners.

Every runner has the uniform signature::

    run_x(config: XTrialConfig | None = None,
          seed: int | None = None,
          calibration: Calibration | None = None)

i.e. the config object, the seed, and the calibration always sit in the
same positions, which is what lets the registry
(:mod:`repro.experiments.registry`) and the sweep engine
(:mod:`repro.experiments.sweep`) drive all of them through one contract.
"""

from __future__ import annotations

from typing import Any, Optional, Type, TypeVar

C = TypeVar("C")


def trial_config(config: Any, config_cls: Type[C]) -> C:
    """``config`` itself, or a default ``config_cls()`` for ``None``."""
    if config is None:
        return config_cls()
    if not isinstance(config, config_cls):
        raise TypeError(
            f"expected {config_cls.__name__} or None as the config, "
            f"got {type(config).__name__}"
        )
    return config


def effective_seed(seed: Optional[int]) -> int:
    """Resolve the trial seed: the explicit argument, else 0."""
    return int(seed) if seed is not None else 0
