"""The uniform result contract every registered experiment returns.

Historically each runner returned its own dataclass with its own surface
(some had ``summary()``, some exposed bare fields, and aggregation helpers
passed ad-hoc dicts around).  This module pins the contract down:

* :class:`ExperimentResult` is the *protocol* — what callers may rely on:
  ``scheme``/``seed`` identity, ``to_dict()``/``from_dict()`` round-trip,
  and ``metrics()``, a flat ``{name: float}`` view used by sweep tables,
  campaign aggregation, and manifests.
* :class:`ResultBase` is the mixin the concrete result dataclasses inherit
  to get the contract for free: serialization delegates to
  :mod:`repro.serialization`, ``metrics()`` defaults to the class's own
  ``summary()`` when it defines one and otherwise to a scan of the numeric
  dataclass fields.

The registry (:func:`repro.experiments.registry.register`) rejects result
classes that do not satisfy the contract, so a new experiment cannot
silently regress to an untyped result shape.  Results are read by
attribute or through ``metrics()``; they are not mappings.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Protocol, runtime_checkable

from .. import serialization as _ser


@runtime_checkable
class ExperimentResult(Protocol):
    """What every registered experiment result guarantees."""

    scheme: str
    seed: int

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) rendering of the result."""
        ...

    def metrics(self) -> Dict[str, float]:
        """Flat numeric view: the numbers tables and aggregations consume."""
        ...


#: Method/attribute surface :func:`check_result_contract` enforces.
RESULT_CONTRACT = ("to_dict", "from_dict", "metrics", "scheme", "seed")


#: Neutral fallbacks for the identity attributes on results that do not
#: carry them as real dataclass fields (resolved via ``__getattr__`` so they
#: never become inherited dataclass defaults, which would corrupt subclass
#: field ordering).
_CONTRACT_DEFAULTS: Dict[str, Any] = {"scheme": "", "seed": -1}


def _provides(result_cls: type, name: str) -> bool:
    if hasattr(result_cls, name):
        return True
    if name in getattr(result_cls, "__dataclass_fields__", {}):
        return True
    # ResultBase answers scheme/seed dynamically on instances.
    return name in _CONTRACT_DEFAULTS and issubclass(result_cls, ResultBase)


def check_result_contract(result_cls: type) -> None:
    """Raise ``TypeError`` unless ``result_cls`` satisfies the contract."""
    missing = [name for name in RESULT_CONTRACT if not _provides(result_cls, name)]
    if missing:
        raise TypeError(
            f"{result_cls.__name__} does not implement the ExperimentResult "
            f"contract (missing: {missing}); inherit "
            f"repro.experiments.ResultBase or provide them explicitly"
        )


class ResultBase:
    """Mixin implementing :class:`ExperimentResult` for result dataclasses.

    ``scheme``/``seed`` identity is answered via ``__getattr__`` fallback
    (not class attributes — those would become inherited dataclass defaults
    and corrupt subclass field order): subclasses carrying them as real
    fields (most do) shadow the fallback, and the few scheme-less
    experiments (signaling, cti, energy, ...) read the neutral defaults.
    """

    # ------------------------------------------------------------------
    # Identity fallbacks
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        try:
            return _CONTRACT_DEFAULTS[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) rendering, via :mod:`repro.serialization`."""
        return _ser.to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        """Rebuild an instance from :meth:`to_dict` output (typed, strict)."""
        return _ser.from_dict(cls, data)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Flat ``{name: float}`` view of the result.

        Uses the subclass's ``summary()`` when it defines one (those pick
        the paper-relevant numbers); otherwise every bool/int/float
        dataclass field is surfaced as a float.
        """
        summary = getattr(self, "summary", None)
        if callable(summary):
            return {name: float(value) for name, value in summary().items()}
        out: Dict[str, float] = {}
        for field in dataclasses.fields(self):  # type: ignore[arg-type]
            value = getattr(self, field.name)
            if isinstance(value, (bool, int, float)):
                out[field.name] = float(value)
        return out
