"""The flatlint rule registry.

Rules self-register with :func:`register`; :func:`all_rules` imports
the rule modules (deferred, so the registry module itself stays
import-cycle-free) and returns one fresh instance per rule, sorted by
code.  Codes are stable — ``FT001`` will always mean determinism —
because suppression comments and CI logs depend on them.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..engine import Rule

_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.code or not cls.code.startswith("FT"):
        raise ValueError(f"rule {cls.__name__} needs a stable FT0xx code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by code."""
    from . import (bus, concurrency, determinism,  # noqa: F401
                   fabricviews, hygiene, layering, taint, telemetry)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]
