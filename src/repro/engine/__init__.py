"""Unified exploration engine over the allocate -> PACE -> evaluate chain.

Layers:

* :mod:`repro.engine.cache` — the leaf memo store (:class:`EvalCache`)
  every pipeline stage keys by its true inputs; safe to import from
  any stage module without cycles.
* :mod:`repro.engine.design_point` — immutable coordinates of one
  design-space point (:class:`DesignPoint`) and its outcome
  (:class:`PointResult`).
* :mod:`repro.engine.store` — the content-addressed persistent spill
  (:class:`CacheStore`): the cache's content-keyed stage entries
  shared across processes and machines through a ``cache_dir``.
* :mod:`repro.engine.session` — the :class:`Session` facade tying the
  stages together, with the ``explore``/``explore_grid`` batch API
  over ``multiprocessing``.

``session`` sits on top of the core/partition stages, which in turn
import only :mod:`repro.engine.cache`; the session module is therefore
loaded lazily here so stage modules can import this package safely.
"""

from repro.engine.cache import CacheStats, EvalCache
from repro.engine.design_point import (
    DesignPoint,
    PointError,
    PointResult,
    POLICY_NAMES,
    failed_point_result,
)

__all__ = [
    "CacheStats",
    "CacheStore",
    "DesignPoint",
    "EvalCache",
    "POLICY_NAMES",
    "PointError",
    "PointResult",
    "Session",
    "explore_grid",
    "failed_point_result",
]


def __getattr__(name):
    if name in ("Session", "explore_grid"):
        from repro.engine import session

        return getattr(session, name)
    if name == "CacheStore":
        from repro.engine.store import CacheStore

        return CacheStore
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))
