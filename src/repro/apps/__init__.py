"""The paper's four benchmark applications.

Table 1 evaluates the allocation algorithm on ``straight`` (straight-
line DSP code from the LYCOS paper [9]), ``hal`` (the Paulin-Knight
differential-equation benchmark [11]), ``man`` (Mandelbrot set [12]) and
``eigen`` (eigenvector computation for cloud-motion interpolation [8]).
The original sources are unpublished; these reimplementations in the
mini-C frontend preserve the documented characteristics (size, operation
mix, the constant-loading BSB of ``man``, the division-heavy blocks of
``eigen``); each application module's docstring describes its
reimplementation.
"""

from repro.apps.registry import (
    load_application,
    application_names,
    application_spec,
    ApplicationSpec,
)

__all__ = [
    "load_application",
    "application_names",
    "application_spec",
    "ApplicationSpec",
]
