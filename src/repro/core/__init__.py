"""The paper's contribution: thermal-aware guardbanding, design, architecture.

- :mod:`repro.core.guardband` — Algorithm 1: the timing/power/thermal fixed
  point that replaces the worst-case margin with a minimal sufficient one.
- :mod:`repro.core.margins` — the conventional worst-case (Tworst = 100 C)
  baseline.
- :mod:`repro.core.design` — thermal-aware design: how fabrics optimized at
  different corners behave across the temperature range (Figs. 2-3).
- :mod:`repro.core.architecture` — thermal-aware architecture: Eq. 1
  expected delay and design-corner selection for a foreknown field range.
"""

from repro.core.architecture import (
    CornerChoice,
    expected_delay,
    select_design_corner,
)
from repro.core.design import CornerCurves, corner_delay_curves
from repro.core.grades import GradeBand, GradePlan, plan_temperature_grades
from repro.core.guardband import (
    GuardbandError,
    GuardbandResult,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.core.margins import worst_case_frequency

__all__ = [
    "CornerChoice",
    "CornerCurves",
    "GradeBand",
    "GradePlan",
    "GuardbandError",
    "GuardbandResult",
    "corner_delay_curves",
    "expected_delay",
    "plan_temperature_grades",
    "select_design_corner",
    "thermal_aware_guardband",
    "thermal_aware_guardband_batch",
    "worst_case_frequency",
]
