"""The paper's LIMD set-up, shared by every artefact that runs LIMD.

Section 6.2.1 fixes one LIMD configuration (l = 0.2, ε = 0.02,
adaptive m, TTR_max = 60 min) for the whole temporal evaluation;
Figures 3–6, the ablations, the n-object extension and the workload
families under :mod:`repro.scenarios` all run it.  It lives here, below
every module that registers a scenario, so those modules never import
one another for a constant.
"""

from __future__ import annotations

from repro.consistency.limd import LimdParameters
from repro.core.types import MINUTE, Seconds

#: The paper's LIMD configuration (Section 6.2.1).
PAPER_LIMD_PARAMETERS = LimdParameters(linear_increase=0.2, epsilon=0.02)

TTR_MAX: Seconds = 60 * MINUTE
