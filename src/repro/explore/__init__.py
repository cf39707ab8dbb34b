"""Architecture design-space exploration.

Three pieces on top of the :class:`~repro.arch.ArchSpec` refactor:

* :mod:`repro.explore.space` — the default grid of valid design points
  around the paper's synthesized geometry;
* :mod:`repro.explore.kernels` — single-kernel window workloads (real
  FFT, FIR) served per design point;
* :mod:`repro.explore.campaign` — the campaign running specs × kernels
  as one :class:`~repro.serve.ParameterSweep` and folding the
  stream reports into a cycles-vs-energy
  :class:`~repro.explore.pareto.ParetoReport` (also
  ``python -m repro.explore`` for the CI smoke job).
"""

from repro.explore.campaign import ExplorationCampaign
from repro.explore.kernels import KERNELS, KernelPipeline, KernelWindowResult
from repro.explore.pareto import DesignPoint, ParetoReport, pareto_front
from repro.explore.space import design_space, smoke_space

__all__ = [
    "KERNELS",
    "DesignPoint",
    "ExplorationCampaign",
    "KernelPipeline",
    "KernelWindowResult",
    "ParetoReport",
    "design_space",
    "pareto_front",
    "smoke_space",
]
