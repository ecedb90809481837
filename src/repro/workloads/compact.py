"""The columnar population generator under its earlier module name.

:class:`~repro.workloads.population.CompactPopulation` and
:func:`~repro.workloads.population.generate_compact_population` live in
:mod:`repro.workloads.population`, beside the calibration tables they
draw from; this module re-exports them for code that imports them from
here, such as the benchmark under ``perfbench/``.
"""

from repro.workloads.population import CompactPopulation, generate_compact_population

__all__ = ["CompactPopulation", "generate_compact_population"]
