"""Evaluation harness: RD sweeps, q-balance sweeps, timing, scaling,
outlier studies, and the Table II field grid."""

from .fields import TABLE_II, TableIIEntry, load_entry
from .outliers import (
    OutlierCodingComparison,
    OutlierMap,
    clark_evans_ratio,
    compare_outlier_coding,
    outlier_map,
)
from .rd import RdPoint, rd_point, rd_sweep
from .report import banner, format_series, format_table
from .scorecard import Scorecard, ScorecardCell, format_scorecard, run_scorecard
from .scaling import (
    ScalingStudy,
    lpt_makespan,
    measure_chunk_times,
    scaling_study,
    simulated_speedups,
)
from .spectra import SpectralFidelity, radial_power_spectrum, spectral_fidelity
from .subbands import SubbandProfile, compaction_curve, subband_profile
from .sweep import DEFAULT_Q_FACTORS, QSweepPoint, q_sweep
from .timing import StageBreakdown, time_breakdown

__all__ = [
    "TABLE_II",
    "TableIIEntry",
    "load_entry",
    "RdPoint",
    "rd_point",
    "rd_sweep",
    "QSweepPoint",
    "q_sweep",
    "DEFAULT_Q_FACTORS",
    "StageBreakdown",
    "time_breakdown",
    "ScalingStudy",
    "scaling_study",
    "measure_chunk_times",
    "simulated_speedups",
    "lpt_makespan",
    "OutlierMap",
    "outlier_map",
    "clark_evans_ratio",
    "OutlierCodingComparison",
    "compare_outlier_coding",
    "banner",
    "SpectralFidelity",
    "radial_power_spectrum",
    "spectral_fidelity",
    "SubbandProfile",
    "subband_profile",
    "compaction_curve",
    "format_series",
    "format_table",
    "Scorecard",
    "ScorecardCell",
    "run_scorecard",
    "format_scorecard",
]
