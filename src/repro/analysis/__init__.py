"""Analysis: time decomposition, extrapolation, paper-data comparison."""

from .charts import ascii_chart
from .model import AnalyticModel, disk_page_time, ethernet_page_time
from .extrapolate import Decomposition, all_memory_bound, decompose, extrapolate
from .paper_data import (
    FFT_24MB_BREAKDOWN,
    FIG2_SECONDS,
    FIG3_INPUT_SIZES_MB,
    FIG5_SECONDS,
    LATENCY_MS,
)
from .report import comparison_table, format_table, shape_check

__all__ = [
    "ascii_chart",
    "AnalyticModel",
    "ethernet_page_time",
    "disk_page_time",
    "Decomposition",
    "decompose",
    "extrapolate",
    "all_memory_bound",
    "comparison_table",
    "format_table",
    "shape_check",
    "FIG2_SECONDS",
    "FIG5_SECONDS",
    "FIG3_INPUT_SIZES_MB",
    "FFT_24MB_BREAKDOWN",
    "LATENCY_MS",
]
