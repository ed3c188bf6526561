"""The paper's published measurements, for comparison in every experiment.

All numbers are transcribed from the paper (figures 2-5 and the §4.3/§4.4
text).  EXPERIMENTS.md reports our measurements against these.
"""

from __future__ import annotations

__all__ = [
    "FIG2_SECONDS",
    "FIG5_SECONDS",
    "FIG3_INPUT_SIZES_MB",
    "FFT_24MB_BREAKDOWN",
    "LATENCY_MS",
]

#: Figure 2: completion time (seconds) per application and policy.
FIG2_SECONDS = {
    "mvec": {
        "no-reliability": 19.02,
        "parity-logging": 23.37,
        "mirroring": 34.05,
        "disk": 25.15,
    },
    "gauss": {
        "no-reliability": 40.62,
        "parity-logging": 49.80,
        "mirroring": 67.25,
        "disk": 79.61,
    },
    "qsort": {
        "no-reliability": 74.26,
        "parity-logging": 81.05,
        "mirroring": 100.67,
        "disk": 113.80,
    },
    "fft": {
        "no-reliability": 108.02,
        "parity-logging": 121.67,
        "mirroring": 138.86,
        "disk": 150.00,
    },
    "filter": {
        "no-reliability": 80.18,
        "parity-logging": 94.07,
        "mirroring": 104.98,
        "disk": 126.61,
    },
    "cc": {
        "no-reliability": 101.69,
        "parity-logging": 103.25,
        "mirroring": 117.31,
        "disk": 128.70,
    },
}

#: Figure 5: no-reliability vs write-through vs parity logging (seconds).
FIG5_SECONDS = {
    "mvec": {"no-reliability": 19.02, "write-through": 25.49, "parity-logging": 23.37},
    "gauss": {"no-reliability": 40.62, "write-through": 41.15, "parity-logging": 49.80},
    "qsort": {"no-reliability": 74.26, "write-through": 79.85, "parity-logging": 81.05},
    "fft": {"no-reliability": 108.02, "write-through": 110.78, "parity-logging": 121.67},
}

#: Figure 3/4 x-axis: FFT input sizes in megabytes.
FIG3_INPUT_SIZES_MB = [17.0, 18.5, 20.0, 21.6, 23.2, 24.0]

#: §4.3's measured decomposition of FFT at 24 MB under parity logging.
FFT_24MB_BREAKDOWN = {
    "etime": 130.76,
    "utime": 66.138,
    "systime": 3.133,
    "inittime": 0.21,
    "ptime": 61.279,
    "pageouts": 2718,
    "pageins": 2055,
    "page_transfers": 5452,
    "pptime_per_page": 0.0016,
    "predicted_etime_10x": 83.459,
    "predicted_overhead_fraction_10x": 0.16748,
}

#: §4.4: per-page latency decomposition (milliseconds).
LATENCY_MS = {
    "total_per_transfer": 11.24,
    "protocol": 1.6,
    "wire": 9.64,
    "prior_work_4kb_pagein": 45.0,  # Schilit & Duchamp, for context
}
