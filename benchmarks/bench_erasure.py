"""PR 9 erasure benchmark: codec A/B, fan-out latency, resilience gates.

Grown from the PR 8 record (redundancy spectrum + codec throughput)
into the vectorized-datapath acceptance harness.  One JSON summary
(``BENCH_pr9.json``) with five sections:

* **spectrum** — the PR 8 fault-free policy sweep, unchanged: ec-4-2
  must ship fewer page-equivalents than mirroring while tolerating two
  concurrent crashes.
* **codec_ab** — the shipped numpy packed-lane streaming codec
  (``encode_many``/``data_from_many``) timed against per-byte
  pure-python ``gf_mul`` loops — the honest "pure python" baseline — on
  the same 8 KB ec-4-2 stripes, outputs byte-compared.  The gated ratio
  (``codec_ab.speedup``, enforced >= 10x here and by
  ``trajectory.py --check``) is the codec over the reference.
* **paper_scale** — ``repro spectrum --paper-scale`` (GAUSS on the
  32 MB Alpha, switched network, telemetry on): per-policy pagein
  latency percentiles plus ``latency_ratio`` = ec-4-2 mean pagein
  latency over mirroring's (checked <= 1.5; the concurrent fragment
  fan-out typically lands it *below* 1.0).
* **resilience** — ec-4-2 campaign verdicts at the heavy and
  correlated fault levels, sync and pipelined: all must stay CLEAN.
* **compiled_identity** — one content-mode EC run executed compiled
  and interpreted; reports (etime, faults) and full metrics snapshots
  must match exactly.

Run as a script for the JSON record, ``--check`` to enforce all of the
above (CI's bench-regression job does both)::

    PYTHONPATH=src python benchmarks/bench_erasure.py --out BENCH_pr9.json --check

or under pytest for a threshold-free smoke check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_HERE, _SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.policies.gf256 import (  # noqa: E402
    ReedSolomon,
    _encode_rows,
    _reconstruction_rows,
    gf_mul,
    join_fragments,
    split_page,
)
from repro.experiments.erasure import run_spectrum  # noqa: E402
from repro.experiments.resilience import run_resilience  # noqa: E402
from repro.vm.page import page_bytes  # noqa: E402

PAGE = 8192

#: codec_ab acceptance floor: numpy streaming vs the per-byte
#: pure-python reference codec, encode+decode combined.
CODEC_SPEEDUP_FLOOR = 10.0

#: paper_scale acceptance ceiling: ec-4-2 mean pagein latency over
#: mirroring's on the switched network.
LATENCY_RATIO_CEILING = 1.5


# --------------------------------------------------------------------------
# Codec A/B: reference (per-byte python) vs the numpy codec.
# --------------------------------------------------------------------------

def _reference_combine(fragments, rows):
    """Per-byte pure-python GF(256) matrix apply — the honest baseline.

    Every byte goes through a python-level ``gf_mul`` call and a
    python-level XOR; this is what "pure python Reed-Solomon" means
    before any table or vector tricks.
    """
    width = len(fragments[0])
    out = []
    for row in rows:
        acc = bytearray(width)
        for coeff, frag in zip(row, fragments):
            if not coeff:
                continue
            for i, byte in enumerate(frag):
                acc[i] ^= gf_mul(coeff, byte)
        out.append(bytes(acc))
    return out


def _worst_case_survivors(k, m, data, parity):
    """m data fragments lost; every parity position joins the decode."""
    if m < k:
        return {k + j: parity[j] for j in range(m)} | {
            i: data[i] for i in range(k - m)
        }
    return {k + j: parity[j] for j in range(m)}


def measure_codec_ab(k: int = 4, m: int = 2, pages: int = 64) -> dict:
    """Codec vs reference, same stripes, byte-compared; microseconds/page."""
    rs = ReedSolomon(k, m)
    fragment_size = -(-PAGE // k)
    stripes = [
        split_page(page_bytes(page_id, 1, PAGE), k, fragment_size)
        for page_id in range(pages)
    ]

    # Reference engine: per-byte python loops over the same matrices the
    # real codec uses, so outputs are comparable bit-for-bit.
    encode_rows = _encode_rows(k, m)
    _reference_combine(stripes[0], encode_rows)  # warm gf tables
    start = perf_counter()
    ref_parities = [_reference_combine(data, encode_rows) for data in stripes]
    ref_encode = perf_counter() - start

    survivors = [
        _worst_case_survivors(k, m, data, parity)
        for data, parity in zip(stripes, ref_parities)
    ]
    src = tuple(sorted(survivors[0], key=lambda i: (i >= k, i))[:k])
    todo = tuple(i for i in range(k) if i not in survivors[0])
    recon_rows = _reconstruction_rows(k, m, src, todo)
    start = perf_counter()
    ref_decoded = []
    for avail in survivors:
        rebuilt = _reference_combine([avail[i] for i in src], recon_rows)
        frags = dict(avail)
        frags.update(zip(todo, rebuilt))
        ref_decoded.append([frags[i] for i in range(k)])
    ref_decode = perf_counter() - start

    # The shipped codec, whole batch per call.
    rs.encode_many(stripes[:2])  # warm packed-lane tables + scratch
    rs.data_from_many(survivors[:2])
    start = perf_counter()
    np_parities = rs.encode_many(stripes)
    np_encode = perf_counter() - start
    start = perf_counter()
    np_decoded = rs.data_from_many(survivors)
    np_decode = perf_counter() - start

    identical = ref_parities == np_parities and ref_decoded == np_decoded
    for page_id, data in enumerate(np_decoded):
        assert join_fragments(data, PAGE) == page_bytes(page_id, 1, PAGE)

    us = lambda seconds: round(seconds / pages * 1e6, 2)  # noqa: E731
    return {
        "k": k,
        "m": m,
        "pages": pages,
        "page_size": PAGE,
        "engines_byte_identical": identical,
        "reference_encode_us_per_page": us(ref_encode),
        "reference_decode_us_per_page": us(ref_decode),
        "numpy_encode_us_per_page": us(np_encode),
        "numpy_decode_us_per_page": us(np_decode),
        # Gated (trajectory.py): the codec vs the per-byte reference.
        "speedup": round(
            (ref_encode + ref_decode) / (np_encode + np_decode), 1
        ),
    }


# --------------------------------------------------------------------------
# Paper-scale latency: fragment fan-out vs whole-page policies.
# --------------------------------------------------------------------------

def measure_paper_scale() -> dict:
    """GAUSS/32 MB-Alpha/switched-net sweep with pagein percentiles."""
    results = run_spectrum(
        policies=("no-reliability", "mirroring", "ec-2-1", "ec-4-2"),
        paper_scale=True,
    )
    record = {}
    for policy, cell in results.items():
        latency = cell.get("pagein_latency") or {}
        record[policy] = {
            "transfer_overhead": cell["transfer_overhead"],
            "etime": round(cell["etime"], 4),
            "pagein_count": latency.get("count", 0),
            "pagein_p50_ms": latency.get("p50_ms", 0.0),
            "pagein_p95_ms": latency.get("p95_ms", 0.0),
            "pagein_p99_ms": latency.get("p99_ms", 0.0),
            "pagein_mean_ms": latency.get("mean_ms", 0.0),
        }
    ec_mean = record["ec-4-2"]["pagein_mean_ms"]
    mirror_mean = record["mirroring"]["pagein_mean_ms"]
    record["latency_ratio"] = (
        round(ec_mean / mirror_mean, 3) if mirror_mean else 0.0
    )
    return record


# --------------------------------------------------------------------------
# Resilience + determinism gates for the concurrent datapath.
# --------------------------------------------------------------------------

def measure_resilience() -> dict:
    """ec-4-2 campaign verdicts, heavy + correlated, sync + pipelined."""
    record = {}
    for mode, pipelined in (("sync", False), ("pipelined", True)):
        sweep = run_resilience(
            policies=("ec-4-2",),
            levels=("heavy", "correlated"),
            pipelined=pipelined,
        )
        record[mode] = {
            level: cells["ec-4-2"]["extras"]["verdict"]
            for level, cells in sweep.items()
        }
    return record


def measure_compiled_identity() -> dict:
    """One EC run compiled and interpreted: reports must match exactly."""
    from repro.config import MachineSpec
    from repro.core.builder import build_cluster
    from repro.workloads import SequentialScan

    small = MachineSpec(
        name="bench-small",
        ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )
    snapshots = {}
    for compiled in (True, False):
        cluster = build_cluster(
            policy="ec-4-2",
            n_servers=12,
            machine_spec=small,
            content_mode=True,
            seed=3,
            server_capacity_pages=600,
            compile_schedules=compiled,
        )
        report = cluster.run(SequentialScan(n_pages=300, passes=2, write=True))
        snapshots[compiled] = (
            round(report.etime, 9),
            report.faults,
            cluster.metrics.snapshot(),
        )
    return {
        "etime": snapshots[True][0],
        "faults": snapshots[True][1],
        "identical": snapshots[True] == snapshots[False],
    }


# --------------------------------------------------------------------------
# Acceptance checks.
# --------------------------------------------------------------------------

def check_spectrum(spectrum: dict) -> list:
    """PR 8 acceptance claims; returns failure strings (empty = pass)."""
    failures = []
    ec = spectrum["ec-4-2"]
    mirror = spectrum["mirroring"]
    if not ec["transfers"] < mirror["transfers"]:
        failures.append(
            f"ec-4-2 page-equivalent transfers ({ec['transfers']}) not "
            f"below mirroring ({mirror['transfers']})"
        )
    if not (ec["crashes_tolerated"] or 0) >= 2:
        failures.append(
            f"ec-4-2 must tolerate >= 2 crashes, got {ec['crashes_tolerated']}"
        )
    if not (mirror["crashes_tolerated"] or 0) == 1:
        failures.append(
            f"mirroring tolerance changed: {mirror['crashes_tolerated']}"
        )
    return failures


def check_record(record: dict) -> list:
    """The full PR 9 acceptance list; returns failure strings."""
    failures = check_spectrum(record["spectrum"])
    codec = record["codec_ab"]
    if not codec["engines_byte_identical"]:
        failures.append("codec disagrees with the per-byte reference")
    if codec["speedup"] < CODEC_SPEEDUP_FLOOR:
        failures.append(
            f"codec speedup vs per-byte reference = {codec['speedup']}x, "
            f"need >= {CODEC_SPEEDUP_FLOOR}x"
        )
    ratio = record["paper_scale"]["latency_ratio"]
    if not 0 < ratio <= LATENCY_RATIO_CEILING:
        failures.append(
            f"ec-4-2 mean pagein latency is {ratio}x mirroring's, "
            f"need (0, {LATENCY_RATIO_CEILING}]"
        )
    for mode, verdicts in record["resilience"].items():
        for level, verdict in verdicts.items():
            if verdict != "CLEAN":
                failures.append(
                    f"ec-4-2 {mode}/{level} campaign verdict {verdict}, "
                    "need CLEAN"
                )
    if not record["compiled_identity"]["identical"]:
        failures.append("compiled and interpreted EC runs diverged")
    return failures


def run_all() -> dict:
    spectrum = run_spectrum()
    return {
        "spectrum": {
            policy: {
                "transfers": cell["transfers"],
                "transfer_overhead": cell["transfer_overhead"],
                "crashes_tolerated": cell["crashes_tolerated"],
                "etime": round(cell["etime"], 4),
                "n_servers": cell["n_servers"],
            }
            for policy, cell in spectrum.items()
        },
        "codec_ab": measure_codec_ab(),
        "paper_scale": measure_paper_scale(),
        "resilience": measure_resilience(),
        "compiled_identity": measure_compiled_identity(),
    }


# --------------------------------------------------------------------------
# pytest entry point (threshold-free smoke).
# --------------------------------------------------------------------------

def test_erasure_spectrum(benchmark, once):
    record = once(benchmark, run_all)
    print("\n" + json.dumps(
        {key: record[key] for key in ("spectrum", "codec_ab")}, indent=2
    ))
    failures = check_record(record)
    assert not failures, failures


# --------------------------------------------------------------------------
# Script entry point (JSON record + enforced checks).
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="enforce the PR 9 acceptance claims")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="write the JSON record here ('-' = stdout)")
    args = parser.parse_args(argv)

    record = run_all()
    payload = json.dumps(record, indent=2, sort_keys=True)
    if args.out == "-":
        print(payload)
    else:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}")

    if args.check:
        failures = check_record(record)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        codec = record["codec_ab"]
        print(
            "PR 9 acceptance holds: codec "
            f"{codec['speedup']}x vs per-byte reference, "
            f"ec-4-2 pagein latency "
            f"{record['paper_scale']['latency_ratio']}x mirroring, "
            "campaigns CLEAN, compiled == interpreted"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
