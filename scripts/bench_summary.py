#!/usr/bin/env python3
"""Merge BENCH_*.json artifacts into one markdown trajectory table.

Every bench in this repository emits a machine-readable JSON file
(BENCH_kernels.json, BENCH_server.json, ...). Each file follows the same
loose shape: top-level scalars describing the workload, plus one or more
arrays of flat objects (the measurement arms). This tool
renders them all into a single report so the CI "Show bench results" step
(and anyone comparing artifacts across PRs) reads one table instead of raw
JSON:

  * a headline table — one row per bench file with its throughput-style
    metrics (any numeric field matching *_per_s / *speedup* / *_ms), so the
    perf trajectory of the repo is visible at a glance;
  * per-bench sections — the top-level scalars, then each measurement
    array as a markdown table.

Usage: bench_summary.py [BENCH_a.json ...]   (default: BENCH_*.json in cwd)
Exits non-zero if any named file is missing or unparsable; a run with no
bench files at all is an error too (the step exists so the trajectory
cannot silently go empty).
"""

import json
import sys
from pathlib import Path

# gflops covers the kernel microbench's per-arm throughput columns
# (gflops_baseline_1t / gflops_kernel_*), so the packed-GEMM and
# fused-attention arms land in the headline table alongside their
# same-thread-count speedups and their own thread scaling. _gbps covers the
# effective stream bandwidth columns: weight_bytes / kernel time for the
# packed-GEMM arms, kv_bytes / kernel time for the fused-attention arms.
HEADLINE_MARKERS = ("_per_s", "speedup", "scaling", "_ms", "_rps", "_tps",
                    "gflops", "_gbps")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def fmt(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def arm_label(arm):
    """A human row label from an arm's non-numeric fields (name, class...)."""
    parts = []
    for key, value in arm.items():
        if not is_number(value):
            parts.append(f"{key}={value}")
        elif key in ("threads", "intensity_rel", "batch_size", "replicas"):
            parts.append(f"{key}={fmt(value)}")
    return ", ".join(parts) if parts else "-"


def headline_rows(name, data):
    """(bench, arm, metric, value) rows for throughput-style numbers."""
    rows = []
    arrays = {k: v for k, v in data.items()
              if isinstance(v, list) and v and all(
                  isinstance(e, dict) for e in v)}
    for arr in arrays.values():
        for arm in arr:
            for key, value in arm.items():
                if is_number(value) and any(
                        m in key for m in HEADLINE_MARKERS):
                    rows.append((name, arm_label(arm), key, fmt(value)))
    for key, value in data.items():
        if is_number(value) and any(m in key for m in HEADLINE_MARKERS):
            rows.append((name, "-", key, fmt(value)))
    return rows


def placement_rows(name, data):
    """(bench, placement, replicas, speedup) rows: best goodput_speedup per
    placement policy, so shared vs partitioned scaling is one glance. Arms
    from bench files that predate the placement field group under "-"."""
    best = {}
    for value in data.values():
        if not (isinstance(value, list) and value
                and all(isinstance(e, dict) for e in value)):
            continue
        for arm in value:
            speedup = arm.get("goodput_speedup")
            if not is_number(speedup):
                continue
            placement = arm.get("placement", "-")
            prev = best.get(placement)
            if prev is None or speedup > prev[0]:
                best[placement] = (speedup, arm.get("replicas", "-"))
    return [(name, placement, fmt(replicas), fmt(speedup))
            for placement, (speedup, replicas) in sorted(best.items())]


def pct(value):
    return f"{100 * value:.1f}%" if is_number(value) else "-"


def isa_tier_rows(name, data):
    """(bench, kernel, isa, baseline, GFLOP/s 1t (spread), speedup_1t,
    speedup_mt, scaling_mt) rows for the kernel arms measured per ISA tier,
    so one glance shows what each tier buys. Arms without an isa field
    (tier-independent kernels, older artifacts) are skipped."""
    rows = []
    for arm in data.get("kernels", []):
        if not isinstance(arm, dict) or arm.get("isa", "-") == "-":
            continue
        gflops = arm.get("gflops_kernel_1t")
        rows.append((name, str(arm.get("name", "-")), str(arm["isa"]),
                     str(arm.get("baseline", "-")),
                     f"{fmt(gflops)} (±{pct(arm.get('spread_kernel_1t'))})",
                     fmt(arm.get("speedup_1t", "-")),
                     fmt(arm.get("speedup_mt", "-")),
                     fmt(arm.get("scaling_mt", "-"))))
    return rows


def epilogue_rows(name, data):
    """(bench, kernel, isa, cost_1t, cost_mt) rows for the fused-epilogue
    arms (gemm_packed_gelu_*): the fused GEMM's time as a multiple of the
    plain packed GEMM's on the same shape and tier (1 / speedup), so 1.0x
    means the epilogue is free and the old libm GELU showed ~4x."""
    rows = []
    for arm in data.get("kernels", []):
        if not (isinstance(arm, dict) and
                str(arm.get("name", "")).startswith("gemm_packed_gelu_")):
            continue
        costs = []
        for key in ("speedup_1t", "speedup_mt"):
            value = arm.get(key)
            costs.append(f"{1 / value:.2f}x" if is_number(value) and value
                         else "-")
        rows.append((name, str(arm["name"]), str(arm.get("isa", "-")),
                     *costs))
    return rows


def render(files):
    benches = []
    for path in files:
        with path.open(encoding="utf-8") as fh:
            benches.append((path.name, json.load(fh)))

    out = ["# Bench trajectory", ""]
    headline = []
    for name, data in benches:
        headline += headline_rows(name, data)
    if headline:
        out.append(table(("bench", "arm", "metric", "value"),
                         [list(r) for r in headline]))
        out.append("")

    placement = []
    for name, data in benches:
        placement += placement_rows(name, data)
    if placement:
        out.append("## Replica scaling by placement (best goodput_speedup)")
        out.append("")
        out.append(table(("bench", "placement", "replicas", "speedup"),
                         [list(r) for r in placement]))
        out.append("")

    tiers = []
    for name, data in benches:
        tiers += isa_tier_rows(name, data)
    if tiers:
        out.append("## Kernel arms by ISA tier (min of N runs, spread = "
                   "(max - min) / min)")
        out.append("")
        out.append(table(("bench", "kernel", "isa", "baseline",
                          "GFLOP/s 1t", "speedup_1t", "speedup_mt",
                          "scaling_mt"), [list(r) for r in tiers]))
        out.append("")

    epilogues = []
    for name, data in benches:
        epilogues += epilogue_rows(name, data)
    if epilogues:
        out.append("## Fused GEMM epilogue cost (fused time / plain packed "
                   "GEMM time)")
        out.append("")
        out.append(table(("bench", "kernel", "isa", "cost 1t", "cost mt"),
                         [list(r) for r in epilogues]))
        out.append("")

    for name, data in benches:
        out.append(f"## {name}")
        out.append("")
        scalars = [(k, fmt(v)) for k, v in data.items()
                   if not isinstance(v, (list, dict))]
        if scalars:
            out.append(table(("field", "value"), [list(s) for s in scalars]))
            out.append("")
        for key, value in data.items():
            if (isinstance(value, list) and value
                    and all(isinstance(e, dict) for e in value)):
                cols = []
                for entry in value:
                    for col in entry:
                        if col not in cols:
                            cols.append(col)
                rows = [[fmt(entry.get(c, "")) for c in cols]
                        for entry in value]
                out.append(f"### {key}")
                out.append("")
                out.append(table(cols, rows))
                out.append("")
    return "\n".join(out)


def main(argv):
    if len(argv) > 1:
        files = [Path(a) for a in argv[1:]]
        missing = [f for f in files if not f.exists()]
        if missing:
            for f in missing:
                print(f"error: no such bench artifact: {f}", file=sys.stderr)
            return 1
    else:
        files = sorted(Path.cwd().glob("BENCH_*.json"))
    if not files:
        print("error: no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    try:
        print(render(files))
    except (json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
