#!/usr/bin/env python3
"""Bench trajectory regression guard.

Compares a freshly emitted BENCH_campaign.json against the committed
trajectory (``git show HEAD:BENCH_campaign.json`` by default) and fails
when any tracked metric regresses past the tolerance:

* throughput keys (higher is better) fail below ``1 - tolerance`` of
  the committed value;
* latency / elapsed keys (lower is better) fail above
  ``1 + tolerance`` of the committed value.

Keys that are new in the fresh file are reported but never fail — that
is how a new metric enters the trajectory. A tracked key that
*disappears* fails: benches must not silently stop measuring.

Usage:
    python3 scripts/bench_guard.py [--fresh PATH] [--baseline PATH]
                                   [--tolerance 0.25]
"""

import argparse
import json
import subprocess
import sys

HIGHER_IS_BETTER = (
    "campaign_faults_per_sec",
    "direct_speedup",
    "ingest_mb_per_sec",
    "recover_records_per_sec",
    "scan_rows_per_sec",
    "scan_packed_rows_per_sec",
    "shard_fanout_rows_per_sec",
    "catchup_mb_per_sec",
    "policy_days_per_sec",
)
LOWER_IS_BETTER = (
    "text_path_e2e_seconds",
    "direct_path_e2e_seconds",
    "serve_p99_us",
    "query_mix_cpu_us",
    "serve_cpu_us",
    "live_seal_cpu_us",
    "push_session_cpu_us",
)


def committed_baseline(path):
    out = subprocess.run(
        ["git", "show", f"HEAD:{path}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", default="BENCH_campaign.json")
    ap.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON file; default reads HEAD's copy of --fresh from git",
    )
    ap.add_argument("--tolerance", type=float, default=0.25)
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
    else:
        base = committed_baseline(args.fresh)

    failures = []
    for key in HIGHER_IS_BETTER + LOWER_IS_BETTER:
        if key not in base:
            if key in fresh:
                print(f"  new   {key:28s} {fresh[key]:>14,.1f} (no baseline yet)")
            continue
        if key not in fresh:
            failures.append(f"{key}: present in baseline but missing from fresh run")
            continue
        was, now = float(base[key]), float(fresh[key])
        if was <= 0:
            continue
        ratio = now / was
        if key in HIGHER_IS_BETTER:
            ok = ratio >= 1.0 - args.tolerance
            verdict = "ok" if ok else "REGRESSED"
            print(f"  {verdict:9s} {key:28s} {was:>14,.1f} -> {now:>14,.1f} ({ratio:.2f}x)")
            if not ok:
                failures.append(
                    f"{key}: {now:,.1f} is {ratio:.2f}x the committed {was:,.1f} "
                    f"(floor {1.0 - args.tolerance:.2f}x)"
                )
        else:
            ok = ratio <= 1.0 + args.tolerance
            verdict = "ok" if ok else "REGRESSED"
            print(f"  {verdict:9s} {key:28s} {was:>14,.1f} -> {now:>14,.1f} ({ratio:.2f}x)")
            if not ok:
                failures.append(
                    f"{key}: {now:,.1f} is {ratio:.2f}x the committed {was:,.1f} "
                    f"(ceiling {1.0 + args.tolerance:.2f}x)"
                )

    if failures:
        print("\nbench guard FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
