#!/usr/bin/env python3
"""Build and run the si-mc benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_table1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10      # every workload, one table

The first call configures and builds `perfbench/` (the library from
`src/` plus the `si_bench` harness) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset. Build output goes to stderr. For a
single workload the last stdout line is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is the
provenance report (commit, nproc, pool width, compiler, build type, seed,
op count, run length, verdict breakdown). The exit status is non-zero when
the build fails, the harness fails, or any verdict contradicts its known
answer.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["paper_table1", "gen_csc", "wide_explicit"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-run limit on the harness itself; the build before it has its own.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds incrementally. Returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "si_bench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "si_bench")


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(binary, workload, seed, seconds, trace, extra):
    """Runs the harness once; returns (exit code, report dict, result dict)."""
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit_id(),
           "--spans", os.path.join(spans_dir, "%s.seed%s.jsonl" % (workload, seed))] + extra
    env = dict(os.environ, SI_OBS="off")
    for var in ("SI_OBS_LIVE", "SI_OBS_FLIGHT", "SI_OBS_WALL"):
        env.pop(var, None)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit("perfbench: harness failed on %s (exit %d)" % (workload, r.returncode))
    return r.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--draw-seed", type=int, choices=(12, 20),
                    help="gen_csc draw (default 12; 20 is the held-out draw)")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    extra = [] if args.draw_seed is None else ["--draw-seed", str(args.draw_seed)]

    binary = build()
    if not args.all:
        code, report, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                            args.trace, extra)
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return code

    worst = 0
    for w in WORKLOADS:
        code, report, result = run_workload(binary, w, args.seed, args.seconds, args.trace, extra)
        worst = max(worst, code)
        print("== %s  seed=%s ops=%d passes=%d pool=%d nproc=%d %s %s commit=%s" % (
            w, report["seed"], report["ops"], report["passes"], report["pool_width"],
            report["nproc"], report["compiler"], report["build_type"], report["commit"][:12]))
        print("   verdicts: implemented=%d impossible=%d mc_decided=%d unknown=%d wrong=%d"
              "  unknown_ratio=%.4g failed_ratio=%.4g correct=%s" % (
                  report["implemented"], report["impossible"], report["mc_decided"],
                  report["unknown"], report["wrong"], report["unknown_ratio"],
                  report["failed_ratio"], result["correct"]))
        if "tail_percentile" in report:
            print("   tail percentile: p%.1f of %d samples; netlist literals per pass: %g" % (
                report["tail_percentile"], report["latency_samples"],
                report["netlist_literals_per_pass"]))
        for name, m in result["metrics"].items():
            print("   %-40s %14.6g %s" % (name, m["value"], m["unit"]))
        for d in report["wrong_details"]:
            print("   WRONG: " + d)
    return worst


if __name__ == "__main__":
    sys.exit(main())
