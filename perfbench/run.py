#!/usr/bin/env python3
"""End-to-end benchmark for hdiff: `hdiff run`, `hdiff campaign`, `hdiff serve`.

    python3 perfbench/run.py --workload oneshot|campaign|serve \
        --seed N --seconds S --trace 0|1

Builds the optimized `bench_e2e` driver and the `hdiff` CLI from source
(perfbench/CMakeLists.txt) into `$CARGO_TARGET_DIR` (default .bench_build),
runs one workload, and turns the driver's raw measurements into named
metrics.  With --trace 0 it reports the end-to-end metrics, with --trace 1
the per-layer ones; the last stdout line is always one JSON object with the
keys correct, attempted, failed and metrics.  The full result (host facts
included), the per-layer JSON and the Chrome trace land in perfbench/out/.

Workload and metric names, units and the measuring window come from
BENCHMARK.json at the repository root.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

# Largest share by which the traced phases may miss the wall they split.
RECONCILE_TOLERANCE = 0.05

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---- statistics ---------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(samples):
    """The highest percentile that has at least ten samples beyond it.

    Returns (value, percentile, count).  With n sorted samples, rank k
    (0-based) has n-1-k samples beyond it, so the answer is rank n-11 at
    nearest-rank percentile 100*(n-10)/n.  Below 21 samples that rank falls
    under the median, so the rule falls back to the maximum (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 21:
        return float(xs[-1]), 100.0, n
    return float(xs[n - 11]), 100.0 * (n - 10) / n, n


def reconcile_gap(parts, wall):
    """Share by which the sum of a wall's phases misses the wall."""
    if wall <= 0:
        return 0.0
    return abs(sum(parts) - wall) / wall


def self_times(events):
    """Self time per span name: a span's duration minus its direct children.

    `events` are Chrome trace 'X' events; nesting is per (pid, tid) lane by
    start time, and a child's cover is clipped to its parent's end.
    """
    lanes = {}
    for ev in events:
        if ev.get("ph") == "X":
            lanes.setdefault((ev.get("pid"), ev.get("tid")), []).append(ev)
    totals = {}
    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, covered by children, dur]

        def close(frame):
            name, dur, covered = frame[1], frame[3], frame[2]
            totals[name] = totals.get(name, 0.0) + max(0.0, dur - covered)

        for ev in lane:
            ts, dur = ev["ts"], ev["dur"]
            while stack and ts >= stack[-1][0]:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[2] += min(ts + dur, parent[0]) - ts
            stack.append([ts + dur, ev["name"], 0.0, dur])
        while stack:
            close(stack.pop())
    return totals


# ---- build and run ------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build bench_e2e + hdiff, optimized."""
    bdir = build_dir()
    log = bdir.parent / "perfbench-build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        if not (bdir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise RuntimeError(f"configure failed, see {log}")
        cmd = ["cmake", "--build", str(bdir), "--target", "bench_e2e", "hdiff",
               "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            raise RuntimeError(f"build failed, see {log}")
    return bdir / "bench_e2e", bdir / "hdiff_tools" / "hdiff"


def run_driver(bench, hdiff, workload, seed, seconds, trace, tiny=False):
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(bench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out-dir", str(OUT), "--hdiff", str(hdiff)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench_e2e exited {proc.returncode} with no output")
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".txt", ".py"):
                if OUT in path.parents:
                    continue
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


# ---- metrics ------------------------------------------------------------

def end_to_end(raw):
    work = raw["work_us"]
    units = raw["unit_us"]
    tail_value, _, _ = tail(units)
    return {
        "setup_s": median(raw["setup_us"]) / 1e6,
        "wall_s": median(work) / 1e6,
        "cases_per_s": raw["cases"] / (sum(work) / 1e6),
        "findings": float(raw["findings"][0]) if raw["findings"] else 0.0,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "unit_p50_ms": median(units) / 1e3,
        "unit_tail_ms": tail_value / 1e3,
    }


def failures(raw):
    """Correctness-check failures plus quarantined cases, and cases tried."""
    failed = len(raw["check_failures"]) + raw["quarantined"]
    if len(raw["findings"]) != 1:
        failed += 1
    return failed, max(1, raw["cases"])


def _hist(t, name):
    h = t.get("hist", {}).get(name) or {}
    return {k: float(h.get(k, 0)) for k in ("count", "sum", "p50", "p99")}


def _share(num, den):
    return num / den if den else 0.0


def _stage_ms(stages, names):
    return median([sum(s.get(n, 0) for n in names) for s in stages]) / 1e3


def _trace_events(trace_file):
    if not trace_file:
        return []
    doc = json.loads(Path(trace_file).read_text())
    return doc["traceEvents"] if isinstance(doc, dict) else doc


def _lanes(events):
    """Worker lanes of a stitched serve trace (every pid but the local one):
    extent, executed cases, shard-round tag and execute_round time."""
    lanes = {}
    for ev in events:
        if ev.get("ph") != "X" or ev.get("pid") == 1:
            continue
        lane = lanes.setdefault(ev["pid"], {"lo": ev["ts"], "hi": 0, "cases": 0,
                                            "tag": "", "execute_us": 0})
        lane["lo"] = min(lane["lo"], ev["ts"])
        lane["hi"] = max(lane["hi"], ev["ts"] + ev["dur"])
        if ev["name"] == "case":
            lane["cases"] += 1
        elif ev["name"] == "worker:execute_round":
            lane["tag"] = (ev.get("args") or {}).get("shard", "")
            lane["execute_us"] += ev["dur"]
    return list(lanes.values())


def per_layer(raw, workload):
    t = raw.get("traced", {})
    pairs = t.get("pairs", [])
    n_units = max(1, len(pairs))
    case, observe = _hist(t, "case"), _hist(t, "observe")
    stream = _hist(t, "stream")
    events = _trace_events(t.get("trace_file"))
    m = {metric["name"]: 0.0 for metric in BENCH["per_layer"]}

    m["trace_overhead"] = _share(median([p["traced_us"] for p in pairs]),
                                 median([p["untraced_us"] for p in pairs])) - 1
    failed, attempted = failures(raw)
    m["failed_share"] = failed / attempted

    stages = t.get("stages", [])
    m["core.analyze_ms"] = _stage_ms(stages, ["analyze"])
    m["core.generate_ms"] = _stage_ms(
        stages, ["translate-srs", "generate-abnf", "assemble-cases"])
    m["core.case_us_p50"], m["core.case_us_p99"] = case["p50"], case["p99"]
    m["net.observe_us_p50"] = observe["p50"]
    m["net.observe_us_p99"] = observe["p99"]
    for hop in ("forward", "replay", "direct"):
        m[f"net.{hop}_ms"] = _hist(t, hop)["sum"] / 1e3 / n_units
    m["core.detect_ms"] = (case["sum"] - observe["sum"]) / 1e3 / n_units
    for layer, kind in (("core", "memo"), ("net", "verdict")):
        hits, misses = t.get(f"{kind}_hits", 0), t.get(f"{kind}_misses", 0)
        m[f"{layer}.{kind}_hit_rate"] = _share(hits, hits + misses)
        m[f"{layer}.{kind}_hits"] = hits / n_units
        m[f"{layer}.{kind}_misses"] = misses / n_units
    jobs = t.get("jobs", 1)
    layers = {}
    gaps = []

    if workload == "oneshot":
        diff_us = [s.get("differential", 0) for s in stages]
        m["core.differential_ms"] = median(diff_us) / 1e3
        m["core.executor_busy_share"] = _share(case["sum"], jobs * sum(diff_us))
        gaps = [reconcile_gap(list(s.values()), p["traced_us"])
                for s, p in zip(stages, pairs)]

    elif workload == "campaign":
        rounds = t.get("rounds", [])
        by_unit = {}
        for r in rounds:
            by_unit.setdefault(r["unit"], []).append(r)

        def per_unit(key):
            return median([sum(r[key] for r in rs) for rs in by_unit.values()])

        def last(key):
            return median([rs[-1][key] for rs in by_unit.values()])

        m["core.differential_ms"] = per_unit("execute_us") / 1e3
        m["core.executor_busy_share"] = _share(
            case["sum"], jobs * sum(r["execute_us"] for r in rounds))
        plan = [r["plan_us"] for r in rounds]
        commit_us = [r["commit_us"] for r in rounds]
        m["campaign.plan_ms"] = per_unit("plan_us") / 1e3
        m["campaign.plan_ms_p50"] = median(plan) / 1e3
        m["campaign.plan_ms_tail"] = tail(plan)[0] / 1e3
        m["campaign.corpus_entries"] = last("corpus_entries")
        m["campaign.execute_ms"] = per_unit("execute_us") / 1e3
        m["campaign.integrate_ms"] = per_unit("integrate_us") / 1e3
        m["campaign.minimize_steps"] = per_unit("minimize_steps")
        m["campaign.commit_ms_p50"] = median(commit_us) / 1e3
        m["campaign.commit_ms_tail"] = tail(commit_us)[0] / 1e3
        m["campaign.state_bytes"] = last("state_bytes")
        novel = sum(r["novel"] for r in rounds)
        m["campaign.novel_share"] = _share(
            novel, novel + sum(r["duplicate"] for r in rounds))
        m["stream.observe_us_p50"] = stream["p50"]
        m["stream.observe_us_p99"] = stream["p99"]
        m["stream.cases"] = per_unit("stream_cases")
        m["stream.execute_share"] = _share(
            stream["sum"], sum(r["round_us"] for r in rounds))
        # A run's open, its rounds' four phases and its close, against the
        # wall measured around the hook-driven run.
        gaps = [reconcile_gap([r[k] for r in rs for k in (
            "open_us", "plan_us", "execute_us", "integrate_us", "commit_us",
            "close_us")],
            pairs[u]["traced_us"]) for u, rs in by_unit.items()]
        layers["rounds"] = rounds

    elif workload == "serve":
        rounds = t.get("serve_rounds", [])
        m["serve.plan_gap_ms"] = median([r["gap_us"] for r in rounds]) / 1e3
        m["serve.shard_phase_ms"] = median([r["shard_us"] for r in rounds]) / 1e3
        # A run's committed rounds (flight-log clock) against the wall
        # measured around Supervisor::run.
        by_unit = {}
        for r in rounds:
            by_unit.setdefault(r["unit"], []).append(r["round_us"])
        gaps = [reconcile_gap(us, pairs[u]["traced_us"])
                for u, us in by_unit.items()]
        m["serve.worker_spawns"] = t.get("worker_spawns", 0) / n_units
        m["serve.worker_deaths"] = t.get("worker_deaths", 0) / n_units
        m["serve.heartbeats"] = t.get("heartbeats", 0) / n_units
        lanes = _lanes(events)
        extents = [ln["hi"] - ln["lo"] for ln in lanes]
        m["serve.worker_ms_p50"] = median(extents) / 1e3
        m["serve.worker_ms_tail"] = tail(extents)[0] / 1e3
        per_round = {}
        for ln in lanes:  # tag: "<shard>/<shards> round <r>"
            per_round.setdefault(ln["tag"].split("round")[-1], []).append(
                ln["cases"])
        m["serve.shard_imbalance"] = median([
            _share(max(c), statistics.mean(c)) for c in per_round.values()
            if sum(c) > 0])
        execute_us = sum(ln["execute_us"] for ln in lanes)
        m["core.differential_ms"] = execute_us / 1e3
        m["core.executor_busy_share"] = _share(case["sum"] / n_units,
                                               jobs * execute_us)
        layers["serve_rounds"] = rounds

    m["bench.reconcile_gap"] = max(gaps) if gaps else 0.0
    layers["reconcile_ok"] = m["bench.reconcile_gap"] <= RECONCILE_TOLERANCE
    if events:
        selfs = self_times(events)
        layers["self_ms"] = {k: round(v / 1e3, 3) for k, v in sorted(
            selfs.items(), key=lambda kv: -kv[1])}
        layers["trace_file"] = t["trace_file"]
    return m, layers


# ---- main ---------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="test-sized workloads (perfbench/test_perfbench.py)")
    args = ap.parse_args(argv)

    if not (ROOT / "src").is_dir() or not (ROOT / "tools" / "hdiff_cli.cpp").is_file():
        print("run.py: hdiff sources (src/, tools/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    try:
        bench, hdiff = build()
        raw = run_driver(bench, hdiff, args.workload, args.seed, args.seconds,
                         args.trace, args.tiny)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    host = dict(raw["host"], commit=commit(), source_digest=source_digest())
    if not host["optimized"] or host["sanitized"]:
        print("run.py: refusing to record a result from a debug or sanitized "
              f"build ({host})", file=sys.stderr)
        return 3

    failed, attempted = failures(raw)
    correct = failed == 0
    layers = {}
    if args.trace:
        metrics, layers = per_layer(raw, args.workload)
        correct = correct and layers["reconcile_ok"]
    else:
        metrics = end_to_end(raw)

    stem = f"{args.workload}_trace{args.trace}"
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    tail_us, tail_percentile, tail_count = tail(raw["unit_us"])
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, host=host,
                  check_failures=raw["check_failures"],
                  work_units=len(raw["work_us"]),
                  unit_tail={"value_ms": tail_us / 1e3,
                             "percentile": tail_percentile,
                             "count": tail_count})
    (OUT / f"result_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        layers["metrics"] = metrics
        (OUT / f"layers_{args.workload}.json").write_text(
            json.dumps(layers, indent=1) + "\n")

    for name, v in metrics.items():
        print(f"{args.workload:9s} {name:28s} {v:14.4f} {UNITS[name]}")
    for failure in raw["check_failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
