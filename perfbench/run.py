"""latticelab benchmark: scripted CLI sessions timed end to end, or traced.

Run from a checkout of the repository (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload ladder-1d --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable table with the environment record.  ``--smoke`` runs every op
once on small inputs, for the benchmark's own tests.

Inputs are generated from ``--seed`` under ``.perfbench_work/<workload>/``
in the checkout, and every report the sessions write goes there too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREADS_ENV = "LATTICELAB_THREADS"

#: fresh interpreters timed for setup_s, after one untimed warm-up that
#: leaves the bytecode cache behind
SETUP_PROBES = 7
#: every untraced run has at least this many sessions; the tail percentile
#: is the highest with ten ops beyond it in a run this long
TAIL_SESSIONS = 4
#: the whole invocation must end within this many seconds
DEADLINE_S = 175

OP_KINDS = ("generate", "check", "verify", "witness", "metric", "envelope")

PER_LAYER = (
    ("metric.calls", "count"), ("metric.self_ms", "ms"), ("metric.pairs", "count"),
    ("envelopes.rungs", "count"), ("envelopes.self_ms", "ms"),
    ("envelopes.pairs", "count"),
    ("counterexamples.self_ms", "ms"),
    ("core.elements_built", "count"), ("core.tails_built", "count"),
    ("core.self_ms", "ms"),
    ("convergence.self_ms", "ms"), ("convergence.members_read", "count"),
    ("convergence.family_init_ms", "ms"), ("convergence.uniform_pairs", "count"),
    ("serialize.self_ms", "ms"), ("serialize.load_ms", "ms"), ("serialize.write_ms", "ms"),
    ("serialize.bytes_read", "bytes"), ("serialize.bytes_written", "bytes"),
    ("witnesses.self_ms", "ms"),
    ("numerics.self_ms", "ms"), ("numerics.power_sum_direct", "count"),
    ("numerics.power_sum_closed", "count"),
    ("cli.self_ms", "ms"),
    ("trace.session_s", "s"), ("trace.outside_ms", "ms"), ("trace.spans", "count"),
    ("trace.peak_alloc_mb", "MB"), ("trace.overhead_s", "s"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop(THREADS_ENV, None)  # serial: the thread pool stays off
    return env


def _setup_times(env, probes: int) -> list:
    """Seconds from spawning a fresh interpreter to ``import latticelab.cli``
    done; perf_counter is system-wide monotonic, so the child's reading is
    comparable with the parent's."""
    code = "import time, latticelab.cli; print(time.perf_counter_ns())"
    times = []
    for i in range(probes + 1):
        t0 = perf_counter_ns()
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            times.append((int(done.stdout.strip()) - t0) / 1e9)
    return times


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unavailable"


def _environment(args) -> dict:
    import mpmath
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "git_sha": _git_sha(),
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
    }


def _tail(op_ms: list, sessions: int):
    """Latency at the highest percentile with at least ten op runs beyond it
    in a run of TAIL_SESSIONS sessions.  ``op_ms`` holds each op of the
    script once, and each stands for its ``sessions`` runs.  The percentile
    is fixed by the session script, not by the run's op count, so it lands
    on the same op of the script however many sessions fit."""
    p = max(0.0, 1.0 - 10 / (TAIL_SESSIONS * len(op_ms)))
    ordered = sorted(v for v in op_ms for _ in range(sessions))
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)], 100.0 * p, len(ordered)


def _end_to_end(res, ops, setup) -> tuple[dict, list]:
    sessions = res["plain"]
    # the host alternates between fast and slow spells a few seconds long,
    # so the runs of one op are bimodal and a median of a few of them jumps
    # between the modes; sessions and ops are timed by their means instead
    per_op = [statistics.fmean(s["op_ms"][i] for s in sessions) for i in range(len(ops))]
    tail, pct, tail_n = _tail(per_op, len(sessions))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "session_s": (statistics.fmean(s["session_s"] for s in sessions), "s"),
        "op_median_ms": (statistics.median(per_op), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (res["rss_kb"] / 1024.0, "MB"),
    }
    notes = [f"sessions: {len(sessions)}, ops: {tail_n} ({len(ops)} per session)",
             f"op_median_ms, op_tail_ms: over the {len(ops)} ops of the script, "
             f"each timed by its mean over the {len(sessions)} sessions",
             f"op_tail_ms: p{pct:.2f} of {tail_n} op runs"]
    for kind in OP_KINDS:
        lat = [s["op_ms"][i] for s in sessions for i, op in enumerate(ops)
               if op["kind"] == kind]
        if lat:
            notes.append(f"{kind}_ms: {statistics.median(lat):.3f} ms (median of {len(lat)})")
    return metrics, notes


def _per_layer(res) -> tuple[dict, list]:
    sums = res["summaries"]
    med = statistics.median

    def self_ms(layer):
        return med(s["self_ms"].get(layer, 0.0) for s in sums)

    first = sums[0]
    counts, entries = first["counts"], first["entries"]
    traced = med(s["session_s"] for s in res["traced"])
    plain = med(s["session_s"] for s in res["plain"])
    values = {
        "metric.calls": entries.get("metric", 0),
        "trace.session_s": traced,
        "trace.outside_ms": med(t["session_s"] * 1e3 - s["root_ms"]
                                for t, s in zip(res["traced"], sums)),
        "trace.spans": first["spans"],
        "trace.peak_alloc_mb": res["peak_alloc_bytes"] / 2**20,
        "trace.overhead_s": traced - plain,
    }
    for name, unit in PER_LAYER:
        layer, _, what = name.partition(".")
        if name in values:
            continue
        if what == "self_ms":
            values[name] = self_ms(layer)
        elif name in first["inclusive_ms"]:
            values[name] = med(s["inclusive_ms"][name] for s in sums)
        else:
            values[name] = counts[name]
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    layers = sorted({k for s in sums for k in s["self_ms"]})
    notes = [f"traced sessions: {len(sums)}, untraced: {len(res['plain'])}, "
             f"untraced session_s: {plain:.4f} s",
             "self ms by layer: " + ", ".join(f"{k} {self_ms(k):.1f}" for k in layers)]
    for t, s in zip(res["traced"], sums):
        notes.append(f"{t['label']}: layer self times {sum(s['self_ms'].values()):.1f} ms "
                     f"+ outside any span {t['session_s'] * 1e3 - s['root_ms']:.1f} ms "
                     f"= session {t['session_s'] * 1e3:.1f} ms")
    notes.append("inclusive ms by span (" + sums[-1]["label"] + "): " + ", ".join(
        f"{k} {v:.1f}" for k, v in sums[-1]["top_spans_ms"].items()))
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one session (two traced); for tests")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "latticelab", "cli.py")):
        print(f"error: no latticelab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    env = _child_env()
    record = _environment(args)
    setup = [] if args.trace else _setup_times(env, 2 if args.smoke else SETUP_PROBES)
    t0 = time.monotonic()
    ops = [vars(op) for op in workloads.prepare(
        args.workload, args.seed, os.path.join(work, "inputs"),
        os.path.join(work, "out"), smoke=args.smoke)]
    record["inputs_s"] = round(time.monotonic() - t0, 3)
    plan = {"ops": ops, "out_root": os.path.join(work, "out"), "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "min_sessions": TAIL_SESSIONS,
            "result": os.path.join(work, "result.json"),
            "spans": os.path.join(work, "spans.bin")}
    with open(os.path.join(work, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    budget = DEADLINE_S - (time.monotonic() - started)
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        os.path.join(work, "plan.json")], env=env, timeout=budget, check=True)
    except subprocess.TimeoutExpired:
        print(f"error: the sessions did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    with open(plan["result"], encoding="utf-8") as fh:
        res = json.load(fh)
    record["worker_thread_count"] = res["thread_count"]

    if args.trace:
        metrics, notes = _per_layer(res)
    else:
        metrics, notes = _end_to_end(res, ops, setup)
    sessions = len(res["plain"]) + len(res["traced"]) + (1 if args.trace else 0)
    attempted = sessions * len(ops)
    failed = len(res["failures"])
    mismatch = res.get("count_mismatch", [])

    print(f"latticelab benchmark - workload {args.workload}")
    for key, val in record.items():
        print(f"  env {key}: {val}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.4f} {unit}")
    for line in notes:
        print(f"  {line}")
    print(f"  fail_ratio: {failed / attempted:.4f} ({failed} of {attempted} ops)")
    for f in res["failures"][:20]:
        print(f"  FAILED {f['session']} op {f['op']}: {f['argv']}: {f['why']}", file=sys.stderr)
    for m in mismatch[:20]:
        print(f"  COUNT NOT STABLE: {m}", file=sys.stderr)
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": record, "notes": notes, "failures": res["failures"],
                   "count_mismatch": mismatch,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    correct = failed == 0 and not mismatch
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
