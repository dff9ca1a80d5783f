"""Run one workload's scripted sessions in a single process and record them.

Usage: ``python3 worker.py PLAN.json`` (``run.py`` writes the plan).  One
process issues ``latticelab.cli.main(argv)`` calls one after another, with
no threads: a closed loop with one caller, as a user or shell script
drives the CLI.  Each op is timed with ``perf_counter_ns``; after each
session the worker checks every op's exit code, printed verdict and the
SHA-256 of the files it wrote against the first session of this process.

Untraced mode runs at least ``min_sessions`` sessions, and more while
another one fits in the plan's seconds.  Traced mode alternates an untraced
and a traced session while another traced one fits (at least two), then
runs one session under ``tracemalloc`` alone for the peak allocation.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, perf_counter_ns

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import COUNT_KEYS, Tracer  # noqa: E402


def _digests(out_dir: str) -> dict:
    found = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def _out_dir(argv) -> str:
    return argv[list(argv).index("--out") + 1]


class Sessions:
    def __init__(self, cli, ops, out_root):
        self.cli = cli
        self.ops = ops
        self.out_root = out_root
        self.reference = None  # per-op digests of the first session
        self.failures = []

    def run(self, label: str) -> dict:
        """One full session; returns its wall time and per-op latencies."""
        shutil.rmtree(self.out_root, ignore_errors=True)
        lat_ns, outcomes = [], []
        start = perf_counter_ns()
        for op in self.ops:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter_ns()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = self.cli.main(list(op["argv"]))
                escaped = None
            except (Exception, SystemExit) as exc:  # an escape is a failed op
                rc, escaped = None, repr(exc)
            lat_ns.append(perf_counter_ns() - t0)
            outcomes.append((rc, escaped, out.getvalue() + err.getvalue()))
        session_ns = perf_counter_ns() - start
        digests = [_digests(_out_dir(op["argv"])) for op in self.ops]
        if self.reference is None:
            self.reference = digests
        for i, (op, (rc, escaped, text)) in enumerate(zip(self.ops, outcomes)):
            if escaped is not None:
                why = f"exception escaped main: {escaped}"
            elif rc != op["expect_rc"]:
                why = f"exit {rc}, expected {op['expect_rc']}: {text.strip()[-200:]}"
            elif op["expect"] not in text:
                why = f"output lacks {op['expect']!r}: {text.strip()[-200:]}"
            elif digests[i] != self.reference[i]:
                why = "report bytes differ from the first session"
            else:
                continue
            self.failures.append({"session": label, "op": i,
                                  "argv": " ".join(op["argv"]), "why": why})
        return {"label": label, "session_s": session_ns / 1e9,
                "op_ms": [v / 1e6 for v in lat_ns]}


def _counts(summary: dict) -> dict:
    """Everything in a span summary that must repeat exactly."""
    keyed = {f"counts.{k}": summary["counts"][k] for k in COUNT_KEYS}
    keyed.update({f"entries.{k}": v for k, v in summary["entries"].items()})
    keyed["spans"] = summary["spans"]
    return keyed


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from latticelab import cli
    from latticelab.config import thread_count

    runner = Sessions(cli, plan["ops"], plan["out_root"])
    seconds, smoke = plan["seconds"], plan["smoke"]
    result = {"plain": [], "traced": [], "summaries": []}
    begin = perf_counter()

    plain, traced = result["plain"], result["traced"]

    def fits(*kinds) -> bool:
        """Whether one more session of each kind, at its median length so
        far, ends within the run."""
        usual = sum(statistics.median(s["session_s"] for s in kind) for kind in kinds)
        return not smoke and perf_counter() - begin + usual <= seconds

    if not plan["trace"]:
        while len(plain) < plan["min_sessions"] or fits(plain):
            plain.append(runner.run(f"plain-{len(plain)}"))
            if smoke:
                break
    else:
        tracer = Tracer()
        while len(traced) < 2 or fits(plain, traced):
            plain.append(runner.run(f"plain-{len(plain)}"))
            tracer.reset()
            tracer.install()
            try:
                traced.append(runner.run(f"traced-{len(traced)}"))
            finally:
                tracer.uninstall()
            result["summaries"].append(dict(tracer.summary(), label=traced[-1]["label"]))
        tracer.write_spans(plan["spans"])
        first = _counts(result["summaries"][0])
        result["count_mismatch"] = [
            {"session": i, "key": k, "first": first.get(k), "got": v}
            for i, s in enumerate(result["summaries"][1:], start=1)
            for k, v in sorted(_counts(s).items()) if first.get(k) != v
        ]
        tracemalloc.start()
        try:
            runner.run("tracemalloc")
            result["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    result["failures"] = runner.failures
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["thread_count"] = thread_count()
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
