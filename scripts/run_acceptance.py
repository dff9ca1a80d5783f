"""Run the acceptance gate (or the full suite) and optionally keep a transcript."""

import argparse
import os
import pathlib
import subprocess
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="run the entire test suite, not just the gate")
    ap.add_argument("--log", default=None, help="optional transcript path")
    args = ap.parse_args(argv)

    root = pathlib.Path(__file__).resolve().parents[1]
    target = "tests" if args.full else "tests/test_acceptance.py"
    # the package is imported from src/ of this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", target],
        cwd=root, env=env, capture_output=True, text=True,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if args.log:
        pathlib.Path(args.log).write_text(proc.stdout + proc.stderr)
    return proc.returncode


if __name__ == "__main__":
    raise SystemExit(main())
