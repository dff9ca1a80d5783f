"""Tabulate how the modulus counterexample blows up across refinement levels.

Builds a refining family of finite metric spaces, extracts the sqrt-modulus
counterexample on the deepest level, and prints the per-level Lipschitz
constants together with the fitted log-log exponents against the refinement
scale and the pairwise discreteness constant.
"""

import argparse
import pathlib
import sys

# the package is imported from src/ of this checkout, installed or not
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from latticelab.counterexamples import (  # noqa: E402
    build_refinement,
    lip_counterexample,
    verify_escape,
)
from latticelab.serialize import write_csv  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", default="100,1000,10000",
                    help="comma-separated refinement levels")
    ap.add_argument("--kind", default="accumulation",
                    choices=["accumulation", "pairs"])
    ap.add_argument("--n-max", type=int, default=20,
                    help="deepest envelope rung in the attached ladder")
    ap.add_argument("--csv", default=None,
                    help="optional path for the level trend table")
    args = ap.parse_args(argv)

    levels = [int(v) for v in args.levels.split(",") if v.strip()]
    refinement = build_refinement(args.kind, levels)
    cex = lip_counterexample(refinement, args.n_max)
    report = verify_escape(cex)

    print(f"{'level':>8} {'scale':>13} {'delta':>13} {'lipschitz':>13}")
    for level, scale, delta, lips in cex.level_rows:
        print(f"{level:>8} {scale:>13.6g} {delta:>13.6g} {lips:>13.6g}")
    slope, _, resid = report.scale_fit
    print(f"fit against scale: exponent {slope:+.4f} (max residual {resid:.2e})")
    slope, _, resid = report.delta_fit
    print(f"fit against delta: exponent {slope:+.4f} (max residual {resid:.2e})")
    print(report.statement)
    floor_margin = min(r * 2.0 * t**0.5 for r, t in zip(cex.blow_up, cex.t))
    print(f"{len(cex.blow_up)} blow-up ratios, all >= {floor_margin:.3f}x "
          "the 1/(2*sqrt(t)) floor")
    if args.csv:
        write_csv(args.csv, ["level", "scale", "delta", "lipschitz"],
                  cex.level_rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
