"""Command-line front end: ingest scenarios, run checks, emit stable reports.

Subcommands
-----------
metric     isolation profile and discreteness trend of one space
envelope   inf-convolution ladder under g = sqrt(dist(., SET)) ∧ 1
check      convergence verdicts on a stored family
witness    big-jump / disjoint-block extraction plus refutation certificate
generate   reference scenarios (hats, envelope ladder, steps, truncations)
verify     replay a stored witness or check report against raw data

Exit codes: 0 success / property holds; 1 a property legitimately fails or
an extraction correctly refuses; 2 malformed input; 3 a stored record
failed to replay or an internal invariant broke.  Reports embed a
provenance block (tool version, seed, tolerance, horizon, input digests,
arguments) and never a timestamp, so identical inputs and seed produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__, serialize
from .config import CheckConfig, parse_constants
from .convergence import (
    CertificatePolicy,
    FamilyMetadata,
    SampledPolicy,
    SequenceFamily,
    buo_equals_order,
    check_buo_cauchy,
    check_buo_convergence,
    check_order_convergence,
    pointwise_limit,
    truncation_family,
)
from .core import Carrier, LatticeElement, SpaceTag, Tail, zeros
from .counterexamples import build_refinement, hat_scenario, lip_counterexample, verify_escape
from .envelopes import inf_convolution_ladder
from .errors import (
    DominatingConditionError,
    HorizonExhaustedError,
    InputError,
    InternalInvariantError,
    LatticeLabError,
    LimitInSpaceRefusal,
    UndecidableTailError,
)
from .metric import dist_to_set_all, find_close_pair, isolation_profile
from .witnesses import (
    BlockWitness,
    extract_big_jump_witness,
    extract_lp_block_witness,
    refute_order_boundedness,
    verify_block_witness,
    verify_jump_witness,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

#: extraction outcomes that are correct negative answers, not errors
_REFUSALS = (DominatingConditionError, HorizonExhaustedError, LimitInSpaceRefusal)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="directory for report files")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="latticelab", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=f"latticelab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="isolation profile and discreteness constant")
    p.add_argument("--space", required=True)
    p.add_argument("--format", required=True,
                   choices=["distance-csv", "coords-csv", "space-json"])
    _add_common(p)

    p = sub.add_parser("envelope", help="Lipschitz envelope ladder under sqrt(dist) ∧ 1")
    p.add_argument("--space", required=True)
    p.add_argument("--format", required=True,
                   choices=["distance-csv", "coords-csv", "space-json"])
    p.add_argument("--set", required=True, dest="target",
                   help="comma-separated labels of the zero set A")
    p.add_argument("--ns", default="1,2,4,8,16",
                   help="comma-separated envelope indices")
    _add_common(p)

    p = sub.add_parser("check", help="convergence verdict for a stored family")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", required=True,
                   choices=["order", "buo", "buo-equals-order", "buo-cauchy"])
    p.add_argument("--candidate", default="declared", choices=["declared", "zero"],
                   help="limit candidate for order/buo modes")
    p.add_argument("--policy", default="certificate", choices=["certificate", "sampled"])
    p.add_argument("--count", type=int, default=32, help="sampled subsequence budget")
    p.add_argument("--max-len", type=int, default=16)
    _add_common(p)

    p = sub.add_parser("witness", help="extract an unboundedness witness")
    wsub = p.add_subparsers(dest="witness_kind", required=True)
    wj = wsub.add_parser("jumps", help="big-jump chain against a c0 dominator")
    wj.add_argument("--family", required=True)
    wj.add_argument("--eps", type=float, required=True)
    wj.add_argument("--count", type=int, default=20)
    wj.add_argument("--coordinates", default="",
                    help="comma-separated candidate coordinates (default: all)")
    wj.add_argument("--constants", default="")
    _add_common(wj)
    wb = wsub.add_parser("blocks", help="disjoint lp blocks of the escaping limit")
    wb.add_argument("--family", required=True)
    wb.add_argument("--p", type=float, required=True)
    wb.add_argument("--count", type=int, default=5)
    wb.add_argument("--constants", default="")
    _add_common(wb)

    p = sub.add_parser("generate", help="write a reference scenario to disk")
    gsub = p.add_subparsers(dest="scenario", required=True)
    gh = gsub.add_parser("hats", help="shrinking hats around an accumulation point")
    gh.add_argument("--levels", default="3,10,100")
    gh.add_argument("--depth", type=int, default=50)
    _add_common(gh)
    gl = gsub.add_parser("ladder", help="envelope ladder on a refining space")
    gl.add_argument("--levels", default="10,100,1000")
    gl.add_argument("--kind", default="accumulation", choices=["accumulation", "pairs"])
    gl.add_argument("--n-max", type=int, default=8)
    _add_common(gl)
    gs = gsub.add_parser("steps", help="growing plateau family x_n = 4*eps on 1..n")
    gs.add_argument("--eps", type=float, default=0.25)
    gs.add_argument("--size", type=int, default=30)
    gs.add_argument("--depth", type=int, default=30)
    _add_common(gs)
    gt = gsub.add_parser("truncation", help="truncations of coeff * j**-exponent")
    gt.add_argument("--exponent", type=float, required=True)
    gt.add_argument("--coeff", type=float, default=1.0)
    gt.add_argument("--size", type=int, default=64)
    gt.add_argument("--p", type=float, default=None)
    _add_common(gt)

    p = sub.add_parser("verify", help="replay a stored witness or check report")
    p.add_argument("--family", required=True)
    p.add_argument("--witness", default=None)
    p.add_argument("--report", default=None, help="check report to replay")
    _add_common(p)

    return top


# ---------------------------------------------------------------------------
# provenance and output plumbing


def _provenance(args: argparse.Namespace) -> dict:
    """The block each JSON report of the command ``args`` records: what ran,
    with which settings, on input files of which SHA-256 digests."""
    skip = {"command", "witness_kind", "scenario", "out", "func"}
    arg_doc = {k: v for k, v in sorted(vars(args).items())
               if k not in skip and v is not None}
    return {
        "tool": "latticelab",
        "version": __version__,
        "command": " ".join(
            str(v) for v in (args.command, getattr(args, "witness_kind", None),
                             getattr(args, "scenario", None)) if v
        ),
        "seed": getattr(args, "seed", 0),
        "tolerance": getattr(args, "tolerance", None),
        "horizon": getattr(args, "horizon", None),
        "inputs": {name: serialize.sha256_of(arg_doc[name]) for name in ("family", "space")
                   if name in arg_doc},
        "args": arg_doc,
    }


def _emit(args, *outputs) -> None:
    """Write each output, a file name followed by a JSON document or by a
    CSV header and rows, under --out in order.  Every JSON document gets
    the command's one provenance block."""
    os.makedirs(args.out, exist_ok=True)
    provenance = _provenance(args)
    for name, *data in outputs:
        path = os.path.join(args.out, name)
        if name.endswith(".csv"):
            serialize.write_csv(path, *data)
        else:
            serialize.write_json(path, {**data[0], "provenance": provenance})
        print(f"wrote {path}")


def _config(args) -> CheckConfig:
    kw = {"seed": args.seed}
    if args.tolerance is not None:
        kw["tolerance"] = args.tolerance
    if args.horizon is not None:
        kw["horizon"] = args.horizon
    return CheckConfig(**kw)


def _ints(text: str, option: str):
    """The comma-separated integers of ``option``'s value ``text``."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InputError(f"{option}: expected comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def _load_space(args):
    """The --space input; a one-point space has no distances to report."""
    space = serialize.load_space(args.space, args.format)
    if space.n < 2:
        raise InputError(f"{args.space}: {args.command} needs at least two points, "
                         f"got {space.n}")
    return space


def cmd_metric(args) -> int:
    space = _load_space(args)
    profile = isolation_profile(space)
    delta = profile.delta
    pair = find_close_pair(space, excluded=(), eps=2.0 * delta)
    order = np.argsort(profile.radii, kind="stable").tolist()
    # by column; the running minimum of the increasing radii is delta, one text repeated
    _emit(args,
          ("isolation_profile.csv", ["label", "isolation_radius"],
           zip(profile.labels, profile.radii.tolist())),
          ("delta_trend.csv", ["rank", "label", "isolation_radius", "running_min"],
           zip(map(str, range(1, space.n + 1)), map(profile.labels.__getitem__, order),
               profile.radii[order].tolist(), [float.__repr__(delta)] * space.n)),
          ("metric_report.json", serialize.record("metric", {
              "n": space.n, "discreteness_constant": delta, "closest_pair": list(pair)})))
    print(f"n={space.n} delta={delta!r}")
    return EXIT_OK


def cmd_envelope(args) -> int:
    space = _load_space(args)
    targets = [t.strip() for t in args.target.split(",") if t.strip()]
    if not targets:
        raise InputError("--set needs at least one label")
    dist = dist_to_set_all(space, targets)
    g = LatticeElement(Carrier.points(space), np.minimum(np.sqrt(dist), 1.0))
    ns = _ints(args.ns, "--ns")
    if not ns:
        raise InputError("--ns needs at least one index")
    results = inf_convolution_ladder(g, ns)
    rows = [{"n": r.n, "alpha": r.alpha, "achieved_error": r.achieved_error,
             "lipschitz": r.lipschitz, "pair": list(r.pair)} for r in results]
    _emit(args,
          ("envelope_table.csv", ["n", "alpha", "achieved_error", "lipschitz"],
           ((r.n, r.alpha, r.achieved_error, r.lipschitz) for r in results)),
          ("envelope_report.json", serialize.record("envelope", {"set": targets, "rows": rows})))
    return EXIT_OK


def _candidate(args, family) -> LatticeElement:
    if args.candidate == "zero":
        return zeros(family.carrier)
    if family.metadata.limit is not None:
        return family.metadata.limit
    return pointwise_limit(family, _config(args))


def _run_check(family, mode: str, candidate, policy, cfg: CheckConfig):
    """The check behind each ``check --mode``; the report replay re-runs a
    stored check through this same dispatch."""
    if mode == "order":
        return check_order_convergence(family, candidate, cfg)
    if mode == "buo":
        return check_buo_convergence(family, candidate, cfg)
    if mode == "buo-equals-order":
        return buo_equals_order(family, candidate, cfg)
    return check_buo_cauchy(family, policy, cfg)


def cmd_check(args) -> int:
    family = serialize.load_family(args.family)
    candidate = policy = None
    if args.mode != "buo-cauchy":
        candidate = _candidate(args, family)
    elif args.policy == "certificate":
        policy = CertificatePolicy()
    else:
        policy = SampledPolicy(count=args.count, max_len=args.max_len, seed=args.seed)
    verdict = _run_check(family, args.mode, candidate, policy, _config(args))
    _emit(args, ("check_report.json", serialize.verdict_to_json(verdict)))
    if hasattr(verdict, "equal"):
        print(f"order={verdict.order.outcome} buo={verdict.buo.outcome} equal={verdict.equal}")
        return EXIT_OK if verdict.equal else EXIT_FAIL
    print(f"{verdict.mode}: {verdict.outcome}")
    return EXIT_OK if verdict.outcome == "holds" else EXIT_FAIL


def cmd_witness(args) -> int:
    family = serialize.load_family(args.family)
    constants = parse_constants(args.constants)
    if args.witness_kind == "jumps":
        coords = (_ints(args.coordinates, "--coordinates")
                  or list(range(1, family.carrier.size + 1)))
        witness = extract_big_jump_witness(family, coords, args.eps, args.count,
                                           constants=constants)
        verify_jump_witness(witness, family)
        cert = refute_order_boundedness(witness, SpaceTag.c0())
        summary = f"{witness.count} jumps above {args.eps!r}"
    else:
        witness = extract_lp_block_witness(family, args.p, args.count,
                                           constants=constants, config=_config(args))
        verify_block_witness(witness, family)
        cert = refute_order_boundedness(witness, SpaceTag.lp(args.p))
        summary = f"{witness.count} disjoint blocks, norm bound {cert.norm_lower_bound!r}"
    _emit(args, ("witness.json", serialize.witness_to_json(witness)),
          ("refutation.json", serialize.refutation_to_json(cert)))
    print(f"extracted and re-verified {summary}")
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.scenario == "hats":
        scenario = hat_scenario(build_refinement("accumulation", _ints(args.levels, "--levels")),
                                args.depth)
        levels = list(scenario.refinement.levels)  # sorted, each once
        outputs = [("hat_family.json", serialize.family_to_json(scenario.families[-1]))]
        if len(levels) >= 3:
            outputs.append(("hat_escape.json",
                            serialize.escape_report_to_json(verify_escape(scenario))))
        _emit(args, *outputs)
        print(f"hats: depth {args.depth} on levels {levels}")
        return EXIT_OK
    if args.scenario == "ladder":
        refinement = build_refinement(args.kind, _ints(args.levels, "--levels"))
        levels = list(refinement.levels)  # sorted, each once
        cex = lip_counterexample(refinement, args.n_max)
        outputs = [
            ("ladder_family.json", serialize.family_to_json(cex.family)),
            ("blowups.csv", ["b_label", "a_label", "t", "ratio", "lower_bound"],
             zip(*zip(*cex.blow_up_pairs), cex.t, cex.blow_up,  # b and a labels, then numbers
                 (1.0 / (2.0 * np.sqrt(cex.t))).tolist())),
            ("level_trend.csv", ["level", "scale", "delta", "lipschitz"], cex.level_rows),
        ]
        if len(levels) >= 3:
            outputs.append(("ladder_escape.json",
                            serialize.escape_report_to_json(verify_escape(cex))))
        _emit(args, *outputs)
        print(f"ladder: n <= {args.n_max} on {args.kind} levels {levels}")
        return EXIT_OK
    if args.scenario == "steps":
        if args.eps <= 0:
            raise InputError(f"--eps must be positive, got {args.eps}")
        if args.depth > args.size:
            raise InputError("--depth beyond --size would freeze the plateau")
        # member n holds 4*eps on coordinates 1..n
        values = np.where(np.arange(1, args.size + 1) <= np.arange(1, args.depth + 1)[:, None],
                          4.0 * args.eps, 0.0)
        meta = FamilyMetadata(
            space_tag=SpaceTag.c0(), growth="bounded",
            notes=("plateau of height 4*eps spreading one coordinate per step",),
        )
        family = SequenceFamily(values=values, tails=Tail.zero(),
                                carrier=Carrier.index_set(args.size), metadata=meta)
        _emit(args, ("step_family.json", serialize.family_to_json(family)))
        print(f"steps: eps={args.eps!r} size={args.size} depth={args.depth}")
        return EXIT_OK
    if args.scenario == "truncation":
        horizon = args.horizon if args.horizon is not None else 10**9
        family = truncation_family(args.exponent, args.coeff,
                                   size=args.size, horizon=horizon, p=args.p)
        _emit(args, ("truncation_family.json", serialize.family_to_json(family)))
        print(f"truncation: j**-{args.exponent!r} scaled by {args.coeff!r}")
        return EXIT_OK
    raise InputError(f"unknown scenario {args.scenario!r}")


def cmd_verify(args) -> int:
    if (args.witness is None) == (args.report is None):
        raise InputError("verify needs exactly one of --witness or --report")
    family = serialize.load_family(args.family)
    if args.witness is not None:
        witness = serialize.witness_from_json(serialize.read_json(args.witness),
                                              where=args.witness)
        if isinstance(witness, BlockWitness):
            verify_block_witness(witness, family)
        else:
            verify_jump_witness(witness, family)
        print(f"witness re-verified against {args.family}")
        return EXIT_OK
    what = replay_report(serialize.read_json(args.report), family, args.report)
    print(f"{what} re-verified against {args.family}")
    return EXIT_OK


def replay_report(doc, family: SequenceFamily, where: str = "report") -> str:
    """Re-run the check a stored report records and compare the whole
    report, provenance aside, with the re-run's; return what was
    re-verified.  The fields the re-run reads are its input (see
    serialize.recorded_check); every other field is a claim, and the first
    one the re-run contradicts is an InternalInvariantError naming its path
    and both values."""
    mode, candidate, policy, config = serialize.recorded_check(doc, family, where)
    cert = doc.get("certificate")
    if isinstance(cert, dict) and isinstance(cert.get("type"), str):
        claim = f"{cert['type']} certificate"
    else:
        claim = f"{doc.get('mode', 'paired')} verdict"
    try:
        rerun = _run_check(family, mode, candidate, policy, config)
        diff = serialize.first_difference(
            {k: v for k, v in doc.items() if k != "provenance"},
            serialize.verdict_to_json(rerun))
    except LatticeLabError as exc:  # the recorded check no longer runs to a verdict
        diff = str(exc)
    if diff is not None:
        raise InternalInvariantError(f"stored {claim} does not replay: {diff}")
    if mode == "buo-equals-order":
        return "paired verdict"
    if doc["outcome"] == "holds":
        return "certificate"
    return f"{doc['mode']} {doc['outcome']} verdict"


_COMMANDS = {
    "metric": cmd_metric,
    "envelope": cmd_envelope,
    "check": cmd_check,
    "witness": cmd_witness,
    "generate": cmd_generate,
    "verify": cmd_verify,
}


#: the parser main uses, built once per process: parse_args fills a fresh
#: namespace on every call, so nothing parsed carries over to the next call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _config(args)  # every subcommand records --seed, --tolerance and --horizon
        return _COMMANDS[args.command](args)
    except _REFUSALS as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except InternalInvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    # bad input, a missing file, a size too large to allocate, ...
    except (InputError, UndecidableTailError, OSError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LatticeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
