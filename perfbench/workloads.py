"""Seeded inputs and scripted CLI sessions for each benchmark workload.

``prepare(name, seed, inputs_dir, out_dir, smoke)`` writes the workload's
inputs under ``inputs_dir`` and returns the session script: the list of
``latticelab`` command lines one session issues, each with the verdict it
must produce.  Inputs are written once per benchmark invocation at fixed
paths, because check reports embed the ``--family``/``--space`` argument in
their provenance; a path that moved between sessions would change the bytes.

Sizes are fixed per workload and the seed only draws values (and a few
cheap parameters), so every seed asks for the same amount of work and the
seeds can be compared with each other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ladder-1d", "cloud-2d", "families")


@dataclass(frozen=True)
class Op:
    """One CLI call of a session and the verdict it must produce.

    ``expect_rc`` follows the exit-code table of the CLI (0 holds/verifies,
    1 a legitimate negative); ``expect`` is a substring the call must print
    on stdout or stderr.
    """

    kind: str
    argv: tuple
    expect_rc: int
    expect: str


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_coords_csv(path, coords: np.ndarray, labels) -> None:
    coords = coords.reshape(len(labels), -1)
    head = ["label"] + [f"x{k + 1}" for k in range(coords.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(head) + "\n")
        for lab, row in zip(labels, coords):
            fh.write(lab + "," + ",".join(_fmt(v) for v in row) + "\n")


def _write_distance_csv(path, coords: np.ndarray, labels) -> None:
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dist = np.maximum(dist, dist.T)  # exact symmetry
    np.fill_diagonal(dist, 0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(labels) + "\n")
        for lab, row in zip(labels, dist):
            fh.write(lab + "," + ",".join(_fmt(v) for v in row) + "\n")


def _distinct_points(rng, n: int, sample) -> np.ndarray:
    """``n`` distinct points from ``sample(rng, k)``; coincident points would
    make the space invalid input rather than a workload."""
    pts = sample(rng, n)
    while True:
        uniq = np.unique(pts, axis=0)
        if len(uniq) == n:
            return pts
        pts = np.concatenate([uniq, sample(rng, n - len(uniq))])


def _labels(prefix: str, n: int) -> list:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _cli(kind, *argv, rc=0, expect=""):
    return Op(kind=kind, argv=tuple(str(a) for a in argv), expect_rc=rc, expect=expect)


# ---------------------------------------------------------------------------
# ladder-1d: envelope ladders, hats and metric scans on subsets of the line


def _ladder_1d(rng, inputs, out, seed, smoke):
    n_line = 40 if smoke else 2000
    # the accumulation ladders, the hats and the line envelope are sized to
    # cost about the same (0.6-0.9 s each): the tail percentile lands on the
    # third-slowest op, and a small shift in one op's cost then cannot move
    # it onto an op of a very different cost
    acc_tops = (30, 40) if smoke else (1000, 1200)
    pairs_top = 20 if smoke else 1000
    hat_top = 12 if smoke else 100
    line = np.sort(_distinct_points(rng, n_line, lambda r, k: r.uniform(0.0, 1.0, k)))
    labels = _labels("t", n_line)
    line_csv = os.path.join(inputs, "line.csv")
    _write_coords_csv(line_csv, line, labels)
    # the zero set sits at fixed ranks: how many points share the linear
    # pieces of the envelopes (and so tie for the maximal slope) then
    # depends on the point density there, not on where a draw put the set
    target = f"{labels[n_line // 3]},{labels[2 * n_line // 3]}"

    def levels(top):
        # the top level sets the cost; the seed only moves the lower levels,
        # which change the escape report but not the scan sizes
        lo = int(rng.integers(3, 10))
        mid = int(rng.integers(10, max(11, top // 4)))
        return f"{lo},{mid},{top}"

    generators = []
    for top in acc_tops:
        d = os.path.join(out, f"ladder-acc-{top}")
        generators.append((_cli("generate", "generate", "ladder", "--levels", levels(top),
                                "--kind", "accumulation", "--n-max", 20, "--out", d,
                                expect="ladder: n <= 20"),
                           os.path.join(d, "ladder_family.json")))
    d = os.path.join(out, f"ladder-pairs-{pairs_top}")
    generators.append((_cli("generate", "generate", "ladder", "--levels", levels(pairs_top),
                            "--kind", "pairs", "--n-max", 20, "--out", d,
                            expect="ladder: n <= 20"),
                       os.path.join(d, "ladder_family.json")))
    d = os.path.join(out, "hats")
    generators.append((_cli("generate", "generate", "hats",
                            "--levels", ",".join(str(v) for v in range(3, hat_top + 1)),
                            "--depth", 50, "--out", d, expect="hats: depth 50"),
                       os.path.join(d, "hat_family.json")))
    # every generated family is a certified Buo-Cauchy family (the ladders
    # through uniform difference norms, the hats as a decreasing bounded
    # chain), checked and replayed right after it is written, as a script
    # would; this also spreads the small ops over the session, so one slow
    # spell of the host does not hit all of them at once
    ops = []
    for i, (gen, fam) in enumerate(generators):
        chk = os.path.join(out, f"check-{i}")
        ops.append(gen)
        ops.append(_cli("check", "check", "--family", fam, "--mode", "buo-cauchy",
                        "--seed", seed, "--out", chk, expect="buo_cauchy: holds"))
        ops.append(_cli("verify", "verify", "--family", fam,
                        "--report", os.path.join(chk, "check_report.json"),
                        "--out", os.path.join(out, f"verify-{i}"),
                        expect="certificate re-verified"))
    ops.append(_cli("metric", "metric", "--space", line_csv, "--format", "coords-csv",
                    "--out", os.path.join(out, "metric"), expect=f"n={n_line} "))
    ops.append(_cli("envelope", "envelope", "--space", line_csv, "--format", "coords-csv",
                    "--set", target, "--ns", "1,2,4,8,16,32",
                    "--out", os.path.join(out, "envelope"), expect="envelope_report.json"))
    return ops


# ---------------------------------------------------------------------------
# cloud-2d: the same metric/envelope layers off the line


def _cloud(rng, n):
    """A seeded mixture of Gaussian clusters in the unit square."""
    k = 6
    centres = rng.uniform(0.15, 0.85, (k, 2))
    scales = rng.uniform(0.03, 0.12, k)

    def sample(r, m):
        which = r.integers(0, k, m)
        return centres[which] + r.normal(size=(m, 2)) * scales[which, None]

    return _distinct_points(rng, n, sample)


def _cloud_2d(rng, inputs, out, seed, smoke):
    # (points, whether the session also takes its envelope).  The 3000-point
    # cloud gets the largest metric scan only: its envelope alone took half
    # a session, and shorter sessions give each op more runs per benchmark
    # run.  Seven ops: an odd count puts the median op inside one op's runs.
    clouds = ((30, True), (40, True), (50, False)) if smoke else (
        (1000, True), (2000, True), (3000, False))
    n_matrix = 20 if smoke else 200
    ops = []
    spaces = []
    for n, with_envelope in clouds:
        path = os.path.join(inputs, f"cloud-{n}.csv")
        labels = _labels("c", n)
        _write_coords_csv(path, _cloud(rng, n), labels)
        spaces.append((path, "coords-csv", labels, f"cloud-{n}", with_envelope))
    path = os.path.join(inputs, f"matrix-{n_matrix}.csv")
    labels = _labels("m", n_matrix)
    _write_distance_csv(path, _cloud(rng, n_matrix), labels)
    spaces.append((path, "distance-csv", labels, f"matrix-{n_matrix}", True))
    for path, fmt, labels, tag, with_envelope in spaces:
        target = ",".join(sorted(rng.choice(labels, size=3, replace=False)))
        ops.append(_cli("metric", "metric", "--space", path, "--format", fmt,
                        "--out", os.path.join(out, f"metric-{tag}"),
                        expect=f"n={len(labels)} "))
        if with_envelope:
            ops.append(_cli("envelope", "envelope", "--space", path, "--format", fmt,
                            "--set", target, "--ns", "1,2,4,8,16,32",
                            "--out", os.path.join(out, f"envelope-{tag}"),
                            expect="envelope_report.json"))
    return ops


# ---------------------------------------------------------------------------
# families: stored index-set families read back, checked and replayed


def _pairing_family(rng, size, horizon):
    """The acceptance test's randomized bounded family: limit plus a halving
    perturbation, with a declared limit and common bound."""
    from latticelab.convergence import FamilyMetadata, SequenceFamily
    from latticelab.core import Carrier, LatticeElement, Tail

    carrier = Carrier.index_set(size)
    limit = rng.uniform(-5.0, 5.0, size)
    noise = rng.uniform(-3.0, 3.0, size)
    members = [LatticeElement(carrier, limit + noise * 2.0**-n, Tail.zero())
               for n in range(1, horizon + 1)]
    bound = np.abs(limit) + np.abs(noise)
    meta = FamilyMetadata(
        limit=LatticeElement(carrier, limit, Tail.zero()),
        common_bound=LatticeElement(carrier, bound, Tail.constant(float(bound.max()))),
    )
    return SequenceFamily(members=members, metadata=meta)


def _uniform_family(rng, size, horizon):
    """A declared uniformly Cauchy family x_n = L + v * r**n.

    ||x_j - x_l|| <= max|v| * r**j for l > j.  r is chosen so the declared
    norms fall below the default tolerance at the horizon; the 1e-12 slack
    covers the rounding of L + v * r**n.
    """
    from latticelab.convergence import FamilyMetadata, SequenceFamily
    from latticelab.core import Carrier, LatticeElement, Tail

    carrier = Carrier.index_set(size)
    limit = rng.uniform(-2.0, 2.0, size)
    v = rng.uniform(-1.0, 1.0, size)
    r = 1e-13 ** (1.0 / horizon)
    members = [LatticeElement(carrier, limit + v * r**n, Tail.zero())
               for n in range(1, horizon + 1)]
    vmax = float(np.abs(v).max())
    eps = tuple(vmax * r**j + 1e-12 for j in range(1, horizon + 1))
    return SequenceFamily(members=members,
                          metadata=FamilyMetadata(uniformly_cauchy_norms=eps))


def _sampled_family(rng, size, horizon):
    """x_n = L + v / n with no certificate metadata, for the sampled policy."""
    from latticelab.convergence import SequenceFamily
    from latticelab.core import Carrier, LatticeElement, Tail

    carrier = Carrier.index_set(size)
    limit = rng.uniform(-1.0, 1.0, size)
    v = rng.uniform(-0.5, 0.5, size)
    members = [LatticeElement(carrier, limit + v / n, Tail.zero())
               for n in range(1, horizon + 1)]
    return SequenceFamily(members=members)


def _families(rng, inputs, out, seed, smoke):
    from latticelab import serialize

    n_pairing = 4 if smoke else 24
    # the uniform checks and replays and the sampled check are sized to
    # cost about the same (0.5-0.6 s each), for the same reason as the
    # accumulation ladders of ladder-1d
    uniform_ns = (12, 20) if smoke else (230, 250)
    sampled_shape = (20, 40) if smoke else (300, 3000)
    ops = []

    # the acceptance test draws size in 3..50 and horizon in 60..200; a fixed
    # stratified grid over those ranges (paired by a fixed scramble) keeps
    # the total work equal across seeds while the seed draws every value
    sizes = np.rint(np.linspace(3, 50, n_pairing)).astype(int)
    horizons = np.rint(np.linspace(60, 200, n_pairing)).astype(int)
    order = rng.permutation(n_pairing)
    for i in order:
        size, horizon = int(sizes[i]), int(horizons[(7 * i) % n_pairing])
        fam = os.path.join(inputs, f"pairing-{i:02d}.json")
        serialize.write_json(fam, serialize.family_to_json(
            _pairing_family(rng, size, horizon)))
        ops.append(_cli("check", "check", "--family", fam, "--mode", "buo-equals-order",
                        "--out", os.path.join(out, f"pairing-{i:02d}-paired"),
                        expect="equal=True"))
        chk = os.path.join(out, f"pairing-{i:02d}-order")
        ops.append(_cli("check", "check", "--family", fam, "--mode", "order",
                        "--out", chk, expect="order: holds"))
        ops.append(_cli("verify", "verify", "--family", fam,
                        "--report", os.path.join(chk, "check_report.json"),
                        "--out", os.path.join(out, f"pairing-{i:02d}-verify"),
                        expect="certificate re-verified"))

    for n in uniform_ns:
        fam = os.path.join(inputs, f"uniform-{n}.json")
        serialize.write_json(fam, serialize.family_to_json(_uniform_family(rng, 16, n)))
        chk = os.path.join(out, f"uniform-{n}-check")
        ops.append(_cli("check", "check", "--family", fam, "--mode", "buo-cauchy",
                        "--out", chk, expect="buo_cauchy: holds"))
        ops.append(_cli("verify", "verify", "--family", fam,
                        "--report", os.path.join(chk, "check_report.json"),
                        "--out", os.path.join(out, f"uniform-{n}-verify"),
                        expect="certificate re-verified"))

    # every difference of x_n = L + v/n stays below 2*max|v| <= 1, so with
    # tolerance 1 each sampled draw passes and the verdict is inconclusive
    horizon, size = sampled_shape
    fam = os.path.join(inputs, "sampled.json")
    serialize.write_json(fam, serialize.family_to_json(_sampled_family(rng, size, horizon)))
    ops.append(_cli("check", "check", "--family", fam, "--mode", "buo-cauchy",
                    "--policy", "sampled", "--seed", seed, "--tolerance", 1.0,
                    "--out", os.path.join(out, "sampled-check"), rc=1,
                    expect="buo_cauchy: inconclusive"))

    # truncations of coeff * j**-exponent: divergent in lp for exponent * p <= 1.
    # Below coeff = 1 the p = 2 blocks grow so fast that the extraction
    # rightly refuses at the coordinate cap or the horizon, so coeff >= 1.
    coeff = _fmt(rng.choice([1.0, 1.5, 2.0]))
    for exponent, p, divergent in ((1.0, 1, True), (0.5, 2, True), (2.0, 1, False)):
        tag = f"trunc-{exponent:g}-p{p}"
        gen = os.path.join(out, f"{tag}-gen")
        fam = os.path.join(gen, "truncation_family.json")
        ops.append(_cli("generate", "generate", "truncation", "--exponent", exponent,
                        "--coeff", coeff, "--p", p, "--out", gen,
                        expect="truncation: j**-"))
        wit = os.path.join(out, f"{tag}-blocks")
        if divergent:
            ops.append(_cli("witness", "witness", "blocks", "--family", fam, "--p", p,
                            "--count", 5, "--out", wit,
                            expect="extracted and re-verified 5 disjoint blocks"))
            ops.append(_cli("verify", "verify", "--family", fam,
                            "--witness", os.path.join(wit, "witness.json"),
                            "--out", os.path.join(out, f"{tag}-verify"),
                            expect="witness re-verified"))
        else:
            ops.append(_cli("witness", "witness", "blocks", "--family", fam, "--p", p,
                            "--count", 5, "--out", wit, rc=1,
                            expect="refused: the pointwise limit lies in lp"))

    # the growing plateau: big jumps refute any c0 dominator, and sampling
    # finds a subsequence whose differences never vanish
    eps = _fmt(rng.choice([0.125, 0.25, 0.5]))
    gen = os.path.join(out, "steps-gen")
    fam = os.path.join(gen, "step_family.json")
    ops.append(_cli("generate", "generate", "steps", "--eps", eps, "--size", 40,
                    "--depth", 40, "--out", gen, expect="steps: eps="))
    wit = os.path.join(out, "steps-jumps")
    ops.append(_cli("witness", "witness", "jumps", "--family", fam, "--eps", eps,
                    "--count", 10, "--out", wit,
                    expect="extracted and re-verified 10 jumps"))
    ops.append(_cli("verify", "verify", "--family", fam,
                    "--witness", os.path.join(wit, "witness.json"),
                    "--out", os.path.join(out, "steps-verify"),
                    expect="witness re-verified"))
    ops.append(_cli("check", "check", "--family", fam, "--mode", "buo-cauchy",
                    "--policy", "sampled", "--seed", seed,
                    "--out", os.path.join(out, "steps-check"), rc=1,
                    expect="buo_cauchy: fails"))
    return ops


_BUILDERS = {"ladder-1d": _ladder_1d, "cloud-2d": _cloud_2d, "families": _families}


def prepare(name: str, seed: int, inputs_dir: str, out_dir: str, smoke: bool = False):
    """Write the inputs of workload ``name`` for ``seed``; return its session."""
    os.makedirs(inputs_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](rng, inputs_dir, out_dir, seed, smoke)
