"""Every dense distance scan gives bitwise the same result at any tile size.

Each scan runs with a 100-entry tile (one row per tile on these spaces, so
ties and maxima straddle many tile seams), with the default tile, and with
a 4,000,000-entry block, which holds each of these spaces whole.  The
spaces have more than metric.BLOCK_ENTRIES distances, so the default tile
splits them too.
"""

import numpy as np
import pytest

from latticelab import metric
from latticelab.cli import main
from latticelab.core import Carrier, LatticeElement
from latticelab.counterexamples import (
    RefinementFamily,
    _oscillation_within,
    build_refinement,
    lip_counterexample,
)
from latticelab.envelopes import _dense_ladder, inf_convolution_ladder, modulus_of_continuity
from latticelab.errors import InputError
from latticelab.metric import (
    FiniteMetricSpace,
    dist_to_set_all,
    find_close_pair,
    isolation_radii,
    max_slope,
)

TILES = (100, metric.BLOCK_ENTRIES, 4_000_000)


def bits(x):
    """``x`` with every float and array replaced by its bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes()
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    return x


def at_each_tile(monkeypatch, scan):
    """``scan()`` run at every tile size, compared bitwise; returns the first."""
    results = []
    for entries in TILES:
        monkeypatch.setattr(metric, "BLOCK_ENTRIES", entries)
        results.append(scan())
    for other in results[1:]:
        assert bits(other) == bits(results[0])
    return results[0]


def lattice_cloud(seed):
    """About 300 distinct points of a coarse 2-D lattice: many tied distances
    and slopes, and more pairs than one default tile holds."""
    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(0, 24, size=(420, 2)), axis=0) * 0.5
    assert pts.shape[0] ** 2 > metric.BLOCK_ENTRIES
    return pts


def fresh_spaces(pts):
    """A coordinate space and its explicit-matrix twin, built anew on every
    call so that no scan reads radii cached at another tile size."""
    space = FiniteMetricSpace.from_coords(pts)
    return [space,
            FiniteMetricSpace.from_matrix(space.row_block(0, space.n), space.labels,
                                          validate=False)]


def value_stack(rng, pts):
    """Rows with distinct slopes, tied slopes in every tile, and none at all."""
    n = pts.shape[0]
    return np.stack([
        rng.standard_normal(n),
        rng.integers(0, 3, size=n).astype(np.float64),
        3.0 * pts[:, 0],  # slope 3 on every pair at one height: a tie across seams
        np.zeros(n),  # every slope is 0: the first pair, (p0, p1), wins
        rng.standard_normal(n) * 1e3,
    ])


@pytest.mark.parametrize("seed", range(2))
def test_max_slope_is_the_same_at_every_tile(seed, monkeypatch):
    pts = lattice_cloud(seed)
    stack = value_stack(np.random.default_rng(seed), pts)
    got = at_each_tile(monkeypatch, lambda: [max_slope(s, stack) for s in fresh_spaces(pts)])
    assert got[0] == got[1]
    (_, pair), = [r for r in got[0] if r[0] == 0.0]
    assert pair == ("p000", "p001")


@pytest.mark.parametrize("seed", range(2))
def test_close_pairs_and_radii_are_the_same_at_every_tile(seed, monkeypatch):
    pts = lattice_cloud(seed)
    rng = np.random.default_rng(seed)
    allowed = rng.uniform(size=pts.shape[0]) < 0.7
    excluded = {f"p{i:03d}" for i in np.flatnonzero(~allowed)}

    def scan():
        out = []
        for space in fresh_spaces(pts):
            radii = isolation_radii(space)
            delta = float(radii.min())
            out.append(radii)
            for eps in (0.5 * delta, delta, 1.5 * delta, 4.0 * delta, 1e300):
                out.append((metric._scan_close_pair(space, allowed, eps),
                            find_close_pair(space, excluded, eps)))
        return out

    got = at_each_tile(monkeypatch, scan)
    assert got[2] == (None, None)  # no pair lies closer than delta
    assert None not in got[3]  # but some allowed pair lies within 1.5 delta


@pytest.mark.parametrize("seed", range(2))
def test_moduli_are_the_same_at_every_tile(seed, monkeypatch):
    pts = lattice_cloud(seed)
    values = np.random.default_rng(seed).integers(0, 5, size=pts.shape[0]) * 0.25

    def scan():
        out = []
        for space in fresh_spaces(pts):
            g = LatticeElement(Carrier.points(space), values)
            diameter = float(space.row_block(0, space.n).max())
            for curve in (modulus_of_continuity(g),
                          modulus_of_continuity(g, grid=np.linspace(0.0, diameter, 37))):
                out.append((curve.thresholds, curve.values))
            with pytest.raises(InputError) as short:
                modulus_of_continuity(g, grid=[0.5 * diameter])
            out.append(str(short.value))
        return out

    got = at_each_tile(monkeypatch, scan)
    assert got[2].startswith("pair distance ")


@pytest.mark.parametrize("need_alpha", [True, False])
def test_envelope_ladders_are_the_same_at_every_tile(need_alpha, monkeypatch):
    pts = lattice_cloud(2)
    gv = np.sqrt(np.random.default_rng(2).uniform(size=pts.shape[0]))
    ns = [1, 2, 4, 8, 16, 32]

    def scan():
        out = []
        for space in fresh_spaces(pts):
            out.append(_dense_ladder(space, gv, ns, need_alpha))
            g = LatticeElement(Carrier.points(space), gv)
            out.append([(r.g_n.values, r.alpha, r.achieved_error, r.lipschitz, r.pair)
                        for r in inf_convolution_ladder(g, ns)])
        return out

    at_each_tile(monkeypatch, scan)


def test_target_distances_and_oscillations_are_the_same_at_every_tile(monkeypatch):
    pts = lattice_cloud(3)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(pts.shape[0])

    def scan():
        out = []
        for space in fresh_spaces(pts):
            for size in (1, 7, 250):
                idx = np.random.default_rng(size).choice(space.n, size=size, replace=False)
                out.append(dist_to_set_all(space, [space.labels[i] for i in idx]))
            out.extend(_oscillation_within(space, values, t) for t in (0.5, 1.5, 4.0))
        return out

    at_each_tile(monkeypatch, scan)


def test_lip_counterexample_is_the_same_at_every_tile(monkeypatch):
    # 300 approach points against 300 anchors: 90,000 target distances
    ref = build_refinement("pairs", [3, 40, 300])

    def scan():
        spaces = tuple(FiniteMetricSpace.from_matrix(s.row_block(0, s.n), s.labels,
                                                     validate=False) for s in ref.spaces)
        dense = RefinementFamily(kind=ref.kind, levels=ref.levels, spaces=spaces,
                                 anchor=ref.anchor, pairs=ref.pairs)
        out = []
        for cex in (lip_counterexample(ref, 4), lip_counterexample(dense, 4)):
            out.append([cex.blow_up, cex.blow_up_pairs, cex.g.values, cex.level_rows,
                        [(r.g_n.values, r.alpha, r.lipschitz, r.pair) for r in cex.envelopes]])
        return out

    at_each_tile(monkeypatch, scan)


def test_metric_and_envelope_reports_are_byte_identical_at_every_tile(tmp_path, monkeypatch):
    pts = lattice_cloud(4)
    labels = [f"c{i:03d}" for i in range(pts.shape[0])]
    coords = tmp_path / "cloud.csv"
    coords.write_text("label,x1,x2\n" + "".join(
        f"{lab},{float(x)!r},{float(y)!r}\n" for lab, (x, y) in zip(labels, pts)))
    # a 260-point distance matrix: the default tile splits it, and it is
    # triangle-checked on the way in
    sub = FiniteMetricSpace.from_coords(pts[:260], labels[:260])
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(",".join(sub.labels) + "\n" + "".join(
        ",".join(repr(float(d)) for d in row) + "\n" for row in sub.row_block(0, sub.n)))
    target = ",".join(labels[:3])
    runs = []
    for entries in TILES[1:]:
        monkeypatch.setattr(metric, "BLOCK_ENTRIES", entries)
        out = tmp_path / f"out-{entries}"
        for space, fmt in ((coords, "coords-csv"), (matrix, "distance-csv")):
            where = out / space.stem
            assert main(["metric", "--space", str(space), "--format", fmt,
                         "--out", str(where / "metric")]) == 0
            assert main(["envelope", "--space", str(space), "--format", fmt,
                         "--set", target, "--ns", "1,2,4,8,16,32",
                         "--out", str(where / "envelope")]) == 0
        runs.append({p.relative_to(out): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(runs[0]) == 10
    assert runs[0] == runs[1]
