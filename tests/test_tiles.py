"""Every dense distance scan gives bitwise the same result at any tile size.

Each scan runs with a 100-entry tile (one row per tile on these spaces, so
ties and maxima straddle many tile seams), with the default tile, and with
a 4,000,000-entry block, which holds each of these spaces whole.  The
spaces have more than metric.BLOCK_ENTRIES distances, so the default tile
splits them too.  The sorted sweep, whose chunks are sized by the same
constant, gives bitwise the radii of the tiles at each of these sizes.
"""

import tracemalloc

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


def full_row_ladder(space, gv, ns, need_alpha):
    """The ladder over every ordered pair, a block of full distance rows at a time."""
    env = np.empty((len(ns), space.n))
    alpha_raw = np.zeros(len(ns))
    with np.errstate(over="ignore"):
        for lo, hi in space.block_rows():
            block = space.row_block(lo, hi)
            buf = np.empty_like(block)
            gaps = np.abs(gv[lo:hi, None] - gv[None, :]) if need_alpha else None
            for k, n in enumerate(ns):
                np.multiply(block, float(n), out=buf)
                buf += gv[None, :]
                env[k, lo:hi] = buf.min(axis=1)
                if need_alpha:
                    np.multiply(block, float(n), out=buf)
                    np.subtract(gaps, buf, out=buf)
                    alpha_raw[k] = max(alpha_raw[k], float(buf.max()))
    return env, alpha_raw


@pytest.mark.parametrize("need_alpha", [True, False])
def test_the_g_ordered_ladder_is_bitwise_the_full_row_ladder(need_alpha, monkeypatch):
    """Integer values tie often, so the sort's stable order and every tie
    straddle tile seams; zeros of both signs meet at the diagonal; values
    near 1e307 and rungs of 1e300 and 1e308 take n*d past the float range."""
    pts = lattice_cloud(5)
    n = pts.shape[0]
    rng = np.random.default_rng(5)
    ints = rng.integers(-3, 4, size=n).astype(np.float64)
    zeros = np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0)
    stack = [ints, np.where(ints == 0.0, zeros, ints), zeros,
             np.where(ints > 0.0, 1e307 * ints, zeros), rng.standard_normal(n)]
    ns = [1, 3, 10**300, 10**308]
    got = at_each_tile(monkeypatch, lambda: [
        _dense_ladder(space, gv, ns, need_alpha)
        for space in fresh_spaces(pts) for gv in stack])
    monkeypatch.setattr(metric, "BLOCK_ENTRIES", 100)
    want = [full_row_ladder(space, gv, ns, need_alpha)
            for space in fresh_spaces(pts) for gv in stack]
    assert bits(got) == bits(want)
    with np.errstate(over="ignore"):
        assert np.isinf(float(ns[-1]) * fresh_spaces(pts)[0].row_block(0, n)).any()


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


@pytest.mark.parametrize("seed", range(4))
def test_line_oscillations_equal_the_tiles_at_every_tile(seed, monkeypatch):
    """The line route reads each point's run of sorted neighbours within t.
    On a coarse decimal grid many pairs sit exactly at a drawn t, and half
    the drawn t are distances d = y - x with x + d != y, where searchsorted
    misplaces a run's end and the tiles' own test settles it; the tiles
    read the matrix twin in index order."""
    rng = np.random.default_rng(seed)
    pts = np.unique(np.round(rng.uniform(-3.0, 3.0, 500), 2)) * (1.0, 0.1, 7.0, 1e-3)[seed]
    rng.shuffle(pts)
    # the coordinates themselves make the oscillation the largest distance
    # <= t, which a run one point too short or too long changes
    values = np.stack([rng.integers(0, 3, pts.size) * 0.5, rng.standard_normal(pts.size), pts])
    lo, hi = np.triu_indices(pts.size, 1)
    near, far = np.minimum(pts[lo], pts[hi]), np.maximum(pts[lo], pts[hi])
    gaps = far - near
    off = np.flatnonzero(near + gaps != far)  # x + t rounds past or short of the far point
    picked = np.concatenate([rng.choice(off, 8), rng.integers(0, gaps.size, 8)])
    ts = [0.0, -1.0, np.nan, np.inf, 1e-300] + gaps[picked].tolist()
    line, dense = fresh_spaces(pts[:, None])
    assert line.line_order is not None and dense.line_order is None

    def scan():
        return [[_oscillation_within(space, v, t) for v in values for t in ts]
                for space in (line, dense)]

    got = at_each_tile(monkeypatch, scan)
    assert bits(got[0]) == bits(got[1])
    # on the normal values, some drawn t sees less than t = inf, which sees all
    drawn, everything = got[0][len(ts) + 5:], got[0][len(ts) + 3]
    assert any(0.0 < r < everything for r in drawn)


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


# ---------------------------------------------------------------------------
# the sorted sweep against the tiles


def _clusters(rng, n, k=2):
    centres = rng.uniform(0.15, 0.85, (6, k))
    scales = rng.uniform(0.03, 0.12, 6)
    which = rng.integers(0, 6, n)
    return centres[which] + rng.normal(size=(n, k)) * scales[which, None]


def _grid(m):
    return np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2) * 0.1


def _circle(n):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _parallel_lines(rng, n):
    x = rng.uniform(0.0, 1.0, n)  # every sort key twice, 1e-9 apart across
    return np.concatenate([np.column_stack([x, np.zeros(n)]),
                           np.column_stack([x, np.full(n, 1e-9)])])


SWEEP_INPUTS = {
    "clusters": lambda rng: _clusters(rng, 2000),
    "uniform": lambda rng: rng.uniform(size=(1500, 2)),
    "grid-55x55": lambda rng: _grid(55),
    "circle": lambda rng: _circle(1500),
    "parallel-lines": lambda rng: _parallel_lines(rng, 800),
    "3-d": lambda rng: _clusters(rng, 1500, k=3),
    "two-points": lambda rng: rng.uniform(size=(2, 2)),
    "three-points-3-d": lambda rng: rng.uniform(size=(3, 3)),
    "near-1e-150": lambda rng: rng.uniform(size=(800, 2)) * 1e-150,
    "squares-underflow": lambda rng: rng.uniform(size=(800, 3)) * 1e-160,
    "near-1e150": lambda rng: rng.uniform(size=(800, 2)) * 1e150,
}


@pytest.mark.parametrize("name", SWEEP_INPUTS)
def test_sweep_radii_equal_the_tiles_at_every_tile(name, monkeypatch):
    pts = SWEEP_INPUTS[name](np.random.default_rng(len(name)))

    def scan():
        space = FiniteMetricSpace.from_coords(pts)
        return [metric._sweep_radii(space.coords), metric._tile_radii(space),
                isolation_radii(space)]

    sweep, tiles, routed = at_each_tile(monkeypatch, scan)
    assert bits(sweep) == bits(tiles) == bits(routed)
    if name == "squares-underflow":
        assert np.any(sweep == 0.0)  # some pairs' squared distances round to 0


@pytest.mark.parametrize("backing, route", [
    ("1 column", None), ("2 columns", "sweep"), ("3 columns", "sweep"),
    ("4 columns", "tile"), ("matrix", "tile"),
])
def test_isolation_radii_take_the_route_of_their_geometry(backing, route, monkeypatch):
    rng = np.random.default_rng(5)
    if backing == "matrix":
        space = fresh_spaces(rng.uniform(size=(50, 2)))[1]
    else:
        space = FiniteMetricSpace.from_coords(rng.uniform(size=(50, int(backing[0]))))
    taken = []
    for name in ("sweep", "tile"):
        real = getattr(metric, f"_{name}_radii")
        monkeypatch.setattr(metric, f"_{name}_radii",
                            lambda *a, real=real, name=name: taken.append(name) or real(*a))
    isolation_radii(space)
    assert taken == ([route] if route else [])


def test_the_sweep_peaks_no_higher_than_the_tiles():
    space = FiniteMetricSpace.from_coords(_clusters(np.random.default_rng(3), 3000))
    peaks = []
    for scan, arg in ((metric._sweep_radii, space.coords), (metric._tile_radii, space)):
        tracemalloc.start()
        try:
            scan(arg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]
