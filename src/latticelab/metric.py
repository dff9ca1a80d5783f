"""Finite metric spaces, isolation radii, and close-pair search.

Spaces are either matrix-backed (an explicit validated distance matrix) or
coordinate-backed (points in R^k under the Euclidean distance, with distance
rows generated on demand).  Coordinate backing is what makes the larger
refinement levels tractable: a 10^4-point space never materialises its
10^8-entry matrix, and all scans below run over bounded row blocks.

One-column coordinate spaces lie on the real line, where nearest
neighbours and the steepest slope sit at adjacent points of the sorted
order.  Those spaces take that route (selected by geometry alone); the
dense row-block scans serve matrix and k-dim spaces.  Isolation radii on
two or three columns take a sorted sweep that reads only nearby pairs.
The closest pair is read from the isolation radii, or scanned over the
triangle tiles when some points are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, MetricValidationError

#: Relative triangle-inequality slack, scaled by the largest distance.
TRIANGLE_RTOL = 1e-12

#: Largest matrix (entries) we will materialise or fully triangle-check.
MATERIALIZE_LIMIT = 25_000_000
TRIANGLE_CHECK_LIMIT = 2048

#: Max recorded axiom violations before the report is truncated.
VIOLATION_CAP = 1000

#: Distance entries a scan holds at once: a 480 kB tile, so that a scan's
#: few passes over each tile hit the L2 cache rather than main memory.
BLOCK_ENTRIES = 60_000

#: Most coordinate columns for which isolation radii take the sorted sweep
#: rather than the row tiles.  The sweep prunes by the gap in one column,
#: which bounds less of the distance as columns are added.  Measured on
#: 2000 standard normal points (2-vCPU VM), in distances computed per
#: ordered pair: in 3-D it computed 0.17 and took 12 ms against 49 ms for
#: the tiles; in 10-D it computed 1.14 (both sides, plus the overshoot of
#: each last chunk) and took 185 ms against 134 ms.
SWEEP_MAX_COLUMNS = 3


def _default_labels(n: int) -> tuple[str, ...]:
    width = max(1, len(str(n - 1)))
    return tuple(f"p{i:0{width}d}" for i in range(n))


class FiniteMetricSpace:
    """A finite labelled metric space.

    Construct through :meth:`from_matrix` (full validation) or
    :meth:`from_coords` (triangle inequality inherited from the embedding,
    only duplicate points need checking).
    """

    def __init__(self, labels, *, matrix=None, coords=None):
        if (matrix is None) == (coords is None):
            raise InputError("exactly one of matrix/coords must be given")
        self.labels = tuple(str(x) for x in labels)
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate labels in metric space")
        backing = np.array(coords if matrix is None else matrix, dtype=np.float64)
        backing.setflags(write=False)  # a copy: no query writes the caller's array
        self._matrix, self._coords = (None, backing) if matrix is None else (backing, None)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._line_order = None
        self._radii = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, labels=None, *, validate: bool = True):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {matrix.shape}")
        n = matrix.shape[0]
        if n < 1:
            raise InputError("metric space needs at least one point")
        if labels is None:
            labels = _default_labels(n)
        if len(labels) != n:
            raise InputError(f"{len(labels)} labels for a {n}x{n} matrix")
        if validate:
            validate_matrix(matrix)
        return cls(labels, matrix=matrix)

    @classmethod
    def from_coords(cls, coords, labels=None):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[0] < 1:
            raise InputError("coords must be a non-empty (n, k) array")
        if not np.all(np.isfinite(coords)):
            raise InputError("coords contain non-finite entries")
        if labels is None:
            labels = _default_labels(coords.shape[0])
        if len(labels) != coords.shape[0]:
            raise InputError(f"{len(labels)} labels for {coords.shape[0]} points")
        # every pair's squared distance is at most the sum of the squared
        # column spans (on one column, the distance is the span itself)
        with np.errstate(over="ignore"):
            spans = np.ptp(coords, axis=0)
            reach = spans[0] if coords.shape[1] == 1 else np.sum(spans * spans)
        if not np.isfinite(reach):
            c = int(np.argmax(spans))
            lo, hi = (str(labels[int(f(coords[:, c]))]) for f in (np.argmin, np.argmax))
            raise InputError(f"distances overflow: points {lo!r} and {hi!r} lie "
                             f"{float(spans[c])!r} apart in coordinate {c + 1}")
        dup = _duplicate_rows(coords)
        if dup:
            labels = tuple(str(x) for x in labels)
            viols = [
                ("positivity", (i, j), f"points {labels[i]!r} and {labels[j]!r} coincide")
                for i, j in dup[:VIOLATION_CAP]
            ]
            raise MetricValidationError(viols, truncated=len(dup) > VIOLATION_CAP)
        return cls(labels, coords=coords)

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown label {label!r}") from None

    def row_block(self, lo: int, hi: int) -> np.ndarray:
        """Distance rows lo..hi-1 against every point, shape (hi-lo, n)."""
        if self._matrix is not None:
            return self._matrix[lo:hi]
        return _coord_distances(self._coords[lo:hi], self._coords)

    def distances(self, rows, cols) -> np.ndarray:
        """Distances d(rows[r], cols[c]) for index arrays, shape (len(rows), len(cols))."""
        if self._matrix is not None:
            return self._matrix[np.ix_(rows, cols)]
        return _coord_distances(self._coords[rows], self._coords[cols])

    def row(self, i: int) -> np.ndarray:
        return self.row_block(i, i + 1)[0]

    def distance(self, i, j) -> float:
        if isinstance(i, str):
            i = self.index(i)
        if isinstance(j, str):
            j = self.index(j)
        return float(self.distances([i], [j])[0, 0])

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self.n * self.n > MATERIALIZE_LIMIT:
                raise InputError(
                    f"{self.n}x{self.n} distance matrix exceeds the materialisation "
                    "limit; use row_block for chunked access"
                )
            m = self.row_block(0, self.n)
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    @property
    def coords(self):
        return self._coords

    @property
    def line_order(self):
        """Point indices by increasing coordinate for a one-column coordinate
        space, else None.  Computed once; the coordinates are read-only."""
        if self._coords is None or self._coords.shape[1] != 1:
            return None
        if self._line_order is None:
            order = np.argsort(self._coords[:, 0], kind="stable")
            order.setflags(write=False)
            self._line_order = order
        return self._line_order

    def block_rows(self):
        """Yield (lo, hi) row windows sized to bounded memory."""
        yield from row_windows(self.n, self.n)

    def subspace(self, labels) -> "FiniteMetricSpace":
        lead = tuple(labels) == self.labels[:len(labels)]  # leading points: a slice
        idx = slice(0, len(labels)) if lead else [self.index(lab) for lab in labels]
        if self._coords is not None:
            return FiniteMetricSpace(labels, coords=self._coords[idx])
        rows = (idx, idx) if lead else np.ix_(idx, idx)
        return FiniteMetricSpace(labels, matrix=self._matrix[rows])

    def same_points(self, other: "FiniteMetricSpace") -> bool:
        return self is other or self.labels == other.labels

    def __repr__(self):
        kind = "matrix" if self._matrix is not None else "coords"
        return f"FiniteMetricSpace(n={self.n}, backing={kind})"


def row_windows(count: int, width: int):
    """Yield (lo, hi) windows over ``count`` rows of ``width`` distances each,
    with about BLOCK_ENTRIES distances per window."""
    step = max(1, BLOCK_ENTRIES // max(1, width))
    for lo in range(0, count, step):
        yield lo, min(count, lo + step)


def _coord_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of two coordinate arrays, summed
    one column at a time: the block costs itself plus one scratch array."""
    out = np.subtract.outer(a[:, 0], b[:, 0])
    if a.shape[1] == 1:
        return np.abs(out, out=out)
    np.multiply(out, out, out=out)
    tmp = np.empty_like(out)
    for c in range(1, a.shape[1]):
        np.subtract.outer(a[:, c], b[:, c], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        out += tmp
    return np.sqrt(out, out=out)


def upper_blocks(space: FiniteMetricSpace):
    """Yield (lo, tile) over the upper triangle: the fresh tile holds rows
    lo..hi-1 against columns lo..n-1, with inf on and below the diagonal, so
    each unordered pair (i, j), i < j, appears once, at tile[i - lo, j - lo]."""
    for lo, hi in space.block_rows():
        tile = space.distances(np.arange(lo, hi), np.arange(lo, space.n))
        np.copyto(tile[:, :hi - lo], np.inf, where=np.tri(hi - lo, dtype=bool))
        yield lo, tile


def _duplicate_rows(coords: np.ndarray):
    order = np.lexsort(coords.T[::-1])
    sorted_c = coords[order]
    same = np.all(sorted_c[1:] == sorted_c[:-1], axis=1)
    pairs = []
    for pos in np.flatnonzero(same):
        i, j = int(order[pos]), int(order[pos + 1])
        pairs.append((min(i, j), max(i, j)))
    return sorted(pairs)


def validate_matrix(matrix: np.ndarray) -> None:
    """Check all metric axioms, collecting every violation.

    Raises :class:`MetricValidationError` listing each violated axiom with
    the offending pair or triple.  The triangle scan is cubic and therefore
    refuses matrices beyond TRIANGLE_CHECK_LIMIT points; coordinate-backed
    spaces never need it.
    """
    n = matrix.shape[0]
    viols = []
    truncated = False

    def push(axiom, idx, detail):
        nonlocal truncated
        if len(viols) < VIOLATION_CAP:
            viols.append((axiom, idx, detail))
        else:
            truncated = True

    bad = np.argwhere(~np.isfinite(matrix))
    for i, j in bad:
        push("finiteness", (int(i), int(j)), f"entry ({i},{j}) is not finite")
    if len(bad) == 0:
        for i in np.flatnonzero(np.diagonal(matrix) != 0.0):
            push("zero-diagonal", (int(i), int(i)), f"d({i},{i}) = {float(matrix[i, i])!r} != 0")
        asym = np.argwhere(matrix != matrix.T)
        for i, j in asym:
            if i < j:
                push(
                    "symmetry",
                    (int(i), int(j)),
                    f"d({i},{j}) = {float(matrix[i, j])!r} but d({j},{i}) = {float(matrix[j, i])!r}",
                )
        offdiag = ~np.eye(n, dtype=bool)
        nonpos = np.argwhere((matrix <= 0.0) & offdiag)
        for i, j in nonpos:
            if i < j:
                push("positivity", (int(i), int(j)), f"d({i},{j}) = {float(matrix[i, j])!r} <= 0")
        if not viols:
            if n > TRIANGLE_CHECK_LIMIT:
                raise InputError(
                    f"matrix with {n} points is too large for the cubic triangle "
                    "scan; supply coordinates instead"
                )
            tol = TRIANGLE_RTOL * float(matrix.max(initial=0.0))
            # best[i, k] = min over pivots j of d(i,j) + d(j,k), plus tol: as
            # fl(x + tol) is monotone in x, some triple breaks the bound below
            # exactly when the smallest sum does, so the pivot loop that names
            # the triples runs only then.  A sum past the float range is inf,
            # and the true sum does bound the entry.
            with np.errstate(over="ignore"):
                best = np.full_like(matrix, np.inf)
                through = np.empty_like(matrix)
                for j in range(n):
                    np.add.outer(matrix[:, j], matrix[j, :], out=through)
                    np.minimum(best, through, out=best)
                best += tol
                if not np.any(matrix > best):
                    return
                for j in range(n):
                    through = matrix[:, j][:, None] + matrix[j, :][None, :]
                    bad_ik = np.argwhere(matrix > through + tol)
                    for i, k in bad_ik:
                        if i > k:  # the matrix is symmetric here; skip mirrors
                            continue
                        push(
                            "triangle",
                            (int(i), int(j), int(k)),
                            f"d({i},{k}) = {float(matrix[i, k])!r} > d({i},{j}) + d({j},{k}) "
                            f"= {float(through[i, k])!r}",
                        )
                    if truncated:
                        break
    if viols:
        raise MetricValidationError(viols, truncated=truncated)


@dataclass(frozen=True)
class IsolationProfile:
    """Per-point isolation radii together with their minimum."""

    labels: tuple[str, ...]
    radii: np.ndarray
    delta: float

    def radius(self, label: str) -> float:
        return float(self.radii[self.labels.index(label)])


def isolation_radii(space: FiniteMetricSpace) -> np.ndarray:
    """d(x) = min over y != x of d(x, y) for every point; inf for a singleton.
    Computed once per space, like its line order; the array is read-only.

    The route follows the geometry: adjacent gaps on the line, a sorted
    sweep on coordinates with up to SWEEP_MAX_COLUMNS columns, and the row
    tiles for matrices and wider coordinates.  All three give bitwise the
    radii of the tiles."""
    if space._radii is not None:
        return space._radii
    order = space.line_order
    if space.n < 2:
        out = np.full(space.n, np.inf)
    elif order is not None:
        # the sorted coordinates increase strictly and float subtraction
        # rounds monotonically, so no point is nearer than an adjacent one
        gaps = np.diff(space.coords[order, 0])
        out = np.empty(space.n)
        out[order] = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    elif space.coords is not None and space.coords.shape[1] <= SWEEP_MAX_COLUMNS:
        out = _sweep_radii(space.coords)
    else:
        out = _tile_radii(space)
    out.setflags(write=False)
    space._radii = out
    return out


def _tile_radii(space: FiniteMetricSpace) -> np.ndarray:
    """Isolation radii from every distance, one row tile at a time."""
    out = np.empty(space.n)
    for lo, hi in space.block_rows():
        block = space.row_block(lo, hi)
        block = block if block.flags.writeable else block.copy()
        np.fill_diagonal(block[:, lo:], np.inf)  # each point to itself
        out[lo:hi] = block.min(axis=1)
    return out


def _sweep_radii(coords: np.ndarray) -> np.ndarray:
    """Isolation radii of two or more distinct points by a sorted sweep
    (Hinrichs, Nievergelt & Schorn, IPL 26, 1988).

    The points are sorted, stably, on the column of widest span.  Each point
    scans its sorted neighbours forward, then backward, in chunks of
    offsets of doubling width.  It stops in a direction once the squared
    key gap fl(dx*dx) at its next offset reaches its smallest squared
    distance so far: that gap is one of the non-negative terms of every
    later squared distance on that side, and it grows with the offset.
    Squared distances are summed as _coord_distances sums them (column
    order, square, sum) and sqrt is monotone, so the radii are bitwise
    those of the tiles.
    """
    n, k = coords.shape
    c = int(np.argmax(np.ptp(coords, axis=0)))
    order = np.argsort(coords[:, c], kind="stable")
    # the columns in sorted order, padded on either side with n points that
    # lie infinitely far along the sort key: a window never leaves the
    # array, and a scan that reaches the padding stops there
    cols = np.zeros((k, 3 * n))
    cols[:, n:2 * n] = coords[order].T
    cols[c, :n], cols[c, 2 * n:] = -np.inf, np.inf
    best = np.full(3 * n, np.inf)  # smallest squared distance, by padded position
    for sign in (1, -1):
        active = np.arange(n) + n  # padded positions still scanning this side
        first, width = 1, 8
        while True:
            gap = cols[c, active + sign * first] - cols[c, active]
            active = active[gap * gap < best[active]]
            if not active.size:
                break
            width = min(width, n - first)
            # offsets first..first+width-1 on this side
            lo = first if sign > 0 else 1 - first - width
            rows = max(1, BLOCK_ENTRIES // (3 * width))
            for r in range(0, active.size, rows):
                at = active[r:r + rows]
                best[at] = np.minimum(best[at], _nearest_in_windows(cols, at, lo, width))
            first += width
            width *= 2
    out = np.empty(n)
    out[order] = np.sqrt(best[n:2 * n])
    return out


def _nearest_in_windows(cols, at, lo, width):
    """For each padded position p in ``at``, the smallest squared distance
    from p to the points at p + lo .. p + lo + width - 1, summed column by
    column as _coord_distances sums them."""
    window = np.add.outer(at + lo, np.arange(width))
    total, term = np.empty(window.shape), np.empty(window.shape)
    for c, col in enumerate(cols):
        part = term if c else total
        np.take(col, window, out=part)
        part -= col[at, None]
        part *= part
        if c:
            total += term
    return total.min(axis=1)


def isolation_radius(space: FiniteMetricSpace, label: str) -> float:
    return float(isolation_radii(space)[space.index(label)])


def isolation_profile(space: FiniteMetricSpace) -> IsolationProfile:
    radii = isolation_radii(space)
    return IsolationProfile(space.labels, radii, float(radii.min()))


def discreteness_constant(space: FiniteMetricSpace) -> float:
    """Infimum of isolation radii; the uniform-discreteness constant."""
    return float(isolation_radii(space).min())


def dist_to_set(space: FiniteMetricSpace, label: str, targets) -> float:
    targets = list(targets)
    if not targets:
        raise InputError("dist_to_set needs a non-empty target set")
    idx = np.array([space.index(t) for t in targets], dtype=np.intp)
    return float(space.distances([space.index(label)], idx).min())


def dist_to_set_all(space: FiniteMetricSpace, targets) -> np.ndarray:
    """Distance from every point to the label set ``targets``."""
    targets = list(targets)
    if not targets:
        raise InputError("dist_to_set needs a non-empty target set")
    idx = np.array([space.index(t) for t in targets], dtype=np.intp)
    if space.line_order is not None:
        # the nearest target is the one just below or just above each point
        ts = np.sort(space.coords[idx, 0])
        xs = space.coords[:, 0]
        pos = np.searchsorted(ts, xs)
        below = ts[np.maximum(pos - 1, 0)]
        above = ts[np.minimum(pos, ts.size - 1)]
        return np.minimum(np.abs(xs - below), np.abs(xs - above))
    # only the target columns: blocks of n x |A| distances
    out = np.empty(space.n)
    for lo, hi in row_windows(space.n, idx.size):
        out[lo:hi] = space.distances(np.arange(lo, hi), idx).min(axis=1)
    return out


def find_close_pair(space: FiniteMetricSpace, excluded, eps: float):
    """The closest pair of distinct points outside ``excluded``, as labels
    in index order, when it lies closer than eps; else None.  Ties go to
    the smallest index pair.

    With nothing excluded the pair comes from the cached isolation radii:
    every pair at distance delta has both ends at radius delta, so the
    first point of radius delta and its first neighbour at delta form the
    smallest such index pair.  With exclusions the triangle tiles are
    scanned over the allowed points.
    """
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    allowed = np.ones(space.n, dtype=bool)
    allowed[[space.index(lab) for lab in set(excluded)]] = False  # unknown labels raise
    if allowed.sum() < 2:
        return None
    if not allowed.all():
        pair = _scan_close_pair(space, allowed, eps)
    else:
        radii = isolation_radii(space)
        i = int(radii.argmin())
        hits = np.flatnonzero(space.row(i) == radii[i])
        pair = (i, int(hits[hits != i][0])) if radii[i] < eps else None
    return None if pair is None else (space.labels[pair[0]], space.labels[pair[1]])


def _scan_close_pair(space, allowed, eps):
    """The allowed index pair (i < j) of smallest distance below eps, ties
    by index pair, or None.  Blocks are visited in increasing row order and
    the flat argmin is the first minimum in row-major order, so the
    tie-break is deterministic."""
    best = None
    for lo, tile in upper_blocks(space):
        np.copyto(tile, np.inf, where=~allowed[None, lo:] | ~allowed[lo:lo + len(tile), None])
        flat = int(tile.argmin())
        bmin = float(tile.flat[flat])
        if bmin < eps and (best is None or bmin < best[0]):
            r, c = divmod(flat, tile.shape[1])
            best = (bmin, lo + r, lo + c)
    return None if best is None else best[1:]


def max_slope(space: FiniteMetricSpace, values: np.ndarray):
    """Largest |f(x) - f(y)| / d(x, y) over distinct points, with its pair.

    ``values`` may also be a (K, n) stack of functions: the result is then
    a list of K (slope, pair) results from one pass over the distance
    blocks.  Ties resolve to the lexicographically smallest index pair.  On
    the line only adjacent pairs are compared: a chord spanning several of
    them can read a few ulps above its steepest part after rounding, so the
    value may sit that far below the all-pairs maximum.
    """
    if space.n < 2:
        raise InputError("max_slope needs at least two points")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1] != space.n:
        raise InputError("values length does not match the space")
    if not np.all(np.isfinite(values)):
        raise InputError("max_slope needs finite values")
    stack = np.atleast_2d(values)
    order = space.line_order
    if order is not None:
        # a chord slope is a convex combination of the slopes between the
        # consecutive points it spans, so the maximum sits at an adjacent pair
        slopes = np.abs(np.diff(stack[:, order], axis=1)) / np.diff(space.coords[order, 0])
        top = slopes.max(axis=1)
        lo, hi = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
        rank = np.empty(lo.size, dtype=np.intp)
        rank[np.lexsort((hi, lo))] = np.arange(lo.size)
        # per row, the smallest index pair among its steepest adjacent pairs
        at = np.where(slopes == top[:, None], rank, lo.size).argmin(axis=1)
        best = [(float(m), (int(lo[p]), int(hi[p]))) for m, p in zip(top, at)]
    else:
        best = [(-np.inf, (0, 1))] * len(stack)
        for lo, d in upper_blocks(space):
            ratio = np.empty_like(d)
            for k, v in enumerate(stack):
                np.subtract.outer(v[lo:lo + d.shape[0]], v[lo:], out=ratio)
                np.abs(ratio, out=ratio)
                ratio /= d  # 0 on and below the diagonal
                # the flat argmax is the first maximum in row-major order; a
                # zero maximum ties every pair, whose first is (lo, lo + 1)
                flat = int(ratio.argmax())
                m = float(ratio.flat[flat])
                if m > best[k][0]:
                    r, c = divmod(flat, d.shape[1]) if m > 0.0 else (0, 1)
                    best[k] = (m, (lo + r, lo + c))
    out = [(m, (space.labels[i], space.labels[j])) for m, (i, j) in best]
    return out if values.ndim == 2 else out[0]
