"""Independent brute-force references used to validate the fast paths.

Everything here is deliberately naive (full distance matrices, quadratic
loops, per-segment antiderivatives) and shares no code with the package
implementations it checks. The one exception is ``brute_fit``, which builds
on the library's own simulator, G curve and trapezoid rule to check the grid
search's bookkeeping; its F curves are ``brute_f_values`` on the documented
reference stream.
"""
import math

import numpy as np


def all_pairs_distances(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def brute_knn_distances(coords, k):
    """k smallest distances from each point to the others, ascending."""
    d = all_pairs_distances(np.asarray(coords, dtype=float))
    np.fill_diagonal(d, np.inf)
    d.sort(axis=1)
    return d[:, :k]


def brute_g_values(coords, grid_values):
    nnd = brute_knn_distances(coords, 1)[:, 0]
    return np.array([float((nnd < d).mean()) for d in grid_values])


def brute_f_values(coords, refs, grid_values):
    coords = np.asarray(coords, dtype=float)
    refs = np.asarray(refs, dtype=float)
    diff = refs[:, None, :] - coords[None, :, :]
    dmin = np.sqrt((diff ** 2).sum(axis=-1)).min(axis=1)
    return np.array([float((dmin < d).mean()) for d in grid_values])


def brute_j_values(coords, refs, grid_values):
    """(1 - G) / (1 - F) entry by entry; NaN where F is 1."""
    g = brute_g_values(coords, grid_values)
    f = brute_f_values(coords, refs, grid_values)
    return np.array([(1.0 - gv) / (1.0 - fv) if fv < 1.0 else math.nan
                     for gv, fv in zip(g, f)])


def uniform_reference_stream(window, n_ref, seed):
    """Replicates the documented reference-point draw used by the F function."""
    rng = np.random.default_rng(seed)
    return rng.uniform((window.x_min, window.y_min), (window.x_max, window.y_max),
                       size=(n_ref, 2))


def brute_reproduction(window, n, p, sigma, seed):
    """The bimodal sampler as a numpy array loop: the parent from
    ``integers(i)``, the mode from ``random()``, each uniform point from
    ``uniform(lo, hi)`` and each Gaussian candidate from ``standard_normal(2)``,
    resampled up to 1000 times. Returns (coords, number of uniform fallbacks)."""
    rng = np.random.default_rng(seed)
    lo = np.array(window.lo)
    hi = np.array(window.hi)
    pts = np.empty((n, 2))
    pts[0] = rng.uniform(lo, hi)
    fallbacks = 0
    for i in range(1, n):
        parent = pts[rng.integers(i)]
        if rng.random() < p:
            for _ in range(1000):
                cand = parent + sigma * rng.standard_normal(2)
                if window.contains(cand[0], cand[1]):
                    pts[i] = cand
                    break
            else:
                pts[i] = rng.uniform(lo, hi)
                fallbacks += 1
        else:
            pts[i] = rng.uniform(lo, hi)
    return pts, fallbacks


def brute_fit(observed, p_candidates, sigma_candidates, n_trials, grid=None, n_ref=None,
              seed=0):
    """The (p, sigma) grid search as a serial nested loop: every candidate
    validated up front, a cursor over the flat trial results, and the first
    strict minimum of the cell totals in scan order (p outer, sigma inner).
    Each trial's discrepancy is computed from its definition, with F counted
    directly on the documented draw from the reference seed."""
    from palmpat import (DistanceGrid, ReproductionParams, g_function, simulate_reproduction,
                         trapezoid_integrate)
    from palmpat.reproduction import FitResult
    from palmpat.seeding import substream_seed

    ps = [float(p) for p in p_candidates]
    sigmas = [float(s) for s in sigma_candidates]
    for p in ps:
        ReproductionParams(p, 1.0)
    for s in sigmas:
        ReproductionParams(0.0, s)
    n = len(observed)
    if grid is None:
        grid = DistanceGrid.default(observed.window)
    if n_ref is None:
        n_ref = max(1000, n)
    refs = uniform_reference_stream(observed.window, n_ref, substream_seed(seed, 0))
    obs_g = g_function(observed, grid)
    obs_f = brute_f_values(observed.coords, refs, grid.values)
    d_values = []
    for ip, p in enumerate(ps):
        for is_, s in enumerate(sigmas):
            for t in range(n_trials):
                simulated = simulate_reproduction(observed.window, n, ReproductionParams(p, s),
                                                  substream_seed(seed, 1, ip, is_, t))
                g_sim = g_function(simulated, grid)
                f_sim = brute_f_values(simulated.coords, refs, grid.values)
                d_values.append(trapezoid_integrate(grid.values, np.abs(obs_g - g_sim))
                                + trapezoid_integrate(grid.values, np.abs(obs_f - f_sim)))
    cell_p, cell_sigma, rows, totals = [], [], [], []
    best, d_min, cursor = None, math.inf, 0
    for p in ps:
        for s in sigmas:
            d_trials = d_values[cursor:cursor + n_trials]
            cursor += n_trials
            d_total = float(sum(d_trials))
            cell_p.append(p)
            cell_sigma.append(s)
            rows.append(d_trials)
            totals.append(d_total)
            if d_total < d_min:
                d_min, best = d_total, ReproductionParams(p, s)
    return FitResult(best=best, d_min=float(d_min), p=np.array(cell_p),
                     sigma=np.array(cell_sigma), d=np.array(rows), d_total=np.array(totals))


def assert_same_fit(result, expected):
    """Two fit results agree bit for bit: best cell, d_min and every array's
    shape, dtype and bytes."""
    assert result.best == expected.best
    assert result.d_min == expected.d_min
    for name in ("p", "sigma", "d", "d_total"):
        got, want = getattr(result, name), getattr(expected, name)
        assert (got.shape, got.dtype) == (want.shape, want.dtype), name
        assert got.tobytes() == want.tobytes(), name


def brute_iou(a, b):
    wx = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    wy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, wx) * max(0.0, wy)
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    if inter == 0.0:
        return 0.0
    return inter / (area_a + area_b - inter)


def brute_nms(boxes, threshold):
    """Quadratic greedy suppression with explicit suppressed-flag bookkeeping."""
    boxes = list(boxes)
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].confidence, i))
    suppressed = [False] * len(boxes)
    kept = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        kept.append(boxes[i])
        for j in order[pos + 1:]:
            if not suppressed[j] and brute_iou(boxes[i], boxes[j]) >= threshold:
                suppressed[j] = True
    return kept


def brute_close_pairs(a, b, reach, same=False):
    """Every (i, j) with both coordinate differences at most ``reach``, by a
    double loop in Python floats (a difference past the float range is inf);
    with ``same`` only i < j, as a self search of ``a`` returns them."""
    a, b = [tuple(map(float, row)) for row in a], [tuple(map(float, row)) for row in b]
    return {(i, j) for i, (ax, ay) in enumerate(a) for j, (bx, by) in enumerate(b)
            if (i < j or not same) and abs(ax - bx) <= reach and abs(ay - by) <= reach}


def brute_to_global(layout, rows):
    """Patch-local (tile_row, tile_col, box...) rows moved into global
    coordinates one row at a time with Python floats: the tile offset is
    ``origin + index * stride`` with an exact integer product, then each
    bound gets its axis offset added."""
    out = []
    for r, c, x0, y0, x1, y1, conf in rows:
        dx = layout.origin[0] + int(c) * layout.stride
        dy = layout.origin[1] + int(r) * layout.stride
        out.append((x0 + dx, y0 + dy, x1 + dx, y1 + dy, conf))
    return out


def piecewise_linear_integral(xs, ys):
    """Exact integral of the linear interpolant via the midpoint rule, which
    is also exact for degree-1 segments but uses different arithmetic."""
    total = 0.0
    for (x0, x1, y0, y1) in zip(xs[:-1], xs[1:], ys[:-1], ys[1:]):
        xm = 0.5 * (x0 + x1)
        t = (xm - x0) / (x1 - x0)
        total += (x1 - x0) * (y0 + t * (y1 - y0))
    return total


# Fixed-scale CSR rejection rule used by the calibration checks. The rank
# p-values are exactly valid pointwise, so testing at three pre-chosen grid
# positions with a Bonferroni split keeps the overall level at or below 5%
# regardless of the dependence between grid points. The positions sit at
# 4%, 8% and 12% of the grid, the short-distance range where
# nearest-neighbor statistics discriminate.
REJECTION_GRID_FRACTIONS = (0.04, 0.08, 0.12)


def rejects_csr_at_5pct(result) -> bool:
    n = len(result.p_values)
    alpha_each = 0.05 / len(REJECTION_GRID_FRACTIONS)
    for frac in REJECTION_GRID_FRACTIONS:
        idx = int(round(frac * n))
        p = result.p_values[idx]
        if np.isfinite(p) and p <= alpha_each:
            return True
    return False


def brute_match(detected, labeled, radius):
    """Greedy nearest-first one-to-one matching by a per-label loop over
    every detection. Returns (distance, labeled index, detected index) in
    match order; ties go to the lower labeled, then detected, index."""
    pairs = []
    for li, (lx, ly) in enumerate(labeled):
        for di, (dx, dy) in enumerate(detected):
            dist = math.hypot(dx - lx, dy - ly)
            if dist <= radius:
                pairs.append((dist, li, di))
    pairs.sort()
    used_labeled, used_detected, matched = set(), set(), []
    for dist, li, di in pairs:
        if li not in used_labeled and di not in used_detected:
            used_labeled.add(li)
            used_detected.add(di)
            matched.append((dist, li, di))
    return matched
