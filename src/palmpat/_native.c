/* palmpat's compiled helpers, loaded by _native.py through ctypes:
 *
 * - sample_reproduction, the bimodal reproduction sampler of
 *   reproduction.simulate_reproduction as a C loop on numpy's bit generator
 *   interface. It makes the same draws in the same order as the scalar Python
 *   loop (integers(i) for the parent, random() for the mode and each uniform
 *   coordinate, standard_normal(2) for each Gaussian candidate), so it writes
 *   the same bytes.
 * - nearest_distances, the uniform-grid nearest-neighbour search behind G and
 *   F. It returns the bytes of scipy's cKDTree.query: the same
 *   sqrt(dx*dx + dy*dy) with no fused multiply-add (-ffp-contract=off), and a
 *   stopping rule that is exact in floating point (see below). For G it refines
 *   a crowded grid. Cell edges are computed wherever they are read, so it
 *   allocates only the sorted points, their indices and each cell's first slot.
 *
 * _native.py compiles this file with cc on first use and links numpy's
 * libnpyrandom.a; only bitgen.h is included, so no Python.h is needed. */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>

#include "numpy/random/bitgen.h"

double random_standard_normal(bitgen_t *bitgen_state);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);

/* lo + (hi - lo) * u per coordinate, x drawn first: numpy's uniform(lo, hi) */
static void uniform(bitgen_t *bg, const double *win, double *out)
{
    out[0] = win[0] + (win[2] - win[0]) * bg->next_double(bg->state);
    out[1] = win[1] + (win[3] - win[1]) * bg->next_double(bg->state);
}

/* Fills pts (n rows of x, y) and returns the number of uniform fallbacks. */
int64_t sample_reproduction(bitgen_t *bg, int64_t n, double x0, double y0, double x1,
                            double y1, double p, double sigma, int64_t max_attempts,
                            double *pts)
{
    const double win[4] = {x0, y0, x1, y1};
    int64_t fallbacks = 0;
    uniform(bg, win, pts);
    for (int64_t i = 1; i < n; i++) {
        uint64_t k;
        double *out = pts + 2 * i;
        random_bounded_uint64_fill(bg, 0, (uint64_t)(i - 1), 1, false, &k);
        const double px = pts[2 * k], py = pts[2 * k + 1];
        if (!(bg->next_double(bg->state) < p)) {
            uniform(bg, win, out);
            continue;
        }
        int64_t attempt = 0;
        for (; attempt < max_attempts; attempt++) {
            const double zx = random_standard_normal(bg);
            const double zy = random_standard_normal(bg);
            const double cx = px + sigma * zx, cy = py + sigma * zy;
            if (x0 <= cx && cx <= x1 && y0 <= cy && cy <= y1) {
                out[0] = cx;
                out[1] = cy;
                break;
            }
        }
        if (attempt == max_attempts) {
            uniform(bg, win, out);
            fallbacks++;
        }
    }
    return fallbacks;
}

/* The work budget: nearest_distances gives up once the cells and points it has
 * visited pass this multiple of (points + queries). A uniform grid is quadratic
 * on tight clusters, where the k-d tree the caller falls back to is not;
 * ordinary patterns take 11-18 visits per point and query. Self queries refine
 * a crowded grid first (below), so the budget is reached only where refining
 * to the cap leaves the clusters crowded, as at p = 1 with sigma = 1 or 10 on
 * 1500 points in a 3000-unit square. */
#define VISITS_PER_ITEM 48

/* Self queries (G) on a crowded grid refine it. The crowding is
 * sum(count^2) / n over the cells: at n / 2 cells it measured 3.0-5.6 on
 * uniform and fit-size reproduction patterns ((0, 1) through (0.6, 70),
 * n = 1500), which keep the first grid, and 31-158 on (0.9, 10) clusters at
 * n = 500 (125-753 at n = 1500). Above CROWDED the grid takes 4x the cells and
 * counts again, up to MAX_CELLS_PER_POINT cells a point, which bounds its
 * memory. Reference queries (F) keep the first grid: refining it too made F
 * give up at (0.8, 10), (0.9, 10) and (0.9, 40), where it answers on this one. */
#define CROWDED 8
#define MAX_CELLS_PER_POINT 32

/* One axis of the grid: k cells over [lo, hi], with step = (hi - lo) / k and
 * scale = k / (hi - lo). Cell c's lower edge is computed on each read as
 * edge(a, c) = lo + c * step, which never decreases in c (rounding is monotone).
 * The axis helpers are inline: as calls, computing edges slows G and F. */
typedef struct {
    int64_t k;
    double lo, step, scale;
} axis_t;

static inline double edge(const axis_t *a, int64_t c)
{
    return a->lo + c * a->step;
}

/* The last cell whose edge is <= v (cell 0 for v below every edge): the scaled
 * guess, corrected against the edges. A point in a cell after c is therefore
 * >= edge(a, c + 1), and one in a cell before c is < edge(a, c). */
static inline int64_t axis_cell(const axis_t *a, double v)
{
    const double u = (v - a->lo) * a->scale;
    int64_t c = u < 1.0 ? 0 : u >= a->k ? a->k - 1 : (int64_t)u;
    while (c > 0 && v < edge(a, c))
        c--;
    while (c + 1 < a->k && v >= edge(a, c + 1))
        c++;
    return c;
}

/* The smallest squared distance any point outside cells [clo, chi] of this axis
 * can have from v, as cKDTree computes it: rounding is monotone, so
 * fl(|p - v|) >= fl(|edge - v|) and the squares keep that order. Infinite
 * where the block reaches the grid's border on both sides. */
static inline double axis_clearance(const axis_t *a, int64_t clo, int64_t chi, double v)
{
    double best = INFINITY;
    if (clo > 0) {
        const double d = v - edge(a, clo);
        best = d * d;
    }
    if (chi + 1 < a->k) {
        const double d = edge(a, chi + 1) - v;
        best = fmin(best, d * d);
    }
    return best;
}

/* Lays about `cells` near-square cells over [x0, x1] x [y0, y1] on *ax and *ay
 * and counts each cell's points into count[c + 1], which must start at 0.
 * Returns sum(count^2), in integers (at most n^2), as each count steps up by
 * one: (c + 1)^2 = c^2 + 2c + 1. */
static int64_t count_cells(const double *pts, int64_t n, int64_t cells, double x0, double y0,
                           double x1, double y1, axis_t *ax, axis_t *ay, int64_t *count)
{
    const double across = sqrt((double)cells) * sqrt((x1 - x0) / (y1 - y0));
    const int64_t nx = across < 1.0 ? 1 : across > cells ? cells : (int64_t)across;
    const int64_t ny = cells / nx;
    *ax = (axis_t){nx, x0, (x1 - x0) / nx, nx / (x1 - x0)};
    *ay = (axis_t){ny, y0, (y1 - y0) / ny, ny / (y1 - y0)};
    int64_t squares = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t *c = &count[axis_cell(ay, pts[2 * i + 1]) * nx + axis_cell(ax, pts[2 * i]) + 1];
        squares += 2 * (*c)++ + 1;
    }
    return squares;
}

/* out[j] = the distance from query j (rows of x, y in qs) to the nearest of the n
 * points in pts, all inside the window [x0, x1] x [y0, y1]. With qs NULL the
 * queries are the points themselves and each skips its own index (the tree's
 * second neighbour); m is then n. The points are counting-sorted into about
 * n / 2 near-square cells; for self queries, 4x as many while the grid is
 * crowded and below its cap (see CROWDED). Each query searches rings of cells
 * outward until its best squared distance is 0 or at most that of any point
 * outside the searched block; that stop is exact on any grid, so the grid's size
 * changes no output byte. The inner loop takes the minimum without a branch (the
 * query's own index reads as infinitely far), since on a fresh pattern a
 * data-dependent branch there mispredicts; only the stop at a zero distance
 * branches, hinted rare. Returns 0, -1 once the visits pass the work budget, or
 * -2 if memory runs out; out is then incomplete. */
int64_t nearest_distances(const double *pts, int64_t n, const double *qs, int64_t m,
                          double x0, double y0, double x1, double y1, double *out)
{
    int64_t cells = n / 2 > 1 ? n / 2 : 1;
    axis_t ax, ay;
    int64_t *start = calloc(cells + 1, sizeof(int64_t)), *index = malloc(n * sizeof(int64_t));
    double *sorted = malloc(2 * n * sizeof(double));
    int64_t status = -2;
    if (!(start && index && sorted))
        goto done;
    while (count_cells(pts, n, cells, x0, y0, x1, y1, &ax, &ay, start) > CROWDED * n && !qs
           && 4 * cells <= MAX_CELLS_PER_POINT * n) {
        cells *= 4;
        free(start);
        if (!(start = calloc(cells + 1, sizeof(int64_t))))
            goto done;
    }
    const int64_t nx = ax.k, ny = ay.k;

    for (int64_t c = 0; c < ny * nx; c++)
        start[c + 1] += start[c];
    for (int64_t i = 0; i < n; i++) {  /* the scatter finds each point's cell again */
        const int64_t c = axis_cell(&ay, pts[2 * i + 1]) * nx + axis_cell(&ax, pts[2 * i]);
        const int64_t at = start[c]++;
        sorted[2 * at] = pts[2 * i];
        sorted[2 * at + 1] = pts[2 * i + 1];
        index[at] = i;
    }
    for (int64_t c = ny * nx; c > 0; c--)  /* back to the first slot of each cell */
        start[c] = start[c - 1];
    start[0] = 0;

    const int64_t budget = VISITS_PER_ITEM * (n + m);
    int64_t visits = 0;
    status = -1;
    for (int64_t j = 0; j < m; j++) {
        /* self queries run in sorted order, so each cell's points stay in cache */
        const double *q = qs ? qs + 2 * j : sorted + 2 * j, qx = q[0], qy = q[1];
        const int64_t self = qs ? -1 : j;
        const int64_t cx = axis_cell(&ax, qx), cy = axis_cell(&ay, qy);
        double best = INFINITY;
        for (int64_t r = 0;; r++) {
            const int64_t xlo = cx - r > 0 ? cx - r : 0, xhi = cx + r < nx ? cx + r : nx - 1;
            const int64_t ylo = cy - r > 0 ? cy - r : 0, yhi = cy + r < ny ? cy + r : ny - 1;
            for (int64_t y = ylo; y <= yhi; y++) {
                /* the whole row on the ring's top and bottom, its two ends elsewhere */
                const bool full = y == cy - r || y == cy + r;
                for (int64_t x = full ? xlo : cx - r; x <= xhi; x += full ? 1 : 2 * r) {
                    if (x < 0)
                        continue;
                    const int64_t c = y * nx + x;
                    int64_t at = start[c];
                    for (; at < start[c + 1]; at++) {
                        const double dx = qx - sorted[2 * at], dy = qy - sorted[2 * at + 1];
                        const double d = at != self ? dx * dx + dy * dy : INFINITY;
                        best = d < best ? d : best;  /* a minsd, not a branch */
                        if (__builtin_expect(best == 0.0, 0))  /* coincident: none nearer */
                            break;
                    }
                    visits += 1 + at - start[c];
                }
            }
            if (visits > budget)
                goto done;
            const double clear = fmin(axis_clearance(&ax, xlo, xhi, qx),
                                      axis_clearance(&ay, ylo, yhi, qy));
            if (best <= clear)
                break;
        }
        out[qs ? j : index[j]] = sqrt(best);
    }
    status = 0;
done:
    free(start);
    free(index);
    free(sorted);
    return status;
}
