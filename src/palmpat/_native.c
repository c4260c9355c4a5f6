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
 *   stopping rule that is exact in floating point (see below).
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
 * ordinary patterns take 11-18 visits per point and query. */
#define VISITS_PER_ITEM 48

/* One axis of the grid: k cells whose lower edges edge[0..k-1] never decrease. */
typedef struct {
    int64_t k;
    double lo, scale, *edge;
} axis_t;

static bool axis_init(axis_t *a, int64_t k, double lo, double hi)
{
    a->k = k;
    a->lo = lo;
    a->scale = k / (hi - lo);
    a->edge = malloc(k * sizeof(double));
    for (int64_t c = 0; a->edge && c < k; c++)
        a->edge[c] = lo + c * ((hi - lo) / k);
    return a->edge != NULL;
}

/* The last cell whose edge is <= v (cell 0 for v below every edge): the scaled
 * guess, corrected against the stored edges. A point in a cell after c is
 * therefore >= edge[c + 1], and one in a cell before c is < edge[c]. */
static int64_t axis_cell(const axis_t *a, double v)
{
    const double u = (v - a->lo) * a->scale;
    int64_t c = u < 1.0 ? 0 : u >= a->k ? a->k - 1 : (int64_t)u;
    while (c > 0 && v < a->edge[c])
        c--;
    while (c + 1 < a->k && v >= a->edge[c + 1])
        c++;
    return c;
}

/* The smallest squared distance any point outside cells [clo, chi] of this axis
 * can have from v, as cKDTree computes it: rounding is monotone, so
 * fl(|p - v|) >= fl(|edge - v|) and the squares keep that order. Infinite
 * where the block reaches the grid's border on both sides. */
static double axis_clearance(const axis_t *a, int64_t clo, int64_t chi, double v)
{
    double best = INFINITY;
    if (clo > 0) {
        const double d = v - a->edge[clo];
        best = d * d;
    }
    if (chi + 1 < a->k) {
        const double d = a->edge[chi + 1] - v;
        best = fmin(best, d * d);
    }
    return best;
}

/* out[j] = the distance from query j (rows of x, y in qs) to the nearest of the n
 * points in pts, all inside the window [x0, x1] x [y0, y1]. With qs NULL the
 * queries are the points themselves and each skips its own index (the tree's
 * second neighbour); m is then n. The points are counting-sorted into about
 * n / 2 near-square cells, and each query searches rings of cells outward until
 * its best squared distance is at most that of any point outside the searched
 * block. Returns 0, -1 once the visits pass the work budget, or -2 if memory runs
 * out; out is then incomplete. */
int64_t nearest_distances(const double *pts, int64_t n, const double *qs, int64_t m,
                          double x0, double y0, double x1, double y1, double *out)
{
    const int64_t cells = n / 2 > 1 ? n / 2 : 1;
    const double across = sqrt((double)cells) * sqrt((x1 - x0) / (y1 - y0));
    const int64_t nx = across < 1.0 ? 1 : across > cells ? cells : (int64_t)across;
    axis_t ax = {0}, ay = {0};
    int64_t *start = calloc(cells + 1, sizeof(int64_t)), *cell = malloc(n * sizeof(int64_t));
    int64_t *index = malloc(n * sizeof(int64_t));
    double *sorted = malloc(2 * n * sizeof(double));
    int64_t status = -2;
    if (!(axis_init(&ax, nx, x0, x1) && axis_init(&ay, cells / nx, y0, y1) && start && cell
          && index && sorted))
        goto done;

    for (int64_t i = 0; i < n; i++) {
        cell[i] = axis_cell(&ay, pts[2 * i + 1]) * nx + axis_cell(&ax, pts[2 * i]);
        start[cell[i] + 1]++;
    }
    for (int64_t c = 0; c < ay.k * nx; c++)
        start[c + 1] += start[c];
    for (int64_t i = 0; i < n; i++) {
        const int64_t at = start[cell[i]]++;
        sorted[2 * at] = pts[2 * i];
        sorted[2 * at + 1] = pts[2 * i + 1];
        index[at] = i;
    }
    for (int64_t c = ay.k * nx; c > 0; c--)  /* back to the first slot of each cell */
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
            const int64_t ylo = cy - r > 0 ? cy - r : 0, yhi = cy + r < ay.k ? cy + r : ay.k - 1;
            for (int64_t y = ylo; y <= yhi; y++) {
                /* the whole row on the ring's top and bottom, its two ends elsewhere */
                const bool full = y == cy - r || y == cy + r;
                for (int64_t x = full ? xlo : cx - r; x <= xhi; x += full ? 1 : 2 * r) {
                    if (x < 0)
                        continue;
                    const int64_t c = y * nx + x;
                    for (int64_t at = start[c]; at < start[c + 1]; at++) {
                        const double dx = qx - sorted[2 * at], dy = qy - sorted[2 * at + 1];
                        const double d = dx * dx + dy * dy;
                        if (d < best && at != self)
                            best = d;
                    }
                    visits += 1 + start[c + 1] - start[c];
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
    free(ax.edge);
    free(ay.edge);
    free(start);
    free(cell);
    free(index);
    free(sorted);
    return status;
}
