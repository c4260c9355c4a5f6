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
 *   stopping rule that is exact in floating point (see below). It works one
 *   cell at a time: each cell's queries scan one copy of the cell's 3x3 block.
 *   For G it refines a crowded grid. Cell edges are computed wherever they are
 *   read, so it allocates only the sorted points, their rows and cells, each
 *   cell's first slot and the block buffer.
 * - file_queries, which files F's queries into the grid nearest_distances lays
 *   for n points in the window. That grid depends only on n and the window, so
 *   a caller that asks F of many patterns of one size with one set of queries
 *   files the set once and passes the filing to every call.
 *
 * _native.py compiles this file with cc on first use and links numpy's
 * libnpyrandom.a; only bitgen.h is included, so no Python.h is needed. */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
 * on tight clusters, where the k-d tree the caller falls back to is not.
 * Visits count each block's cells and copied points once, and each point
 * slot a query reads. Ordinary patterns take 15-19 visits per point and query
 * (uniform through (0.6, 70) reproduction at n = 1500, CSR at n = 500). Self
 * queries refine a crowded grid first (below), so the budget is reached only
 * where refining to the cap leaves the clusters crowded, as at p = 1 with
 * sigma = 1 or 10 on 1500 points in a 3000-unit square. The budget is set
 * by time: on the four tight clusters of the tests' PATHOLOGIES that give up,
 * G + F then costs 1.10-1.33 times the tree alone (two runs, best of 5-9
 * alternating reps each, 2-core x86), within the tests' bound of 1.5. It
 * also keeps G of every (0.9, 10) fit-size pattern the tests pin on the
 * kernel; one takes 52 visits per point. */
#define VISITS_PER_ITEM 56

/* Crowding, in two places. Self queries (G) on a crowded grid refine it. The
 * crowding is sum(count^2) / n over the cells: at n / 2 cells it measured
 * 3.0-5.6 on uniform and fit-size reproduction patterns ((0, 1) through
 * (0.6, 70), n = 1500), which keep the first grid, and 31-158 on (0.9, 10)
 * clusters at n = 500 (125-753 at n = 1500). Above CROWDED the grid takes 4x
 * the cells and counts again, up to MAX_CELLS_PER_POINT cells a point, which
 * bounds its memory. Reference queries (F) keep the first grid, so it depends
 * only on n and the window and file_queries can file them once for many
 * patterns; refining it too made F give up at (0.8, 10), (0.9, 10) and
 * (0.9, 40), where it answers on this one. And a cell holding more than
 * CROWDED points is searched ring 0 first (see nearest_distances). */
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

/* Lays about `cells` near-square cells over [x0, x1] x [y0, y1] on *ax and *ay;
 * nx * ny <= cells. */
static void lay_grid(int64_t cells, double x0, double y0, double x1, double y1, axis_t *ax,
                     axis_t *ay)
{
    const double across = sqrt((double)cells) * sqrt((x1 - x0) / (y1 - y0));
    const int64_t nx = across < 1.0 ? 1 : across > cells ? cells : (int64_t)across;
    const int64_t ny = cells / nx;
    *ax = (axis_t){nx, x0, (x1 - x0) / nx, nx / (x1 - x0)};
    *ay = (axis_t){ny, y0, (y1 - y0) / ny, ny / (y1 - y0)};
}

/* Files each of the n rows of pts (x, y) in cell[i] and counts it into
 * count[c + 1], which must start at 0. Returns sum(count^2), in integers (at
 * most n^2), as each count steps up by one: (c + 1)^2 = c^2 + 2c + 1. */
static int64_t file_cells(const double *pts, int64_t n, const axis_t *ax, const axis_t *ay,
                          int64_t *cell, int64_t *count)
{
    int64_t squares = 0;
    for (int64_t i = 0; i < n; i++) {
        cell[i] = axis_cell(ay, pts[2 * i + 1]) * ax->k + axis_cell(ax, pts[2 * i]);
        squares += 2 * count[cell[i] + 1]++ + 1;
    }
    return squares;
}

/* The counting sort after file_cells: count becomes each cell's first slot
 * (cells + 1 entries), slot s holds row order[s] of rows (x, y) as x[s], y[s],
 * and cell[s] becomes slot s's cell. */
static void sort_cells(const double *rows, int64_t *cell, int64_t n, int64_t cells,
                       int64_t *count, int64_t *order, double *x, double *y)
{
    for (int64_t c = 0; c < cells; c++)
        count[c + 1] += count[c];
    for (int64_t i = 0; i < n; i++) {
        const int64_t at = count[cell[i]]++;
        order[at] = i;
        x[at] = rows[2 * i];
        y[at] = rows[2 * i + 1];
    }
    for (int64_t c = cells; c > 0; c--)  /* back to the first slot of each cell */
        count[c] = count[c - 1];
    count[0] = 0;
    for (int64_t c = 0; c < cells; c++)
        for (int64_t s = count[c]; s < count[c + 1]; s++)
            cell[s] = c;
}

/* Appends sorted slots [from, to) to the block buffer at *len. */
static inline void append(double *bx, double *by, int64_t *len, const double *sx,
                          const double *sy, int64_t from, int64_t to)
{
    memcpy(bx + *len, sx + from, (to - from) * sizeof(double));
    memcpy(by + *len, sy + from, (to - from) * sizeof(double));
    *len += to - from;
}

/* Pads the block buffer to whole groups of four with points at infinity. */
static inline void pad(double *bx, double *by, int64_t *len)
{
    for (; *len % 4; ++*len)
        bx[*len] = by[*len] = INFINITY;
}

/* The smallest squared distance from (qx, qy) to buffer slots [from, to), whole
 * groups of four, with four running minima and no branch. With `zero` it also
 * stops at a zero distance, checked once a group and hinted rare: coincident
 * coordinates share a cell, so only a scan of the cell's own points can meet
 * one. Adds the slots read to *read. */
static inline double scan(const double *bx, const double *by, int64_t from, int64_t to,
                          double qx, double qy, bool zero, int64_t *read)
{
    double b0 = INFINITY, b1 = INFINITY, b2 = INFINITY, b3 = INFINITY;
    int64_t i = from;
    while (i < to) {
        const double x0 = qx - bx[i], x1 = qx - bx[i + 1], x2 = qx - bx[i + 2],
                     x3 = qx - bx[i + 3];
        const double y0 = qy - by[i], y1 = qy - by[i + 1], y2 = qy - by[i + 2],
                     y3 = qy - by[i + 3];
        const double d0 = x0 * x0 + y0 * y0, d1 = x1 * x1 + y1 * y1, d2 = x2 * x2 + y2 * y2,
                     d3 = x3 * x3 + y3 * y3;
        b0 = d0 < b0 ? d0 : b0;  /* minsd, not a branch */
        b1 = d1 < b1 ? d1 : b1;
        b2 = d2 < b2 ? d2 : b2;
        b3 = d3 < b3 ? d3 : b3;
        i += 4;
        if (zero && __builtin_expect((b0 == 0.0) | (b1 == 0.0) | (b2 == 0.0) | (b3 == 0.0), 0))
            break;  /* coincident: none nearer */
    }
    *read += i - from;
    b0 = b1 < b0 ? b1 : b0;
    b2 = b3 < b2 ? b3 : b2;
    return b2 < b0 ? b2 : b0;
}

/* The cells of the first grid for n points: about n / 2, at least 1. */
static inline int64_t first_cells(int64_t n)
{
    return n / 2 > 1 ? n / 2 : 1;
}

/* Files the m query rows (x, y) of qs into the grid nearest_distances lays for
 * n points in the window [x0, x1] x [y0, y1]: the first grid, which it never
 * refines for queries (see CROWDED). The filing is 4m entries, m each in cell
 * order: each slot's row of qs, its cell, and its x and y as doubles. Returns
 * 0, or -2 if memory runs out. */
int64_t file_queries(const double *qs, int64_t m, int64_t n, double x0, double y0, double x1,
                     double y1, int64_t *filed)
{
    axis_t ax, ay;
    lay_grid(first_cells(n), x0, y0, x1, y1, &ax, &ay);
    int64_t *first = calloc(ax.k * ay.k + 1, sizeof(int64_t));
    double *x = (double *)(filed + 2 * m);
    if (!first)
        return -2;
    file_cells(qs, m, &ax, &ay, filed + m, first);
    sort_cells(qs, filed + m, m, ax.k * ay.k, first, filed, x, x + m);
    free(first);
    return 0;
}

/* out[j] = the distance from query j to the nearest of the n points in pts, all
 * inside the window [x0, x1] x [y0, y1]. The queries are file_queries' filing of
 * m rows for these n points and this window. With filed NULL the queries are the
 * points themselves and each skips its own index (the tree's second neighbour);
 * m is then n. The points are counting-sorted into about n / 2 near-square
 * cells; for self queries, 4x as many while the grid is crowded and below its
 * cap (see CROWDED).
 *
 * The search works one cell at a time. It copies the cell's 3x3 block into one
 * x/y buffer, the cell's own points first and then the rest of the block as at
 * most 4 runs (each block row is contiguous in sorted order), and scans that
 * buffer for each of the cell's queries; a self query's own slot reads as
 * infinitely far meanwhile. A cell holding more than CROWDED points scans its
 * own points first, stopping at a zero distance, and stops there if they clear
 * the cell's edges. A query that the block does not settle searches rings
 * r >= 2 of cells outward. Each stops once its best squared distance is at most
 * that of any point outside the searched cells; that stop is exact on any grid
 * and in any order of search, so neither changes an output byte. Returns 0, -1
 * once the visits (cells and points read, copies included) pass the work
 * budget, or -2 if memory runs out; out is then incomplete. */
int64_t nearest_distances(const double *pts, int64_t n, const int64_t *filed, int64_t m,
                          double x0, double y0, double x1, double y1, double *out)
{
    if (m == 0)  /* nothing to answer; and malloc(0) may return NULL */
        return 0;
    int64_t cells = first_cells(n);
    axis_t ax, ay;
    int64_t *start = calloc(cells + 1, sizeof(int64_t)), *index = malloc(n * sizeof(int64_t));
    int64_t *cell = malloc(n * sizeof(int64_t));
    /* the sorted points' x and y, then the block buffer's: the block's points
     * (at most n) and up to 3 pads after the own run and 3 at the end */
    double *sx = malloc((4 * n + 16) * sizeof(double)), *sy = sx + n, *bx = sy + n,
           *by = bx + n + 8;
    int64_t status = -2;
    if (!(start && index && cell && sx))
        goto done;
    lay_grid(cells, x0, y0, x1, y1, &ax, &ay);
    while (file_cells(pts, n, &ax, &ay, cell, start) > CROWDED * n && !filed
           && 4 * cells <= MAX_CELLS_PER_POINT * n) {
        cells *= 4;
        lay_grid(cells, x0, y0, x1, y1, &ax, &ay);
        free(start);
        if (!(start = calloc(cells + 1, sizeof(int64_t))))
            goto done;
    }
    const int64_t nx = ax.k, ny = ay.k;
    sort_cells(pts, cell, n, nx * ny, start, index, sx, sy);
    /* the queries in cell order: the filing's, or the points' own (sy = sx + m) */
    const int64_t *order = filed ? filed : index, *qcell = filed ? filed + m : cell;
    const double *qxs = filed ? (const double *)(filed + 2 * m) : sx, *qys = qxs + m;

    const int64_t budget = VISITS_PER_ITEM * (n + m);
    int64_t visits = 0;
    status = -1;
    for (int64_t t = 0; t < m;) {  /* one occupied cell at a time */
        const int64_t c = qcell[t], cx = c % nx, cy = c / nx;
        const int64_t xlo = cx > 0 ? cx - 1 : 0, xhi = cx + 1 < nx ? cx + 1 : nx - 1;
        const int64_t ylo = cy > 0 ? cy - 1 : 0, yhi = cy + 1 < ny ? cy + 1 : ny - 1;
        /* the block: the own points (padded when crowded), then each row's runs */
        int64_t len = 0;
        append(bx, by, &len, sx, sy, start[c], start[c + 1]);
        const bool crowded = len > CROWDED;
        if (crowded)
            pad(bx, by, &len);
        const int64_t own = len;
        for (int64_t y = ylo; y <= yhi; y++) {
            const int64_t row = y * nx, end = start[row + xhi + 1];
            append(bx, by, &len, sx, sy, start[row + xlo], y == cy ? start[c] : end);
            if (y == cy)
                append(bx, by, &len, sx, sy, start[c + 1], end);
        }
        pad(bx, by, &len);
        visits += (yhi - ylo + 1) * (xhi - xlo + 1) + len;

        for (; t < m && qcell[t] == c; t++) {
            const int64_t self = filed ? -1 : t - start[c];
            const double qx = qxs[t], qy = qys[t];
            double best = INFINITY, saved = 0.0;
            if (self >= 0) {
                saved = bx[self];
                bx[self] = INFINITY;
            }
            if (crowded)
                best = scan(bx, by, 0, own, qx, qy, true, &visits);
            if (!crowded || best > fmin(axis_clearance(&ax, cx, cx, qx),
                                        axis_clearance(&ay, cy, cy, qy)))
                best = fmin(best, scan(bx, by, crowded ? own : 0, len, qx, qy, false, &visits));
            if (self >= 0)
                bx[self] = saved;
            if (visits > budget)
                goto done;
            if (best > fmin(axis_clearance(&ax, xlo, xhi, qx), axis_clearance(&ay, ylo, yhi, qy)))
                for (int64_t r = 2;; r++) {  /* the block left it open: rings r >= 2 */
                    const int64_t rx0 = cx > r ? cx - r : 0, rx1 = cx + r < nx ? cx + r : nx - 1;
                    const int64_t ry0 = cy > r ? cy - r : 0, ry1 = cy + r < ny ? cy + r : ny - 1;
                    for (int64_t y = ry0; y <= ry1; y++) {
                        /* the whole row on the ring's top and bottom, its two ends elsewhere */
                        const bool full = y == cy - r || y == cy + r;
                        for (int64_t x = full ? rx0 : cx - r; x <= rx1; x += full ? 1 : 2 * r) {
                            if (x < 0)
                                continue;
                            const int64_t rc = y * nx + x;
                            for (int64_t at = start[rc]; at < start[rc + 1]; at++) {
                                const double dx = qx - sx[at], dy = qy - sy[at];
                                const double d = dx * dx + dy * dy;
                                best = d < best ? d : best;  /* a minsd, not a branch */
                            }
                            visits += 1 + start[rc + 1] - start[rc];
                        }
                    }
                    if (visits > budget)
                        goto done;
                    if (best <= fmin(axis_clearance(&ax, rx0, rx1, qx),
                                     axis_clearance(&ay, ry0, ry1, qy)))
                        break;
                }
            out[order[t]] = sqrt(best);
        }
    }
    status = 0;
done:
    free(start);
    free(index);
    free(cell);
    free(sx);
    return status;
}
