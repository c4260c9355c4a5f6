/* The bimodal reproduction sampler of reproduction.simulate_reproduction as
 * a C loop on numpy's bit generator interface. It makes the same draws in the
 * same order as the scalar Python loop (integers(i) for the parent, random()
 * for the mode and each uniform coordinate, standard_normal(2) for each
 * Gaussian candidate), so it writes the same bytes. reproduction.py compiles
 * it with cc on first use and links numpy's libnpyrandom.a; only bitgen.h is
 * included, so no Python.h is needed. */
#include <stdbool.h>
#include <stdint.h>

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
