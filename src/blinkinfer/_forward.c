/* The forward recursion of the grid engine and the smoother's
 * forward-backward pass, both rescaled exactly at every step.
 *
 * Step k maps each cell's (off, on) vector v to M v, M's entries [end][start]
 * read from row inv[k] of four (D, cells) tables, then scales v by the power
 * of two that brings its sum into [0.5, 1) and adds that power's exponent to
 * the cell's count.  Built with -ffp-contract=off, this is bitwise numpy's
 * frexp/ldexp recursion.  forward takes cells in blocks of BLOCK through all
 * steps, so that a block's table columns stay in cache.  smooth runs the same
 * step forward over a block of rows, keeping every prefix, then backward on
 * the transposed tables, and adds each row's weighted on-probability at
 * every position into one sum per position.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define BLOCK 256

/* One step of w cells, scaled by the exact power of two built from the
 * exponent bits of each sum.  A zero sum adds nothing to the exponent.  A
 * subnormal sum gets 2^1022, exact there; returns nonzero if there was one.
 * Inline, or gcc stops inlining it once it has three callers, which slows
 * forward by about a tenth. */
static inline int64_t step(int64_t w, const double *restrict a,
                           const double *restrict b, const double *restrict c,
                           const double *restrict d, const double *restrict p0,
                           const double *restrict p1, double *restrict q0,
                           double *restrict q1, int64_t *restrict e)
{
    int64_t tiny = 0;
    for (int64_t i = 0; i < w; i++) {
        double x0 = a[i] * p0[i];
        x0 = x0 + b[i] * p1[i];
        double x1 = c[i] * p0[i];
        x1 = x1 + d[i] * p1[i];
        double s = x0 + x1, scale;
        uint64_t bits;
        memcpy(&bits, &s, sizeof bits);
        int64_t field = (int64_t)(bits >> 52) & 0x7ff;
        bits = (uint64_t)(2045 - field) << 52; /* 2^-(field - 1022) */
        memcpy(&scale, &bits, sizeof scale);
        q0[i] = x0 * scale;
        q1[i] = x1 * scale;
        e[i] += s != 0.0 ? field - 1022 : 0;
        tiny |= field == 0 && s != 0.0;
    }
    return tiny;
}

/* After a step that met a subnormal sum: sums lie in [0.5, 1), are zero, or
 * are 2^1022 times subnormal, and the last are brought into [0.5, 1). */
static void rescale_tiny(int64_t w, double *q0, double *q1, int64_t *e)
{
    for (int64_t i = 0; i < w; i++) {
        int shift;
        frexp(q0[i] + q1[i], &shift);
        q0[i] = ldexp(q0[i], -shift);
        q1[i] = ldexp(q1[i], -shift);
        e[i] += shift;
    }
}

/* Adds to exps (cells) the exponents of n steps from start (2, cells) and
 * writes the end vectors (2, cells). */
void forward(int64_t n, int64_t cells, const double *m00, const double *m01,
             const double *m10, const double *m11, const int64_t *inv,
             const double *start, double *end, int64_t *exps)
{
    double buf[2][2][BLOCK];
    for (int64_t lo = 0; lo < cells; lo += BLOCK) {
        int64_t w = cells - lo < BLOCK ? cells - lo : BLOCK;
        int64_t *e = exps + lo;
        const double *p0 = start + lo, *p1 = start + cells + lo;
        for (int64_t k = 0; k < n; k++) {
            double *q0 = buf[k & 1][0], *q1 = buf[k & 1][1];
            int64_t row = inv[k] * cells + lo;
            if (step(w, m00 + row, m01 + row, m10 + row, m11 + row, p0, p1, q0, q1, e))
                rescale_tiny(w, q0, q1, e);
            p0 = q0;
            p1 = q1;
        }
        memcpy(end + lo, p0, w * sizeof(double));
        memcpy(end + cells + lo, p1, w * sizeof(double));
    }
}

/* Adds to num[k - 1], k = 1..n, each row's weight times P(on at boundary k),
 * rows in order, from (D, rows) tables read as forward reads them.  Rows go
 * in blocks of width <= BLOCK.  The forward pass stores a block's prefixes
 * in pre (n + 1, 2, width), then the backward vectors g roll back from ones
 * over the transposed tables, and a row's probability is
 * g1 f1 / (g0 f0 + g1 f1), the sum floored at the least positive double.  A
 * pinned row keeps g at ones. */
void smooth(int64_t n, int64_t rows, int64_t width, const double *m00,
            const double *m01, const double *m10, const double *m11,
            const int64_t *inv, const double *start, const double *weight,
            const _Bool *pinned, double *pre, double *num)
{
    double g[2][2][BLOCK];
    int64_t e[BLOCK] = {0}; /* exponents, which cancel in the ratio */
    for (int64_t lo = 0; lo < rows; lo += width) {
        int64_t w = rows - lo < width ? rows - lo : width;
        memcpy(pre, start + lo, w * sizeof(double));
        memcpy(pre + width, start + rows + lo, w * sizeof(double));
        for (int64_t k = 0; k < n; k++) {
            const double *p0 = pre + 2 * k * width;
            double *q0 = pre + 2 * (k + 1) * width;
            int64_t row = inv[k] * rows + lo;
            if (step(w, m00 + row, m01 + row, m10 + row, m11 + row, p0, p0 + width,
                     q0, q0 + width, e))
                rescale_tiny(w, q0, q0 + width, e);
        }
        for (int64_t i = 0; i < w; i++)
            g[0][0][i] = g[0][1][i] = 1.0;
        for (int64_t k = n, cur = 0; k > 0; k--, cur ^= 1) {
            const double *g0 = g[cur][0], *g1 = g[cur][1];
            const double *f0 = pre + 2 * k * width, *f1 = f0 + width;
            double acc = num[k - 1];
            for (int64_t i = 0; i < w; i++) {
                double x0 = g0[i] * f0[i], x1 = g1[i] * f1[i];
                x0 = x0 + x1;
                /* x1 <= x0, so this floor turns 0/0 into 0 and changes nothing else */
                x0 = x0 < 0x1p-1074 ? 0x1p-1074 : x0;
                acc += weight[lo + i] * (x1 / x0);
            }
            num[k - 1] = acc;
            if (k == 1)
                break;
            double *h0 = g[cur ^ 1][0], *h1 = g[cur ^ 1][1];
            int64_t row = inv[k - 1] * rows + lo;
            if (step(w, m00 + row, m10 + row, m01 + row, m11 + row, g0, g1, h0, h1, e))
                rescale_tiny(w, h0, h1, e);
            for (int64_t i = 0; i < w; i++)
                if (pinned[lo + i])
                    h0[i] = h1[i] = 1.0;
        }
    }
}
