/* The grid engine's forward recursion, rescaled exactly at every step.
 *
 * Step k maps each cell's (off, on) vector v to M v, M's entries [end][start]
 * read from row inv[k] of four (D, cells) tables, then scales v by the power
 * of two that brings its sum into [0.5, 1) and adds that power's exponent to
 * the cell's count.  Built with -ffp-contract=off, this is bitwise numpy's
 * frexp/ldexp recursion.  Cells go in blocks of BLOCK through all steps, so
 * that a block's table columns stay in cache.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define BLOCK 256

/* One step of w cells, scaled by the exact power of two built from the
 * exponent bits of each sum.  A zero sum adds nothing to the exponent.  A
 * subnormal sum gets 2^1022, exact there; returns nonzero if there was one. */
static int64_t step(int64_t w, const double *restrict a, const double *restrict b,
                    const double *restrict c, const double *restrict d,
                    const double *restrict p0, const double *restrict p1,
                    double *restrict q0, double *restrict q1, int64_t *restrict e)
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

/* Adds to exps (cells) the exponents of n steps from start (2, cells) and
 * writes the end vectors (2, cells).  With pre non-NULL, the vector after
 * step k goes to pre + (2 k + state) * stride, k = 1..n. */
void forward(int64_t n, int64_t cells, const double *m00, const double *m01,
             const double *m10, const double *m11, const int64_t *inv,
             const double *start, double *end, int64_t *exps, double *pre,
             int64_t stride)
{
    double buf[2][2][BLOCK];
    for (int64_t lo = 0; lo < cells; lo += BLOCK) {
        int64_t w = cells - lo < BLOCK ? cells - lo : BLOCK;
        int64_t *e = exps + lo;
        const double *p0 = start + lo, *p1 = start + cells + lo;
        for (int64_t k = 0; k < n; k++) {
            double *q0 = pre ? pre + 2 * (k + 1) * stride + lo : buf[k & 1][0];
            double *q1 = pre ? q0 + stride : buf[k & 1][1];
            int64_t row = inv[k] * cells + lo;
            if (step(w, m00 + row, m01 + row, m10 + row, m11 + row, p0, p1, q0, q1, e)) {
                /* sums now lie in [0.5, 1), are zero, or are 2^1022 times subnormal */
                for (int64_t i = 0; i < w; i++) {
                    int shift;
                    frexp(q0[i] + q1[i], &shift);
                    q0[i] = ldexp(q0[i], -shift);
                    q1[i] = ldexp(q1[i], -shift);
                    e[i] += shift;
                }
            }
            p0 = q0;
            p1 = q1;
        }
        memcpy(end + lo, p0, w * sizeof(double));
        memcpy(end + cells + lo, p1, w * sizeof(double));
    }
}
