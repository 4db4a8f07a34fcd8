/* The step-table mixer of every model, the forward recursion of the grid
 * engine and the smoother's forward-backward pass, the last two exact to
 * the bit of a recursion rescaled at every step.
 *
 * mix builds the four step tables of a chunk of cells: each entry is the
 * emission at the on-fraction nodes mixed over its switch pair's weight law,
 * summed over the nodes in one fixed order, with the first product rounded
 * and every next one added by fma, one IEEE operation that rounds once.  So
 * an entry's bits depend on its cell alone, never on the chunk, block or
 * register tile that computes it.  The explicit fma is no contraction that
 * -ffp-contract=off forbids; built without -march=native it calls libm's
 * software fma, with the same bits, some 40 times slower.  -march=native
 * alone may give every kernel 512-bit vectors (see WIDE_VECTORS).
 *
 * gcc builds this file and _repr.c, whose repr_doubles writes the floats of
 * the posterior JSON and repr_rows the state CSV's rows, into one library
 * on first use.  So infer and infer-state need gcc or a cached build;
 * simulate and threshold never load the library.
 *
 * Step k maps each cell's (off, on) vector v to M v, M's entries [end][start]
 * read from row inv[k] of four (D, cells) tables, then scales v by the power
 * of two that brings its sum into [0.5, 1) and adds that power's exponent to
 * the cell's count.  Built with -ffp-contract=off, this is bitwise numpy's
 * frexp/ldexp recursion.  forward takes cells in blocks of BLOCK through all
 * steps, so that a block's table columns stay in cache.  smooth runs the same
 * step forward over a block of rows, keeping every prefix, then backward on
 * the transposed tables, and adds each row's weighted on-probability at
 * every position into one sum per position.  None of them allocates memory.
 *
 * The grid engine's recursion, run_block, takes its entries from one of two
 * sources.  forward reads them from tables that mix wrote.
 * forward_products, which the engine runs for single-step runs of many
 * pairs, writes no table: a single-step entry is one weight times one
 * emission value, as the other node's weight is zero and mix adds it as an
 * exact zero, so the table entry is the one rounded product fl(w E).  Its
 * block is up to BLOCK pairs at one emission cell, which at each step reads
 * the row's two emission values as scalars and its pairs' four weights
 * from L1, and forms each entry in registers with the table's bits.
 * Everything below, the bound, its proof and the runs, holds for either
 * source, as it reads only the entries' values.
 *
 * forward scales once per run of up to RUN steps, not at every step, where a
 * bound proves the bits the same.  Scaling by 2^F commutes exactly with a
 * product or a sum whose value, with and without the 2^F, is zero or a
 * normal double.  So if every product and sum of a run's steps is zero or
 * normal both in the per-step recursion and in the unscaled one, the run's
 * last step, scaled by the exponent of its own sum, writes the per-step
 * vector and adds the per-step exponent total; the last scaling itself
 * multiplies the same real number in both, so it rounds alike even into
 * subnormals.  The bound, for a block of cells at a point just after a
 * scaled step, where every component is at most its sum, below 1:
 *
 *   - e is the floor(log2) of the block's least nonzero component, <= 0;
 *   - a row r whose nonzero entries over the block lie in [2^lo, 2^(hi+1))
 *     with hi <= 0 gets reach(r) = lo - max(0, hi + 4); a row of zeros
 *     gets 0, and a row with an entry >= 2 a value no run can take.
 *
 * A run takes the next steps while e plus the sum of their rows' reaches
 * stays >= -1022.  The start is not scaled, so the first step runs alone.
 * A subnormal reads as 2^-1023, as does a vector of zeros: every reach is
 * <= 0, so no run takes a subnormal component, and a subnormal entry's
 * reach is below -1022, so no run takes its row.
 *
 * Proof.  Unscaled, a nonzero product of an entry >= 2^lo and a component
 * >= 2^x is >= 2^(lo + x), a double while that is >= 2^-1022, and a sum of
 * nonnegative terms is at least its largest; so by induction every nonzero
 * value of a run's i-th step is >= 2^(e + lo_1 + ... + lo_i).  In the
 * per-step recursion every vector has components <= 1, so with entries
 * < 2^(hi+1) a step's sum is <= 2^(hi+3) and its exponent <= hi + 4.  Its
 * values are the unscaled ones times 2^-F, F at most the sum of
 * max(0, hi + 4) over the steps before, so both are >= 2^(e + the sum of
 * reaches) >= 2^-1022.  A run's rows have entries < 2, so no value exceeds
 * 2^(3 + 4 RUN) unscaled, nor 8 per step.  Where not even one step fits,
 * forward takes the per-step step and rescale_tiny.  The bound is per
 * block, read from the block's entries once per block and from the vector
 * once per run.
 *
 * smooth keeps per-step scaling.  It reads the vector at every position,
 * not only at a run's end, and its ratio g1 f1 / (g0 f0 + g1 f1) multiplies
 * a prefix by a suffix vector: an unscaled prefix, which the bound lets fall
 * to 2^-1022, would take those products below the normal range where the
 * scaled ones stay inside it, and change the ratio.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define BLOCK 256
#define RUN 16

/* Entry i of a step's row m: the table entry itself, or on the product path
 * the weight m[i] times the row's emission value x, one rounded product.
 * prod is a constant wherever this is inlined. */
static inline __attribute__((always_inline)) double
entry(int prod, const double *restrict m, int64_t i, double x)
{
    return prod ? m[i] * x : m[i];
}

/* One step of w cells, scaled by the exact power of two built from the
 * exponent bits of each sum.  A zero sum adds nothing to the exponent.  A
 * subnormal sum gets 2^1022, exact there; returns nonzero if there was one.
 * The entries are a, b, c, d, on the product path times em0 at node 0 (a
 * and c) and em1 at node 1 (b and d).  Always inline: gcc stops inlining it
 * once it has three callers, which slows forward by about a tenth. */
static inline __attribute__((always_inline)) int64_t
step(int prod, int64_t w, const double *restrict a, const double *restrict b,
     const double *restrict c, const double *restrict d, double em0, double em1,
     const double *restrict p0, const double *restrict p1, double *restrict q0,
     double *restrict q1, int64_t *restrict e)
{
    int64_t tiny = 0;
    for (int64_t i = 0; i < w; i++) {
        double x0 = entry(prod, a, i, em0) * p0[i];
        x0 = x0 + entry(prod, b, i, em1) * p1[i];
        double x1 = entry(prod, c, i, em0) * p0[i];
        x1 = x1 + entry(prod, d, i, em1) * p1[i];
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

/* 512-bit vectors preferred for mix, on x86 only: gcc rejects the option
 * elsewhere.  On an AVX-512 Xeon under gcc 12.2 -march=native it changes no
 * instruction: -fopt-info-vec-optimized lists 21 loops with 64-byte vectors,
 * and objdump -d shows zmm registers in all four kernels, either way. */
#if defined(__x86_64__) || defined(__i386__)
#define WIDE_VECTORS __attribute__((target("prefer-vector-width=512")))
#else
#define WIDE_VECTORS
#endif

#define TILE_PAIRS 16 /* pairs per register tile: two 512-bit vectors */
#define TILE_ROWS 8   /* (count, emission cell) rows per register tile */

/* A tile of rows table rows by TILE_PAIRS pairs, emission row r at e + r
 * nodes: out[r][i] = e[r][0] w[0][i], then fma(e[r][k], w[k][i], out[r][i])
 * for k = 1..nodes-1.  rows is a constant wherever it is inlined, so the
 * accumulators stay in registers; read through an array of row pointers
 * instead, gcc 12 kept one on the stack and mixed some 15% slower.  The loops
 * over pairs must stay loops, which gcc vectorises across pairs: fully
 * unrolled, they were vectorised across rows, with a shuffle at every step. */
static inline __attribute__((always_inline)) void
mix_tile(int rows, int64_t nodes, const double *restrict w,
         const double *restrict e, double *restrict out, int64_t pairs)
{
    double acc[TILE_ROWS][TILE_PAIRS];
    for (int r = 0; r < rows; r++) {
        double x = e[r * nodes];
#pragma GCC unroll 1
        for (int i = 0; i < TILE_PAIRS; i++)
            acc[r][i] = x * w[i];
    }
    for (int64_t k = 1; k < nodes; k++) {
        const double *restrict wk = w + k * pairs;
        for (int r = 0; r < rows; r++) {
            double x = e[r * nodes + k];
#pragma GCC unroll 1
            for (int i = 0; i < TILE_PAIRS; i++)
                acc[r][i] = fma(x, wk[i], acc[r][i]);
        }
    }
    for (int r = 0; r < rows; r++)
#pragma GCC unroll 1
        for (int i = 0; i < TILE_PAIRS; i++)
            out[r * pairs + i] = acc[r][i];
}

/* Rows t .. t + rows - 1 of one table over every pair, row t being the
 * emission's row t, count t / cells at cell t % cells: whole tiles, then, if
 * pairs is not a multiple of the tile, the last TILE_PAIRS pairs again, whose
 * shared entries come out with the same bits, or one pair at a time where
 * there are fewer pairs than a tile. */
static inline __attribute__((always_inline)) void
mix_rows(int rows, int64_t t, int64_t nodes, int64_t pairs,
         const double *restrict w, const double *restrict e, double *restrict out)
{
    const double *row = e + t * nodes;
    out += t * pairs;
    int64_t p = 0;
    for (; p + TILE_PAIRS <= pairs; p += TILE_PAIRS)
        mix_tile(rows, nodes, w + p, row, out + p, pairs);
    if (p == pairs)
        return;
    if (pairs >= TILE_PAIRS) {
        p = pairs - TILE_PAIRS;
        mix_tile(rows, nodes, w + p, row, out + p, pairs);
        return;
    }
    for (int r = 0; r < rows; r++)
        for (p = 0; p < pairs; p++) {
            double acc = row[r * nodes] * w[p];
            for (int64_t k = 1; k < nodes; k++)
                acc = fma(row[r * nodes + k], w[k * pairs + p], acc);
            out[r * pairs + p] = acc;
        }
}

/* The step tables out (4, depth, cells, pairs) of the emission e (depth,
 * cells, nodes), mixed over the weights w (4, nodes, pairs): out[q][d][j][p]
 * = sum over k of w[q][k][p] e[d][j][k], the product of k = 0 rounded, then
 * each next one added by fma in the order of k.  So an entry's bits depend
 * on its own weights and emission column alone, not on the pairs, cells or
 * tiles it is built with.  A tile's rows run over counts as well as cells,
 * so that a chunk of one emission cell still reuses each weight vector on
 * TILE_ROWS rows. */
WIDE_VECTORS void
mix(int64_t depth, int64_t nodes, int64_t cells, int64_t pairs, const double *w,
    const double *e, double *out)
{
    for (int q = 0; q < 4; q++) {
        const double *wq = w + q * nodes * pairs;
        int64_t t = 0, rows = depth * cells;
        double *o = out + q * rows * pairs;
        for (; t + TILE_ROWS <= rows; t += TILE_ROWS)
            mix_rows(TILE_ROWS, t, nodes, pairs, wq, e, o);
        for (int tail = TILE_ROWS / 2; tail > 0; tail /= 2)
            if (rows - t >= tail) {
                mix_rows(tail, t, nodes, pairs, wq, e, o);
                t += tail;
            }
    }
}

/* Where a block's entries come from.  On the table path row r of entry t,
 * in the order 00, 01, 10, 11, starts at m[t] + r * stride, the block's
 * columns of four (D, cells) tables.  On the product path m[t] holds the
 * block's pairs' weights of entry t, stride is 0, and entry t of row r is
 * the weight times em[r * em_stride + (t & 1)], the row's emission at node
 * 0 for 00 and 10 and at node 1 for 01 and 11. */
struct source {
    const double *m[4];
    int64_t stride;
    const double *em;
    int64_t em_stride;
};

/* Adds to e (w) the exponents of n steps of a block of w cells from start
 * vectors p0, p1 and writes the end vectors to end0, end1: runs of unscaled
 * steps as the header proves them, each row's reach (depth) read from the
 * block's entries.  The one recursion of forward and forward_products; prod
 * is a constant wherever it is inlined, so each compiles to its own loops. */
static inline __attribute__((always_inline)) void
run_block(int prod, struct source s, int64_t n, int64_t depth, int64_t w,
          const int64_t *inv, const double *p0, const double *p1, double *end0,
          double *end1, int64_t *e, int64_t *reach)
{
    const uint64_t mag = ~(UINT64_C(1) << 63);
    double buf[2][2][BLOCK];
    for (int64_t r = 0; r < depth; r++) {
        /* bits - 1 wraps a zero to the largest value, out of the min */
        uint64_t least = UINT64_MAX, most = 0;
        for (int t = 0; t < 4; t++) {
            const double *m = s.m[t] + r * s.stride;
            double x = prod ? s.em[r * s.em_stride + (t & 1)] : 1.0;
            for (int64_t i = 0; i < w; i++) {
                double v = entry(prod, m, i, x);
                uint64_t bits;
                memcpy(&bits, &v, sizeof bits);
                bits &= mag;
                least = bits - 1 < least ? bits - 1 : least;
                most = bits > most ? bits : most;
            }
        }
        /* a subnormal entry reads as 2^-1023, beyond any run's reach */
        int64_t low = (int64_t)((least + 1) >> 52), high = (int64_t)(most >> 52);
        if (least == UINT64_MAX)
            reach[r] = 0;
        else if (high > 1023)
            reach[r] = -4096;
        else
            reach[r] = low - 1023 - (high > 1019 ? high - 1019 : 0);
    }
    /* the start is not scaled, so the first step is a run of one */
    for (int64_t k = 0, least_exp = -1023; k < n;) {
        int64_t run = 0;
        for (int64_t sum = least_exp; run < RUN && k + run < n; run++) {
            sum += reach[inv[k + run]];
            if (sum < -1022)
                break;
        }
        for (; run > 1; run--, k++) {
            const double *restrict u0 = p0, *restrict u1 = p1;
            double *restrict q0 = buf[k & 1][0], *restrict q1 = buf[k & 1][1];
            int64_t r = inv[k];
            const double *restrict a = s.m[0] + r * s.stride;
            const double *restrict b = s.m[1] + r * s.stride;
            const double *restrict c = s.m[2] + r * s.stride;
            const double *restrict d = s.m[3] + r * s.stride;
            double em0 = prod ? s.em[r * s.em_stride] : 1.0;
            double em1 = prod ? s.em[r * s.em_stride + 1] : 1.0;
            for (int64_t i = 0; i < w; i++) {
                double x0 = entry(prod, a, i, em0) * u0[i];
                x0 = x0 + entry(prod, b, i, em1) * u1[i];
                double x1 = entry(prod, c, i, em0) * u0[i];
                x1 = x1 + entry(prod, d, i, em1) * u1[i];
                q0[i] = x0;
                q1[i] = x1;
            }
            p0 = q0;
            p1 = q1;
        }
        double *q0 = buf[k & 1][0], *q1 = buf[k & 1][1];
        int64_t r = inv[k], row = r * s.stride;
        double em0 = prod ? s.em[r * s.em_stride] : 1.0;
        double em1 = prod ? s.em[r * s.em_stride + 1] : 1.0;
        if (step(prod, w, s.m[0] + row, s.m[1] + row, s.m[2] + row, s.m[3] + row,
                 em0, em1, p0, p1, q0, q1, e))
            rescale_tiny(w, q0, q1, e);
        p0 = q0;
        p1 = q1;
        k++;
        uint64_t least = UINT64_MAX;
        for (int64_t i = 0; i < w; i++) {
            uint64_t b0, b1;
            memcpy(&b0, p0 + i, sizeof b0);
            memcpy(&b1, p1 + i, sizeof b1);
            b0 = (b0 & mag) - 1;
            b1 = (b1 & mag) - 1;
            least = b0 < least ? b0 : least;
            least = b1 < least ? b1 : least;
        }
        least_exp = (int64_t)((least + 1) >> 52) - 1023;
    }
    memcpy(end0, p0, w * sizeof(double));
    memcpy(end1, p1, w * sizeof(double));
}

/* Adds to exps (cells) the exponents of n steps from start (2, cells) and
 * writes the end vectors (2, cells), from tables of depth rows, in blocks
 * of BLOCK cells; reach (depth) is scratch. */
void forward(int64_t n, int64_t cells, int64_t depth, const double *m00,
             const double *m01, const double *m10, const double *m11,
             const int64_t *inv, const double *start, double *end,
             int64_t *exps, int64_t *reach)
{
    for (int64_t lo = 0; lo < cells; lo += BLOCK) {
        int64_t w = cells - lo < BLOCK ? cells - lo : BLOCK;
        struct source s = {{m00 + lo, m01 + lo, m10 + lo, m11 + lo}, cells, NULL, 0};
        run_block(0, s, n, depth, w, inv, start + lo, start + cells + lo, end + lo,
                  end + cells + lo, exps + lo, reach);
    }
}

/* forward on the product path: the cells are pairs switch pairs by the ems
 * emission cells of emission (depth, ems, 2), emission cell-major, and the
 * entries of pair i at emission cell j read row r as w00[i] E0, w01[i] E1,
 * w10[i] E0 and w11[i] E1, (E0, E1) = emission[r, j]: each the one rounded
 * product that mix writes to a single-step table.  Blocks take up to BLOCK
 * pairs at one emission cell, the pairs split about evenly, so that no block
 * is left a few pairs wide, in sizes rounded up to a multiple of 8, so that
 * only the last block's loops end in a part vector. */
void forward_products(int64_t n, int64_t pairs, int64_t ems, int64_t depth,
                      const double *w00, const double *w01, const double *w10,
                      const double *w11, const double *emission,
                      const int64_t *inv, const double *start, double *end,
                      int64_t *exps, int64_t *reach)
{
    int64_t cells = pairs * ems, blocks = (pairs + BLOCK - 1) / BLOCK;
    int64_t size = blocks ? ((pairs + blocks - 1) / blocks + 7) / 8 * 8 : 0;
    for (int64_t j = 0; j < ems; j++)
        for (int64_t lo = 0; lo < pairs; lo += size) {
            int64_t w = pairs - lo < size ? pairs - lo : size, c = j * pairs + lo;
            struct source s = {{w00 + lo, w01 + lo, w10 + lo, w11 + lo}, 0,
                               emission + 2 * j, 2 * ems};
            run_block(1, s, n, depth, w, inv, start + c, start + cells + c, end + c,
                      end + cells + c, exps + c, reach);
        }
}

/* Adds to num[k - 1], k = 1..n, each row's weight times P(on at boundary k),
 * rows in order, from (D, rows) tables read as forward reads them, in blocks
 * of width rows.  A block's prefixes f go to pre (n + 1, 2, width), then
 * vectors g roll back from ones over the transposed tables, and a row's
 * probability is 1 where f0 = 0, else g1 f1 / (g0 f0 + g1 f1), the sum
 * floored at the least positive double.  A row that starts in one state and
 * never branches has one nonzero component in f, which gives its state even
 * where g has lost that path. */
void smooth(int64_t n, int64_t rows, int64_t width, const double *m00,
            const double *m01, const double *m10, const double *m11,
            const int64_t *inv, const double *start, const double *weight,
            double *pre, double *num)
{
    double g[2][2][width];
    int64_t e[width]; /* exponents, which cancel in the ratio */
    memset(e, 0, sizeof e);
    for (int64_t lo = 0; lo < rows; lo += width) {
        int64_t w = rows - lo < width ? rows - lo : width;
        memcpy(pre, start + lo, w * sizeof(double));
        memcpy(pre + width, start + rows + lo, w * sizeof(double));
        for (int64_t k = 0; k < n; k++) {
            const double *p0 = pre + 2 * k * width;
            double *q0 = pre + 2 * (k + 1) * width;
            int64_t row = inv[k] * rows + lo;
            if (step(0, w, m00 + row, m01 + row, m10 + row, m11 + row, 1.0, 1.0, p0,
                     p0 + width, q0, q0 + width, e))
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
                /* x1 <= x0, so this sink turns 0/0 into 0 and changes nothing else */
                x0 = x0 < 0x1p-1074 ? 0x1p-1074 : x0;
                acc += weight[lo + i] * (f0[i] == 0.0 ? 1.0 : x1 / x0);
            }
            num[k - 1] = acc;
            if (k == 1)
                break;
            double *h0 = g[cur ^ 1][0], *h1 = g[cur ^ 1][1];
            int64_t row = inv[k - 1] * rows + lo;
            if (step(0, w, m00 + row, m10 + row, m01 + row, m11 + row, 1.0, 1.0, g0, g1,
                     h0, h1, e))
                rescale_tiny(w, h0, h1, e);
        }
    }
}
