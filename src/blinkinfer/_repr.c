/* Python's repr of doubles, written back to back for the file writers.
 *
 * repr_doubles writes repr(x) of each of n doubles, with one separator byte
 * between two values and none after the last, and returns the number of
 * bytes written, at most 25 per value.  With json set, non-finite values
 * are spelled as json.dumps spells them (NaN, Infinity, -Infinity);
 * otherwise as repr does (nan, inf, -inf).
 *
 * The digits are the shortest that read back to the same double, and of
 * those the nearest to it, ties to even: what CPython's dtoa gives in
 * mode 0.  They come from Ryu (Adams, "Ryu: fast float-to-string
 * conversion", PLDI 2018), which multiplies the mantissa and its two
 * interval bounds by a 125-bit power of five in 128-bit integers.  The
 * powers are not in this file: the caller computes them from exact
 * integers and passes them in, as (low, high) 64-bit words of
 *
 *   pow5[i]     = 5^i scaled to 125 bits (truncated), i < 326;
 *   pow5_inv[i] = floor(2^(bits(5^i) + 124) / 5^i) + 1, i < 342.
 *
 * The layout is repr's: with the decimal point decpt places after the
 * first digit's left edge, positional when -4 < decpt <= 16 (".0" on
 * integral values), d.ddde+XX otherwise, and -0.0 for negative zero.
 *
 * repr_rows writes the rows of the state CSV: "t,repr(x)\n" for each of n
 * doubles, with t counting up from first, and returns the number of bytes
 * written, at most 46 per row (20 digits of t, the comma, 24 of repr and
 * the newline).
 *
 * gcc builds this file into one library with _forward.c, on first use by
 * infer and infer-state; simulate and threshold never load it.
 */
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

#define MANTISSA_BITS 52
#define BIAS 1023
#define POW5_INV_BITCOUNT 125
#define POW5_BITCOUNT 125

/* bits(5^e), the bit length of 5^e, for 0 <= e < 3529 */
static inline int32_t pow5bits(int32_t e) { return ((e * 1217359) >> 19) + 1; }

/* floor(log10(2^e)) for 0 <= e <= 1650, floor(log10(5^e)) for e <= 2620 */
static inline int32_t log10_pow2(int32_t e) { return (e * 78913) >> 18; }
static inline int32_t log10_pow5(int32_t e) { return (e * 732923) >> 20; }

static inline int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

static inline int multiple_of_pow2(uint64_t v, int32_t p)
{
    return (v & ((1ull << p) - 1)) == 0;
}

/* (m * mul) >> j, mul a 128-bit (low, high) pair, 64 < j < 192 */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    u128 b0 = (u128)m * mul[0];
    u128 b2 = (u128)m * mul[1];
    return (uint64_t)(((b0 >> 64) + b2) >> (j - 64));
}

/* The shortest digits of a positive finite double with these mantissa and
 * exponent fields, as an integer and its power of ten. */
static uint64_t shortest(uint64_t ieee_m, uint32_t ieee_e, const uint64_t *pow5,
                         const uint64_t *pow5_inv, int32_t *exp10)
{
    int32_t e2;
    uint64_t m2;
    if (ieee_e == 0) {
        e2 = 1 - BIAS - MANTISSA_BITS - 2;
        m2 = ieee_m;
    } else {
        e2 = (int32_t)ieee_e - BIAS - MANTISSA_BITS - 2;
        m2 = (1ull << MANTISSA_BITS) | ieee_m;
    }
    const int accept_bounds = (m2 & 1) == 0;

    /* The reals that read back as this double are (mm, mp) * 2^e2, with
     * mm = mv - 1 - mm_shift and mp = mv + 2, ends included when m2 is
     * even; at a power of two the gap below is half as wide. */
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = ieee_m != 0 || ieee_e <= 1;

    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const int32_t q = log10_pow2(e2) - (e2 > 3);
        e10 = q;
        const int32_t k = POW5_INV_BITCOUNT + pow5bits(q) - 1;
        const int32_t i = -e2 + q + k;
        const uint64_t *mul = pow5_inv + 2 * q;
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        if (q <= 21) {
            /* only one of mp, mv and mm can be a multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const int32_t q = log10_pow5(-e2) - (-e2 > 1);
        e10 = q + e2;
        const int32_t i = -e2 - q;
        const int32_t k = pow5bits(i) - POW5_BITCOUNT;
        const int32_t j = q - k;
        const uint64_t *mul = pow5 + 2 * i;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv has at least q trailing zero bits, so is a multiple of 2^q */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* Drop digits while the interval still holds a shorter number. */
    int32_t removed = 0;
    uint32_t last_removed = 0;
    uint64_t output;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        /* vm or vr may be exact: track it, for the bounds and ties */
        while (vp / 10 > vm / 10) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_trailing_zeros) {
            while (vm % 10 == 0) {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = vr % 10;
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
            last_removed = 4; /* exactly half way: round to even */
        output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) ||
                       last_removed >= 5);
    } else {
        int round_up = 0;
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        output = vr + (vr == vm || round_up);
    }
    *exp10 = e10 + removed;
    return output;
}

static inline char *put(char *p, const char *s)
{
    size_t n = strlen(s);
    memcpy(p, s, n);
    return p + n;
}

static char *write_repr(char *p, double x, int json, const uint64_t *pow5,
                        const uint64_t *pow5_inv)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int negative = bits >> 63;
    const uint64_t ieee_m = bits & ((1ull << MANTISSA_BITS) - 1);
    const uint32_t ieee_e = (bits >> MANTISSA_BITS) & 0x7ff;
    if (ieee_e == 0x7ff) {
        if (ieee_m != 0)
            return put(p, json ? "NaN" : "nan");
        if (negative)
            *p++ = '-';
        return put(p, json ? "Infinity" : "inf");
    }
    if (negative)
        *p++ = '-';
    if (ieee_e == 0 && ieee_m == 0)
        return put(p, "0.0");

    int32_t exp10;
    uint64_t output = shortest(ieee_m, ieee_e, pow5, pow5_inv, &exp10);
    char digits[20];
    int n = 1;
    for (uint64_t ten = 10; n < 17 && output >= ten; ten *= 10)
        n++;
    for (int i = n - 1; i >= 0; i--, output /= 10)
        digits[i] = (char)('0' + output % 10);
    const int32_t decpt = exp10 + n;

    if (-4 < decpt && decpt <= 0) {
        p = put(p, "0.");
        memset(p, '0', -decpt);
        p += -decpt;
        memcpy(p, digits, n);
        return p + n;
    }
    if (0 < decpt && decpt < n) {
        memcpy(p, digits, decpt);
        p[decpt] = '.';
        memcpy(p + decpt + 1, digits + decpt, n - decpt);
        return p + n + 1;
    }
    if (n <= decpt && decpt <= 16) {
        memcpy(p, digits, n);
        memset(p + n, '0', decpt - n);
        p += decpt;
        return put(p, ".0");
    }
    *p++ = digits[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, digits + 1, n - 1);
        p += n - 1;
    }
    int32_t e = decpt - 1;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    e = e < 0 ? -e : e;
    if (e >= 100)
        *p++ = (char)('0' + e / 100);
    *p++ = (char)('0' + e / 10 % 10);
    *p++ = (char)('0' + e % 10);
    return p;
}

int64_t repr_doubles(int64_t n, const double *x, int64_t sep, int64_t json,
                     const uint64_t *pow5, const uint64_t *pow5_inv, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        if (i)
            *p++ = (char)sep;
        p = write_repr(p, x[i], json != 0, pow5, pow5_inv);
    }
    return p - out;
}

/* The decimal digits of v, with no leading zeros. */
static char *write_uint(char *p, uint64_t v)
{
    char digits[20];
    int n = 0;
    do {
        digits[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    while (n)
        *p++ = digits[--n];
    return p;
}

int64_t repr_rows(int64_t n, const double *x, int64_t first, const uint64_t *pow5,
                  const uint64_t *pow5_inv, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        p = write_uint(p, (uint64_t)first + (uint64_t)i);
        *p++ = ',';
        p = write_repr(p, x[i], 0, pow5, pow5_inv);
        *p++ = '\n';
    }
    return p - out;
}
