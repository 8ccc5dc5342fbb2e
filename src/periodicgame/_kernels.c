/* Native trajectory kernels, loaded by _kernels.py through ctypes.
 *
 * Each function repeats the pure-Python kernel of the same name operation
 * for operation, in the same summation order, so that both give the same
 * bits.  Build without -ffast-math and with -ffp-contract=off: fused
 * multiply-adds or reassociated sums would change the last bits.
 *
 * Arrays are C-contiguous float64 (int64 for record times, CSV times and
 * phases); the caller owns every buffer, scratch space included, so nothing
 * here allocates but the one locale object of init_locale.
 * A return value of -1 means exp() overflowed on a finite argument, where
 * Python's math.exp raises OverflowError.
 *
 * kl_rows computes simplex.kl_to_reference, the joint KL from the
 * reference to each recorded state, in one pass over both players' blocks
 * with the additions of the numpy columns it replaces, in their order.
 *
 * format_csv_rows and format_plot_points write the bytes that Python's
 * "%d,%d,%.17g,..." and "%.3f,%.3f" templates write, for the emitters in
 * output.py.  Both round exactly without printf (put_g17, put_fixed3) and
 * write eight digits at a time (eight_digits); snprintf writes only the
 * cells outside 1e-16 < |v| < 1e16 (zeros, NaN and inf among them) and the
 * points of |v| >= 2^53 / 1000.  An SVG series takes one pass here, over
 * the points that emit_svg_plot keeps, found in numpy with their extremes:
 * format_plot_points takes log10 (the libm function that Python's
 * math.log10 calls) and scales them, with the bits of the numpy
 * expressions of its Python fallback.  It writes at most four points of
 * each pixel column of the plot: of each run of consecutive points whose
 * written x has one integer part, the first, the first of least y, the
 * first of greatest y and the last, which keep the line's ends and its
 * extremes in every column.
 *
 * parse_csv_rows reads such a file back for read_csv: the columns t and
 * phase as exact int64, every other cell as the nearest double, which is
 * the written one.  Each cell is read in one pass, eight digits at a time
 * where eight bytes are left.  Cells of up to 19 significant digits with a
 * decimal exponent in [-31, 19] are rounded by Eisel-Lemire (eisel_lemire);
 * strtod reads the rest in place, and the ties and near ties that
 * Eisel-Lemire cannot decide, which no "%.17g" cell is.  Both exact paths
 * need unsigned __int128: a compiler without it stops at the #error below,
 * and _kernels.py runs its Python functions instead.
 *
 * The three text functions switch the calling thread to the "C" LC_NUMERIC
 * locale with uselocale and restore the caller's before they return, so
 * snprintf writes '.' and strtod reads it whatever the process locale is.
 *
 * pairs_into is the one function that reads Python objects: it copies a
 * list of (t, v) pairs of floats and ints into a float64 array for
 * emit_svg_plot.  It is called with the GIL held (ctypes.PyDLL), calls no
 * Python code, takes no reference and allocates nothing; anything but
 * exact floats and ints in exact pairs is handed back to the caller.  It
 * is built only where Python.h is found (the build passes the running
 * interpreter's include directory) and the interpreter has a GIL.
 */

/* Python.h comes first, as the C API asks: it sets feature macros that the
 * system headers read. */
#if defined(__has_include)
#if __has_include(<Python.h>)
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#ifndef Py_GIL_DISABLED
#define HAVE_PAIRS_INTO
#endif
#endif
#endif

#ifndef _POSIX_C_SOURCE
#define _POSIX_C_SOURCE 200809L   /* newlocale, uselocale under -std=c99 */
#endif

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "_kernels.c needs unsigned __int128 (64-bit gcc or clang)"
#endif

#define ALGO_MWU 0
#define ALGO_OMWU 1

/* In-place log-softmax: afterwards logsumexp(lw) == 0. */
static void lse_normalize(double *lw, long k)
{
    double m = lw[0];
    for (long i = 1; i < k; i++)
        if (lw[i] > m)
            m = lw[i];
    double s = 0.0;
    for (long i = 0; i < k; i++) {
        /* exp(+-0) is exactly 1, and at least one term is the maximum. */
        double d = lw[i] - m;
        s += d == 0.0 ? 1.0 : exp(d);
    }
    double c = m + log(s);
    for (long i = 0; i < k; i++)
        lw[i] = lw[i] - c;
}

static int exp_into(const double *lw, double *out, long k)
{
    for (long i = 0; i < k; i++) {
        out[i] = exp(lw[i]);
        if (isinf(out[i]) && !isinf(lw[i]))
            return -1;
    }
    return 0;
}

static void matvec(const double *a, long m, long n, const double *x, double *out)
{
    for (long i = 0; i < m; i++) {
        double acc = 0.0;
        for (long j = 0; j < n; j++)
            acc += a[i * n + j] * x[j];
        out[i] = acc;
    }
}

static void mat_t_vec(const double *a, long m, long n, const double *x, double *out)
{
    for (long j = 0; j < n; j++) {
        double acc = 0.0;
        for (long i = 0; i < m; i++)
            acc += a[i * n + j] * x[i];
        out[j] = acc;
    }
}

/* mats: (periods, m, n).  scratch: 5 * (m + n) doubles. */
long run_schedule(int algo, const double *mats, long periods, long m, long n,
                  double eta, long steps, const int64_t *rec_times, long n_rec,
                  double *lw1, double *lw2, const double *lwp1, const double *lwp2,
                  double *out1, double *out2, double *scratch)
{
    double *p1 = scratch, *q1 = p1 + m, *v1 = q1 + m, *w1 = v1 + m, *h1 = w1 + m;
    double *p2 = h1 + m, *q2 = p2 + n, *v2 = q2 + n, *w2 = v2 + n, *h2 = w2 + n;

    if (exp_into(lw1, p1, m) || exp_into(lw2, p2, n)
        || exp_into(lwp1, q1, m) || exp_into(lwp2, q2, n))
        return -1;

    long r = 0;
    if (n_rec > 0 && rec_times[0] == 0) {
        for (long i = 0; i < m; i++)
            out1[i] = lw1[i];
        for (long j = 0; j < n; j++)
            out2[j] = lw2[j];
        r = 1;
    }

    /* ph is t % periods and prev is (t - 1) % periods, which Python wraps to
     * periods - 1 at t = 0. */
    for (long t = 0, ph = 0, prev = periods - 1; t < steps; t++) {
        const double *a = mats + ph * m * n;
        if (algo == ALGO_MWU) {
            matvec(a, m, n, p2, v1);
            mat_t_vec(a, m, n, p1, v2);
            for (long i = 0; i < m; i++)
                lw1[i] += eta * v1[i];
            for (long j = 0; j < n; j++)
                lw2[j] -= eta * v2[j];
        } else if (algo == ALGO_OMWU) {
            const double *ap = mats + prev * m * n;
            matvec(a, m, n, p2, v1);
            mat_t_vec(a, m, n, p1, v2);
            matvec(ap, m, n, q2, w1);
            mat_t_vec(ap, m, n, q1, w2);
            for (long i = 0; i < m; i++)
                q1[i] = p1[i];
            for (long j = 0; j < n; j++)
                q2[j] = p2[j];
            for (long i = 0; i < m; i++)
                lw1[i] += eta * (2.0 * v1[i] - w1[i]);
            for (long j = 0; j < n; j++)
                lw2[j] -= eta * (2.0 * v2[j] - w2[j]);
        } else {
            matvec(a, m, n, p2, v1);
            mat_t_vec(a, m, n, p1, v2);
            for (long i = 0; i < m; i++)
                h1[i] = lw1[i] + eta * v1[i];
            for (long j = 0; j < n; j++)
                h2[j] = lw2[j] - eta * v2[j];
            lse_normalize(h1, m);
            lse_normalize(h2, n);
            exp_into(h1, q1, m);
            exp_into(h2, q2, n);
            matvec(a, m, n, q2, w1);
            mat_t_vec(a, m, n, q1, w2);
            /* Second step restarts from the pre-half-step state. */
            for (long i = 0; i < m; i++)
                lw1[i] += eta * w1[i];
            for (long j = 0; j < n; j++)
                lw2[j] -= eta * w2[j];
        }
        lse_normalize(lw1, m);
        lse_normalize(lw2, n);
        exp_into(lw1, p1, m);
        exp_into(lw2, p2, n);
        if (r < n_rec && rec_times[r] == t + 1) {
            for (long i = 0; i < m; i++)
                out1[r * m + i] = lw1[i];
            for (long j = 0; j < n; j++)
                out2[r * n + j] = lw2[j];
            r += 1;
        }
        prev = ph;
        if (++ph == periods)
            ph = 0;
    }
    return r;
}

/* One step of the 2x2 alternating game's reduced map; sign = +1 gives the
 * map from an even time index, sign = -1 the one from an odd index. */
static int reduced_step(double sign, const double *z, double eta, double *out)
{
    double z1 = z[0], z2 = z[1], z3 = z[2], z4 = z[3];
    double x1 = sign * (-3.0 * eta + 4.0 * eta * z4 + 2.0 * eta * z3);
    double x2 = sign * (3.0 * eta - 4.0 * eta * z2 - 2.0 * eta * z1);
    double e1 = exp(x1), e2 = exp(x2);
    if ((isinf(e1) && !isinf(x1)) || (isinf(e2) && !isinf(x2)))
        return -1;
    out[0] = z2;
    out[1] = z2 / (z2 + (1.0 - z2) * e1);
    out[2] = z4;
    out[3] = z4 / (z4 + (1.0 - z4) * e2);
    return 0;
}

/* Iterate (even map o odd map) n_steps times into out: (n_steps + 1, 4). */
long run_reduced_composite(const double *z0, double eta, long n_steps, double *out)
{
    double z[4], w[4];
    for (int k = 0; k < 4; k++) {
        z[k] = z0[k];
        out[k] = z0[k];
    }
    for (long step = 0; step < n_steps; step++) {
        if (reduced_step(-1.0, z, eta, w) || reduced_step(1.0, w, eta, z))
            return -1;
        for (int k = 0; k < 4; k++)
            out[(step + 1) * 4 + k] = z[k];
    }
    return 0;
}

/* KL(reference, x) for one player's row x of k normalized log-probabilities:
 * the terms (rlp_j - x_j) * rp_j of the coordinates where the reference has
 * mass, added from left to right from +0.0, or +inf when x vanishes (falls
 * below log_zero) on one of them. */
static double player_kl(const double *rp, const double *rlp, const double *x, long k,
                        double log_zero)
{
    double acc = 0.0;
    int vanished = 0;
    for (long j = 0; j < k; j++)
        if (rp[j] > 0.0) {
            acc += (rlp[j] - x[j]) * rp[j];
            vanished |= x[j] < log_zero;
        }
    return vanished ? INFINITY : acc;
}

/* Joint KL(reference, state) per row of lp1 (rows, m) and lp2 (rows, n) into
 * out (rows,): 0.0 + kl1 + kl2, then clamped at 0.0 with NaN kept, as
 * kl_to_reference adds its two player columns into zeros and clamps them
 * with np.maximum.  ref holds the reference's probabilities and normalized
 * log-probabilities, m of each for player 1, then n of each for player 2. */
void kl_rows(const double *ref, const double *lp1, long m, const double *lp2, long n,
             long rows, double log_zero, double *out)
{
    const double *rp2 = ref + 2 * m;
    for (long r = 0; r < rows; r++) {
        double kl = 0.0 + player_kl(ref, ref + m, lp1 + r * m, m, log_zero);
        kl += player_kl(rp2, rp2 + n, lp2 + r * n, n, log_zero);
        out[r] = kl < 0.0 ? 0.0 : kl;
    }
}

/* The "C" LC_NUMERIC locale the text functions run in; a second load of
 * the library in the same process finds it made and keeps it. */
static locale_t c_numeric;

/* Called by _kernels.py on load: 1 when the locale exists, else 0. */
int init_locale(void)
{
    if (c_numeric == (locale_t)0)
        c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    return c_numeric != (locale_t)0;
}

/* Room for one formatted value and snprintf's terminating NUL: "%.17g" takes
 * at most 24 bytes ("-1.2345678901234567e-308"), "%.3f" of a finite double
 * at most 314 (309 integer digits), an int64 20.  The writers below store
 * whole words of eight digits, which may run past a value's end but stay
 * within its room. */
#define G17_ROOM 32
#define F3_ROOM 320
#define INT_ROOM 24

#define TEN8 100000000uLL
#define TEN16 10000000000000000uLL

/* Eight ASCII '0's: a word of digits less this holds their values. */
#define ASCII_ZEROS 0x3030303030303030uLL

/* Eight bytes as a number whose low byte is the first, on any byte order. */
static uint64_t load8(const char *p)
{
    uint64_t v;
    memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

static void store8(char *p, uint64_t v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    memcpy(p, &v, sizeof v);
}

/* The eight digits of v < 10^8 in ASCII, the first in the low byte: each
 * step splits every lane of the word in two with a multiply and a shift
 * (10486 / 2^20 and 103 / 2^10 divide numbers below 10^4 and 10^2 by 100
 * and 10 exactly). */
static inline uint64_t eight_digits(uint32_t v)
{
    uint64_t x = v / 10000 | (uint64_t)(v % 10000) << 32;
    uint64_t hi = (x * 10486 >> 20) & 0x0000007F0000007FuLL;
    x = (x - 100 * hi) << 16 | hi;
    hi = (x * 103 >> 10) & 0x000F000F000F000FuLL;
    return (hi | (x - 10 * hi) << 8) + ASCII_ZEROS;
}

/* u < 10^8 in decimal: its eight digits less their leading zeros, though
 * never the last digit. */
static inline char *put_short_uint(char *p, uint32_t u)
{
    uint64_t w = eight_digits(u);
    int lead = __builtin_ctzll((w - ASCII_ZEROS) | 1uLL << 56) / 8;
    store8(p, w >> 8 * lead);
    return p + 8 - lead;
}

static char *put_uint(char *p, uint64_t u)
{
    if (u < TEN8)
        return put_short_uint(p, (uint32_t)u);
    p = put_uint(p, u / TEN8);
    store8(p, eight_digits((uint32_t)(u % TEN8)));
    return p + 8;
}

static inline char *put_int(char *p, int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    *p = '-';
    p += v < 0;
    return u < TEN8 ? put_short_uint(p, (uint32_t)u) : put_uint(p, u);
}

/* snprintf of one double, spelled as Python's % operator spells it: NaN is
 * "nan" whatever its sign bit (glibc writes "-nan"). */
static char *put_printf(char *p, char *end, const char *fmt, double v)
{
    if (isnan(v)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    return p + snprintf(p, (size_t)(end - p), fmt, v);
}

typedef unsigned __int128 u128;

#define P5_27 7450580596923828125uLL

/* 5^k for k = 0..32; 5^32 * 2^53 < 2^128. */
static const u128 POW5[33] = {
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u, 9765625u,
    48828125u, 244140625u, 1220703125u, 6103515625uLL, 30517578125uLL,
    152587890625uLL, 762939453125uLL, 3814697265625uLL, 19073486328125uLL,
    95367431640625uLL, 476837158203125uLL, 2384185791015625uLL,
    11920928955078125uLL, 59604644775390625uLL, 298023223876953125uLL,
    1490116119384765625uLL, P5_27, (u128)P5_27 * 5, (u128)P5_27 * 25,
    (u128)P5_27 * 125, (u128)P5_27 * 625, (u128)P5_27 * 3125,
};

/* The smallest double >= 10^x for x = -16..16. */
static const double TEN_UP[33] = {
    1.0000000000000001e-16, 1e-15, 1.0000000000000002e-14, 1e-13, 1.0000000000000002e-12,
    1.0000000000000001e-11, 1e-10, 1e-09, 1e-08, 1.0000000000000001e-07,
    1.0000000000000002e-06, 1e-05, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5,
    1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
};

/* "%.17g" of v for 10^-16 < |v| < 10^16, from exact integer arithmetic.
 * With |v| = m * 2^(e - 53) and decimal exponent x, the 17 significant
 * digits are d = |v| * 10^(16 - x) = m * 5^(16 - x) * 2^(e - 37 - x),
 * rounded half to even on the exact remainder, as glibc and Python round.
 * %g picks its style from x after rounding, so a carry to 10^17 moves x. */
static char *put_g17(char *p, double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int e = (int)(bits >> 52 & 0x7ff) - 1022;   /* v is normal here */
    uint64_t m = (bits & 0xfffffffffffffuLL) | 1uLL << 52;
    /* floor(e * log10(2)), exact for |e| < 1650: |v| < 2^e, so this is the
     * decimal exponent or one above it; |v| > 10^-16 keeps x >= -16. */
    int x = e * 78913 >> 18;
    x -= fabs(v) < TEN_UP[x + 16];
    u128 n = m * POW5[16 - x];
    int sh = x + 37 - e;    /* the exact value is n / 2^sh */
    uint64_t d;
    if (sh <= 0) {
        d = (uint64_t)(n << -sh);
    } else if (sh < 64) {
        uint64_t lo = (uint64_t)n, rem = lo & ((1uLL << sh) - 1), half = 1uLL << (sh - 1);
        d = (uint64_t)(n >> 64) << (64 - sh) | lo >> sh;
        d += (rem > half) | ((rem == half) & d);
    } else {
        u128 rem = n & (((u128)1 << sh) - 1), half = (u128)1 << (sh - 1);
        d = (uint64_t)(n >> sh);
        d += (rem > half) | ((rem == half) & d);
    }
    if (d == 10 * TEN16) {
        d = TEN16;
        x += 1;
    }
    /* The first digit, then two words of eight; nd counts the digits left
     * once %g drops the trailing zeros, the last ones in the words' high
     * bytes. */
    uint32_t top = (uint32_t)(d / TEN8);
    char first = (char)('0' + top / 100000000u);
    uint64_t hi8 = eight_digits(top % 100000000u);
    uint64_t lo8 = eight_digits((uint32_t)(d % TEN8));
    int nd = lo8 != ASCII_ZEROS ? 17 - __builtin_clzll(lo8 - ASCII_ZEROS) / 8
             : hi8 != ASCII_ZEROS ? 9 - __builtin_clzll(hi8 - ASCII_ZEROS) / 8 : 1;
    if (signbit(v))
        *p++ = '-';
    if (x < -4) {   /* exponent style; x < 17 always holds here */
        p[0] = first;
        p[1] = '.';
        store8(p + 2, hi8);
        store8(p + 10, lo8);
        p += nd > 1 ? nd + 1 : 1;
        p[0] = 'e';
        p[1] = '-';
        p[2] = (char)('0' - x / 10);
        p[3] = (char)('0' - x % 10);
        return p + 4;
    }
    if (x < 0) {    /* "0." and -x - 1 <= 3 zeros before the digits */
        memcpy(p, "0.000", 5);
        p += 1 - x;
    }
    p[0] = first;
    store8(p + 1, hi8);
    store8(p + 9, lo8);
    if (x < 0)
        return p + nd;
    if (nd <= x + 1)    /* an integer: its x + 1 digits */
        return p + x + 1;
    memmove(p + x + 2, p + x + 1, (size_t)(nd - x - 1));
    p[x + 1] = '.';
    return p + nd + 1;
}

/* One CSV cell at "%.17g".  POW5 covers decimal exponents from -16 up,
 * and the double nearest 1e-16 lies below 10^-16: the bound is exclusive. */
static char *put_cell(char *p, char *end, double v)
{
    double a = fabs(v);
    if (a > 1e-16 && a < 1e16)
        return put_g17(p, v);
    return put_printf(p, end, "%.17g", v);
}

/* put_fixed3 scales |v| exactly below this bound. */
#define F3_EXACT (0x1p53 / 1000)

/* |v| in thousandths for |v| < F3_EXACT, rounded as Python's "%.3f"
 * rounds: to the nearest thousandth of the exact binary value, ties to
 * even.  |v| = f * 2^-s exactly, so |v| * 1000 = f * 1000 * 2^-s with
 * f * 1000 < 2^63, and s > 9 as |v| < 2^43; for s >= 64 the product is
 * below one half. */
static inline uint64_t thousandths(double v)
{
    double a = fabs(v);
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    int biased = (int)(bits >> 52);
    uint64_t f = bits & 0xfffffffffffffuLL;
    int s = biased ? 1075 - biased : 1074;
    if (biased)
        f |= 1uLL << 52;
    uint64_t r = 0;
    if (s < 64) {
        uint64_t n = f * 1000, rem = n & ((1uLL << s) - 1), half = 1uLL << (s - 1);
        r = n >> s;
        r += (rem > half) | ((rem == half) & r);
    }
    return r;
}

/* "%.3f" of v from r = thousandths(v). */
static inline char *put_thousandths(char *p, double v, uint64_t r)
{
    if (signbit(v))
        *p++ = '-';
    uint64_t w;
    if (r >= TEN8) {
        p = put_uint(p, r / 1000);
        w = eight_digits((uint32_t)(r % 1000));
    } else {    /* r in eight digits: the integer part is all but the last three */
        w = eight_digits((uint32_t)r);
        int lead = __builtin_ctzll((w - ASCII_ZEROS) | 1uLL << 32) / 8;
        store8(p, w >> 8 * lead);
        p += 5 - lead;
    }
    p[0] = '.';
    store8(p + 1, w >> 40);     /* the last three digits */
    return p + 4;
}

/* "%.3f" of v, rounded as Python rounds it. */
static inline char *put_fixed3(char *p, char *end, double v)
{
    if (!(fabs(v) < F3_EXACT))  /* NaN, inf, or too large to scale exactly */
        return put_printf(p, end, "%.3f", v);
    return put_thousandths(p, v, thousandths(v));
}

/* CSV lines "t,phase,c_1,...,c_k\n" for rows start.. of cells: (rows, k),
 * t and phase as %d, cells as %.17g.  Stops before a row that might not fit
 * in cap bytes; stores the bytes written in *len and returns the next row. */
long format_csv_rows(const int64_t *t, const int64_t *phase, const double *cells, long k,
                     long start, long rows, char *buf, long cap, long *len)
{
    locale_t caller = uselocale(c_numeric);
    long row_room = 2 * INT_ROOM + k * (1 + G17_ROOM) + 1;
    char *p = buf, *end = buf + cap;
    long r = start;
    for (; r < rows && end - p >= row_room; r++) {
        p = put_int(p, t[r]);
        *p++ = ',';
        p = put_int(p, phase[r]);
        for (long j = 0; j < k; j++) {
            *p++ = ',';
            p = put_cell(p, end, cells[r * k + j]);
        }
        *p++ = '\n';
    }
    *len = (long)(p - buf);
    uselocale(caller);
    return r;
}

/* A plot point: its index and coordinates, thousandths(x) where
 * |x| < F3_EXACT, and the integer part of its written x, the "%.3f" text
 * before the '.', as a number whose sign tells "-0" from "0".  A finite x
 * past F3_EXACT is a multiple of 2^-9, and rounding it to thousandths keeps
 * its integer part, trunc(x), which also stands for NaN and inf.  Points
 * pass by value, so that the compiler keeps their fields in registers. */
struct plot_point {
    long at;
    double x, y, col;
    uint64_t rx;
};

/* The plot point of index i of xy.  v becomes log10 v under log_y (the
 * libm function math.log10 calls).  axes holds (k, start, span, size,
 * margin) for x, then for y; a coordinate is
 * margin + (v * k - start) / span * size, evaluated in that order, where
 * k = 0.5 halves v as emit_svg_plot halves the other operands when a span
 * overflows. */
static inline struct plot_point plot_point_at(const double *xy, int log_y, const double *axes,
                                              long i)
{
    const double *ax = axes, *ay = axes + 5;
    double t = xy[2 * i], v = log_y ? log10(xy[2 * i + 1]) : xy[2 * i + 1];
    struct plot_point pt = {i, ax[4] + (t * ax[0] - ax[1]) / ax[2] * ax[3],
                            ay[4] + (v * ay[0] - ay[1]) / ay[2] * ay[3], 0, 0};
    if (fabs(pt.x) < F3_EXACT) {
        pt.rx = thousandths(pt.x);
        pt.col = copysign((double)(pt.rx / 1000), pt.x);
    } else {
        pt.col = trunc(pt.x);
    }
    return pt;
}

/* Whether two integer parts of plot_point_at are the same text; no
 * comparison with NaN holds. */
static inline int same_column(double a, double b)
{
    return a == b && !signbit(a) == !signbit(b);
}

/* " x,y" at %.3f, without the space unless sep. */
static inline char *put_pair(char *p, char *end, struct plot_point pt, int sep)
{
    *p = ' ';
    p += sep;
    p = fabs(pt.x) < F3_EXACT ? put_thousandths(p, pt.x, pt.rx) : put_printf(p, end, "%.3f", pt.x);
    *p++ = ',';
    return put_fixed3(p, end, pt.y);
}

/* The pairs of one run: its first point, its first points of least and of
 * greatest y and its last point, in point order, each once. */
static inline char *put_run(char *p, char *end, int sep, struct plot_point first,
                            struct plot_point lo, struct plot_point hi, struct plot_point last)
{
    if (hi.at < lo.at) {
        struct plot_point pt = lo;
        lo = hi;
        hi = pt;
    }
    p = put_pair(p, end, first, sep);
    if (lo.at != first.at)
        p = put_pair(p, end, lo, 1);
    if (hi.at != lo.at)
        p = put_pair(p, end, hi, 1);
    if (last.at != hi.at)
        p = put_pair(p, end, last, 1);
    return p;
}

/* Room for one written pair and the space before it. */
#define PAIR_ROOM (2 * F3_ROOM + 2)

/* "x,y" pairs at %.3f, each after the series' first preceded by a space,
 * for the points of xy (t and v finite, v > 0 under log_y: those that
 * emit_svg_plot keeps) from start on, at most four of each run of
 * consecutive points whose written x has one integer part, a pixel column
 * of the plot (M4; Jugel et al., "M4: A Visualization-Oriented Time Series
 * Data Aggregation", VLDB 2014): those of put_run.  In every column the
 * polyline through them reaches the least and the greatest y of the one
 * through every point.  Stops before a run whose pairs might not fit in
 * cap bytes; stores the bytes written in *len and returns the index of
 * that run's first point, or n.  A call with start > 0 follows one that
 * stopped on a full buffer, so a pair has been written before it. */
long format_plot_points(const double *xy, int log_y, const double *axes, long start, long n,
                        char *buf, long cap, long *len)
{
    locale_t caller = uselocale(c_numeric);
    char *p = buf, *end = buf + cap;
    int sep = start > 0, in_run = 0;
    struct plot_point first = {0}, lo = first, hi = first, last = first;
    long i = start;
    for (; i < n; i++) {
        struct plot_point cur = plot_point_at(xy, log_y, axes, i);
        if (in_run && same_column(cur.col, first.col)) {
            if (cur.y < lo.y)
                lo = cur;
            if (cur.y > hi.y)
                hi = cur;
            last = cur;
            continue;
        }
        if (in_run) {
            p = put_run(p, end, sep, first, lo, hi, last);
            sep = 1;
        }
        if (end - p < 4 * PAIR_ROOM)
            break;
        first = lo = hi = last = cur;
        in_run = 1;
    }
    if (i == n && in_run)
        p = put_run(p, end, sep, first, lo, hi, last);
    *len = (long)(p - buf);
    uselocale(caller);
    return i;
}

/* The blanks a cell may carry on either side: the ASCII whitespace that
 * Python's float() strips, less the line ends. */
static int is_blank(char c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f';
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* Whether the cell ends at p: at a ',', '#', line end or the end. */
static int at_cell_end(const char *p, const char *end)
{
    return p == end || *p == ',' || *p == '#' || *p == '\n' || *p == '\r';
}

/* The end of the cell that starts at p. */
static const char *cell_end(const char *p, const char *end)
{
    while (!at_cell_end(p, end))
        p++;
    return p;
}

/* The end of w (lower case) spelled in any case at p, or NULL. */
static const char *read_word(const char *p, const char *end, const char *w)
{
    for (; *w; p++, w++)
        if (p == end || (*p | 0x20) != *w)
            return NULL;
    return p;
}

/* Whether the eight bytes of v are all ASCII digits: a byte above '9'
 * sets its high bit in the sum, one below '0' in the difference. */
static int all_digits8(uint64_t v)
{
    return !(((v + 0x4646464646464646uLL) | (v - ASCII_ZEROS)) & 0x8080808080808080uLL);
}

/* The number eight ASCII digits spell, the first in the low byte. */
static uint64_t value8(uint64_t v)
{
    v -= ASCII_ZEROS;
    v = v * 10 + (v >> 8);
    return ((v & 0x000000FF000000FFuLL) * 0x000F424000000064uLL
            + (v >> 16 & 0x000000FF000000FFuLL) * 0x0000271000000001uLL) >> 32;
}

/* Appends the digits at p to *d (modulo 2^64), eight at a time while eight
 * bytes are left before end; returns the first byte that is not a digit. */
static inline const char *read_digits(const char *p, const char *end, uint64_t *d)
{
    uint64_t v = *d;
    for (; end - p >= 8 && all_digits8(load8(p)); p += 8)
        v = v * 100000000 + value8(load8(p));
    for (; p < end && is_digit(*p); p++)
        v = v * 10 + (uint64_t)(*p - '0');
    *d = v;
    return p;
}

/* The int64 "[+-]digits" at s: returns its end, or NULL when none starts
 * there or it is out of range. */
static const char *read_int(const char *s, const char *end, int64_t *out)
{
    int neg = s < end && *s == '-';
    if (s < end && (*s == '+' || *s == '-'))
        s++;
    uint64_t u = 0, limit = neg ? (uint64_t)INT64_MAX + 1 : (uint64_t)INT64_MAX;
    const char *p = s;
    for (; p < end && is_digit(*p); p++) {
        if (u > (limit - (uint64_t)(*p - '0')) / 10)
            return NULL;
        u = u * 10 + (uint64_t)(*p - '0');
    }
    if (p == s)
        return NULL;
    *out = neg ? -(int64_t)(u - 1) - 1 : (int64_t)u;
    return p;
}

/* 5^q * 2^(127 - floor(q * log2(5))) for q = -31..19, in [2^127, 2^128):
 * {high, low} 64-bit halves, exact for q >= 0 and rounded up for q < 0. */
static const uint64_t POW5_128[51][2] = {
    {0x81ceb32c4b43fcf4, 0x80eacf948770ced8}, {0xa2425ff75e14fc31, 0xa1258379a94d028e},
    {0xcad2f7f5359a3b3e, 0x096ee45813a04331}, {0xfd87b5f28300ca0d, 0x8bca9d6e188853fd},
    {0x9e74d1b791e07e48, 0x775ea264cf55347e}, {0xc612062576589dda, 0x95364afe032a819e},
    {0xf79687aed3eec551, 0x3a83ddbd83f52205}, {0x9abe14cd44753b52, 0xc4926a9672793543},
    {0xc16d9a0095928a27, 0x75b7053c0f178294}, {0xf1c90080baf72cb1, 0x5324c68b12dd6339},
    {0x971da05074da7bee, 0xd3f6fc16ebca5e04}, {0xbce5086492111aea, 0x88f4bb1ca6bcf585},
    {0xec1e4a7db69561a5, 0x2b31e9e3d06c32e6}, {0x9392ee8e921d5d07, 0x3aff322e62439fd0},
    {0xb877aa3236a4b449, 0x09befeb9fad487c3}, {0xe69594bec44de15b, 0x4c2ebe687989a9b4},
    {0x901d7cf73ab0acd9, 0x0f9d37014bf60a11}, {0xb424dc35095cd80f, 0x538484c19ef38c95},
    {0xe12e13424bb40e13, 0x2865a5f206b06fba}, {0x8cbccc096f5088cb, 0xf93f87b7442e45d4},
    {0xafebff0bcb24aafe, 0xf78f69a51539d749}, {0xdbe6fecebdedd5be, 0xb573440e5a884d1c},
    {0x89705f4136b4a597, 0x31680a88f8953031}, {0xabcc77118461cefc, 0xfdc20d2b36ba7c3e},
    {0xd6bf94d5e57a42bc, 0x3d32907604691b4d}, {0x8637bd05af6c69b5, 0xa63f9a49c2c1b110},
    {0xa7c5ac471b478423, 0x0fcf80dc33721d54}, {0xd1b71758e219652b, 0xd3c36113404ea4a9},
    {0x83126e978d4fdf3b, 0x645a1cac083126ea}, {0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4},
    {0xcccccccccccccccc, 0xcccccccccccccccd}, {0x8000000000000000, 0x0000000000000000},
    {0xa000000000000000, 0x0000000000000000}, {0xc800000000000000, 0x0000000000000000},
    {0xfa00000000000000, 0x0000000000000000}, {0x9c40000000000000, 0x0000000000000000},
    {0xc350000000000000, 0x0000000000000000}, {0xf424000000000000, 0x0000000000000000},
    {0x9896800000000000, 0x0000000000000000}, {0xbebc200000000000, 0x0000000000000000},
    {0xee6b280000000000, 0x0000000000000000}, {0x9502f90000000000, 0x0000000000000000},
    {0xba43b74000000000, 0x0000000000000000}, {0xe8d4a51000000000, 0x0000000000000000},
    {0x9184e72a00000000, 0x0000000000000000}, {0xb5e620f480000000, 0x0000000000000000},
    {0xe35fa931a0000000, 0x0000000000000000}, {0x8e1bc9bf04000000, 0x0000000000000000},
    {0xb1a2bc2ec5000000, 0x0000000000000000}, {0xde0b6b3a76400000, 0x0000000000000000},
    {0x8ac7230489e80000, 0x0000000000000000},
};

/* Eisel-Lemire (Lemire, "Number Parsing at a Gigabyte per Second", Softw.
 * Pract. Exp. 2021): the double nearest to d * 10^q, 0 < d < 2^64 and
 * -31 <= q <= 19, from the 192-bit P = w * T, with w = d * 2^l shifted to
 * 64 bits and T the table entry.  T is exact for q >= 0, so P is the exact
 * product X; for q < 0, X lies in (P - w, P).  P's top 53 bits are the
 * mantissa and the 138 or 139 below them, f, decide its rounding.  f below
 * half rounds down: so does X, also when X falls just under P's power of
 * two and rounds up to it.  f above half by more than the error rounds up.
 * Returns 0 where f is within the error of half, on a tie or a near one,
 * which strtod rounds instead.  Otherwise the double is m * 2^k, as
 * d * 10^q = X * 2^(q - l - 127 + floor(q * log2(5))), and 152170 * q >> 16
 * is that floor over the table's range. */
static int eisel_lemire(uint64_t d, int q, double *out)
{
    const uint64_t *t = POW5_128[q + 31];
    int l = __builtin_clzll(d);
    uint64_t w = d << l;
    u128 low = (u128)w * t[1];
    u128 top = (u128)w * t[0] + (uint64_t)(low >> 64);
    uint64_t hi = (uint64_t)(top >> 64), mid = (uint64_t)top;
    int s = 10 + (int)(hi >> 63);     /* P >= 2^190: hi's top bit is 62 or 63 */
    uint64_t m = hi >> s, f = hi & ((1uLL << s) - 1), half = 1uLL << (s - 1);
    if (f == half && mid == 0 && (uint64_t)low <= (q < 0 ? w : 0))
        return 0;
    m += f >= half;     /* without a branch to mispredict */
    /* A carry to m = 2^53 carries into the exponent field. */
    int k = 1 + s + q - l + (152170 * q >> 16);
    uint64_t bits = ((uint64_t)(k + 1074) << 52) + m;
    memcpy(out, &bits, sizeof bits);
    return 1;
}

/* Reads the number at s: an optional sign, then inf, infinity or nan in any
 * case, or digits with at most one '.' and at least one digit, then an
 * optional exponent "[eE][+-]digits".  This is the grammar of Python's
 * float() less underscores; strtod alone would also take hex floats and
 * "nan(...)".  One pass reads the number as d * 10^q, the digits d exact
 * when at most 19 of them are significant.  Those with q in [-31, 19] go
 * through eisel_lemire; the rest, and the ties it cannot decide, through
 * strtod, which rounds correctly too (glibc; Clinger, PLDI 1990) and reads
 * the number in place: a byte after it (a blank, ',', '#', a line end or
 * the NUL after the buffer) cannot extend it.  Returns the number's end,
 * or NULL when none starts at s. */
static const char *read_double(const char *s, const char *end, double *out)
{
    int neg = s < end && *s == '-';
    const char *digits = s + (s < end && (*s == '+' || *s == '-'));
    const char *dot = NULL, *p;
    uint64_t d = 0;
    p = read_digits(digits, end, &d);
    if (p < end && *p == '.') {
        dot = p;
        p = read_digits(p + 1, end, &d);
    }
    long nd = p - digits - (dot != NULL);
    if (!nd) {
        const char *w;
        if ((w = read_word(digits, end, "infinity")) || (w = read_word(digits, end, "inf")))
            *out = neg ? -INFINITY : INFINITY;
        else if ((w = read_word(digits, end, "nan")))
            *out = neg ? -NAN : NAN;
        return w;
    }
    long q = dot ? -(p - dot - 1) : 0, sig = nd;
    if (sig > 19) {     /* leading zeros are not significant */
        const char *z = digits;
        while (z < p && (*z == '0' || *z == '.'))
            z++;
        sig = (p - z) - (dot != NULL && dot > z);
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        int xneg = p + 1 < end && p[1] == '-';
        p += 1 + (p + 1 < end && (p[1] == '+' || p[1] == '-'));
        if (!(p < end && is_digit(*p)))
            return NULL;
        long x = 0;
        for (; p < end && is_digit(*p); p++)
            if (x < 100000)
                x = x * 10 + (*p - '0');
        q += xneg ? -x : x;
    }
    double v;
    if (sig <= 19 && d == 0) {
        v = 0.0;
    } else if (!(sig <= 19 && q >= -31 && q <= 19 && eisel_lemire(d, (int)q, &v))) {
        char *stop;
        *out = strtod(s, &stop);
        return stop == p ? p : NULL;
    }
    *out = neg ? -v : v;
    return p;
}

/* The number of bytes c in buf[pos..size), with which the caller sizes
 * parse_csv_rows's outputs. */
long count_byte(const char *buf, long pos, long size, int c)
{
    const char *p = buf + pos, *end = buf + size;
    long n = 0;
    while (p < end && (p = memchr(p, c, (size_t)(end - p))) != NULL) {
        n++;
        p++;
    }
    return n;
}

/* CSV body rows from buf[pos..size) into t, phase (one int64 each a row)
 * and cells (rows, ncols - 2: the other columns in order).  Lines end in
 * "\n", "\r\n" or "\r"; '#' starts a comment; a line that is blank up to
 * its comment is skipped.  Every row holds ncols cells, each a number as
 * read_double reads it (read_int for columns t_col and phase_col) with
 * blanks on either side; a row's first ncols cells are read before its
 * length is checked.  The caller sizes the outputs for one row per line
 * and passes a buffer whose byte buf[size] is NUL.  line is the file line
 * number of buf[pos].  Returns the rows read, or -1 with err = {line,
 * column, cell start, cell end} for a bad cell and err = {line, -1, cells
 * in the line, 0} for a row of the wrong length. */
long parse_csv_rows(const char *buf, long pos, long size, long line, long ncols,
                    long t_col, long phase_col, int64_t *t, int64_t *phase,
                    double *cells, int64_t *err)
{
    locale_t caller = uselocale(c_numeric);
    const char *p = buf + pos, *end = buf + size;
    long rows = 0;
    double *row = cells;
    for (; p < end; line++) {
        const char *s = p;
        while (s < end && is_blank(*s))
            s++;
        if (s < end && *s != '#' && *s != '\n' && *s != '\r') {
            /* Count every cell of the line; read the first ncols, each in
             * one pass from its first byte that is not a blank. */
            long j = 0;
            for (;; j++) {
                const char *c = p;
                if (j < ncols) {
                    while (p < end && is_blank(*p))
                        p++;
                    p = j == t_col ? read_int(p, end, &t[rows])
                        : j == phase_col ? read_int(p, end, &phase[rows])
                        : read_double(p, end, row++);
                    while (p && p < end && is_blank(*p))
                        p++;
                    if (!p || !at_cell_end(p, end)) {
                        err[0] = line;
                        err[1] = j;
                        err[2] = c - buf;
                        err[3] = cell_end(c, end) - buf;
                        rows = -1;
                        goto done;
                    }
                } else {
                    p = cell_end(p, end);
                }
                if (p == end || *p != ',')
                    break;
                p++;
            }
            if (j + 1 != ncols) {
                err[0] = line;
                err[1] = -1;
                err[2] = j + 1;
                err[3] = 0;
                rows = -1;
                goto done;
            }
            rows++;
        }
        while (p < end && *p != '\n' && *p != '\r')
            p++;
        if (p < end)
            p += (*p == '\r' && p + 1 < end && p[1] == '\n') ? 2 : 1;
    }
done:
    uselocale(caller);
    return rows;
}

#ifdef HAVE_PAIRS_INTO
/* One value of a pair: an exact float as it is, an exact int as float()
 * converts it (PyLong_AsDouble, correctly rounded).  -1 for any other
 * object and for an int beyond the double range, with no error left set. */
static int pair_value(PyObject *v, double *out)
{
    if (PyFloat_CheckExact(v)) {
        *out = PyFloat_AS_DOUBLE(v);
        return 0;
    }
    if (!PyLong_CheckExact(v))
        return -1;
    *out = PyLong_AsDouble(v);
    if (*out == -1.0 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* Copies the n (t, v) pairs of seq, an exact list or tuple of exact
 * 2-tuples or 2-lists of exact floats or ints, into out (n, 2) and returns
 * n.  Returns -1 for anything else (a subclass, a bool, a numpy scalar, a
 * wrong length, an int beyond the double range), which the caller then
 * converts itself. */
long pairs_into(PyObject *seq, double *out, long n)
{
    if (!(PyList_CheckExact(seq) || PyTuple_CheckExact(seq))
        || PySequence_Fast_GET_SIZE(seq) != n)
        return -1;
    PyObject **pairs = PySequence_Fast_ITEMS(seq);
    for (long i = 0; i < n; i++) {
        PyObject *pair = pairs[i];
        if (!(PyTuple_CheckExact(pair) || PyList_CheckExact(pair))
            || PySequence_Fast_GET_SIZE(pair) != 2)
            return -1;
        PyObject **tv = PySequence_Fast_ITEMS(pair);
        if (pair_value(tv[0], out + 2 * i) || pair_value(tv[1], out + 2 * i + 1))
            return -1;
    }
    return n;
}
#endif
