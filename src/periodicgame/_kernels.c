/* Native trajectory kernels, loaded by _kernels.py through ctypes.
 *
 * Each function repeats the pure-Python kernel of the same name operation
 * for operation, in the same summation order, so that both give the same
 * bits.  Build without -ffast-math and with -ffp-contract=off: fused
 * multiply-adds or reassociated sums would change the last bits.
 *
 * Arrays are C-contiguous float64 (int64 for record times); the caller
 * owns every buffer, scratch space included, so nothing here allocates.
 * A return value of -1 means exp() overflowed on a finite argument, where
 * Python's math.exp raises OverflowError.
 *
 * format_csv_rows and format_points write the bytes that Python's
 * "%d,%d,%.17g,..." and "%.3f,%.3f" templates write, for the emitters in
 * output.py.  Both round exactly without printf (put_g17, put_fixed3);
 * snprintf writes only the cells outside 1e-16 < |v| < 1e16 (zeros, NaN
 * and inf among them), every cell where the compiler has no unsigned
 * __int128, and the points of |v| >= 2^53 / 1000.
 */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

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
    for (long i = 0; i < k; i++)
        s += exp(lw[i] - m);
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

    for (long t = 0; t < steps; t++) {
        const double *a = mats + (t % periods) * m * n;
        if (algo == ALGO_MWU) {
            matvec(a, m, n, p2, v1);
            mat_t_vec(a, m, n, p1, v2);
            for (long i = 0; i < m; i++)
                lw1[i] += eta * v1[i];
            for (long j = 0; j < n; j++)
                lw2[j] -= eta * v2[j];
        } else if (algo == ALGO_OMWU) {
            /* Python's (t - 1) % periods wraps to periods - 1 at t = 0. */
            const double *ap = mats + (((t - 1) % periods + periods) % periods) * m * n;
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

/* Room for one formatted value and snprintf's terminating NUL: "%.17g" takes
 * at most 24 bytes ("-1.2345678901234567e-308"), "%.3f" of a finite double
 * at most 314 (309 integer digits), an int64 20.  The slack covers a
 * multibyte locale decimal point before it is replaced. */
#define G17_ROOM 32
#define F3_ROOM 320
#define INT_ROOM 24

static char *put_uint(char *p, uint64_t u)
{
    char digits[20];
    int k = 0;
    do {
        digits[k++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (k)
        *p++ = digits[--k];
    return p;
}

static char *put_int(char *p, int64_t v)
{
    if (v < 0) {
        *p++ = '-';
        return put_uint(p, 0 - (uint64_t)v);
    }
    return put_uint(p, (uint64_t)v);
}

/* snprintf of one double, spelled as Python's % operator spells it: NaN is
 * "nan" whatever its sign bit (glibc writes "-nan") and the decimal point
 * is '.' whatever the C locale says. */
static char *put_printf(char *p, char *end, const char *fmt, double v, const char *point)
{
    if (isnan(v)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    int len = snprintf(p, (size_t)(end - p), fmt, v);
    size_t width = strlen(point);
    char *d;
    if ((width != 1 || point[0] != '.') && (d = strstr(p, point)) != NULL) {
        *d = '.';
        memmove(d + 1, d + width, strlen(d + width) + 1);
        len -= (int)width - 1;
    }
    return p + len;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define P5_27 7450580596923828125uLL
#define TEN16 10000000000000000uLL

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
     * decimal exponent or one above it, and one above leaves q < 10^16. */
    int x = e * 78913 >> 18;
    u128 q, rem, half;
    for (;; x--) {
        u128 n = m * POW5[16 - x];
        int s = e - 37 - x;
        if (s >= 0) {     /* exact: nothing to round */
            q = n << s;
            rem = 0;
            half = 1;
        } else {
            q = n >> -s;
            rem = n - (q << -s);
            half = (u128)1 << (-s - 1);
        }
        if (q >= TEN16)
            break;
    }
    uint64_t d = (uint64_t)q;
    if (rem > half || (rem == half && d % 2))
        d += 1;
    if (d == 10 * TEN16) {
        d = TEN16;
        x += 1;
    }
    char dig[17];
    uint32_t hi = (uint32_t)(d / 100000000u), lo = (uint32_t)(d % 100000000u);
    for (int i = 16; i >= 9; i--) {   /* two independent chains of 8 */
        dig[i] = (char)('0' + lo % 10);
        lo /= 10;
        dig[i - 8] = (char)('0' + hi % 10);
        hi /= 10;
    }
    dig[0] = (char)('0' + hi);
    int nd = 17;    /* digits left once %g drops the trailing zeros */
    while (dig[nd - 1] == '0')
        nd--;
    if (signbit(v))
        *p++ = '-';
    if (x < -4) {   /* exponent style; x < 17 always holds here */
        *p++ = dig[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, dig + 1, (size_t)(nd - 1));
            p += nd - 1;
        }
        p[0] = 'e';
        p[1] = '-';
        p[2] = (char)('0' - x / 10);
        p[3] = (char)('0' - x % 10);
        return p + 4;
    }
    if (x < 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)(-x - 1));
        p += -x - 1;
        memcpy(p, dig, (size_t)nd);
        return p + nd;
    }
    memcpy(p, dig, (size_t)(x + 1));
    p += x + 1;
    if (nd > x + 1) {
        *p++ = '.';
        memcpy(p, dig + x + 1, (size_t)(nd - x - 1));
        p += nd - x - 1;
    }
    return p;
}
#endif

/* One CSV cell at "%.17g".  POW5 covers decimal exponents from -16 up,
 * and the double nearest 1e-16 lies below 10^-16: the bound is exclusive. */
static char *put_cell(char *p, char *end, double v, const char *point)
{
#ifdef __SIZEOF_INT128__
    double a = fabs(v);
    if (a > 1e-16 && a < 1e16)
        return put_g17(p, v);
#endif
    return put_printf(p, end, "%.17g", v, point);
}

/* "%.3f" of v, rounded as Python rounds it: to the nearest thousandth of
 * the exact binary value, ties to even.  x + e == |v| * 1000 exactly, and
 * x is the double nearest that product, so x and the product round to the
 * same integer unless x is a half-integer; then the sign of e decides. */
static char *put_fixed3(char *p, char *end, double v, const char *point)
{
    double a = fabs(v);
    if (!(a < 0x1p53 / 1000))   /* NaN, inf, or too large to scale exactly */
        return put_printf(p, end, "%.3f", v, point);
    double x = a * 1000.0;
    double e = fma(a, 1000.0, -x);
    double f = floor(x);
    double frac = x - f;
    uint64_t r = (uint64_t)f;
    if (frac > 0.5 || (frac == 0.5 && (e > 0 || (e == 0 && r % 2))))
        r += 1;
    if (signbit(v))
        *p++ = '-';
    p = put_uint(p, r / 1000);
    unsigned milli = (unsigned)(r % 1000);
    p[0] = '.';
    p[1] = (char)('0' + milli / 100);
    p[2] = (char)('0' + milli / 10 % 10);
    p[3] = (char)('0' + milli % 10);
    return p + 4;
}

/* CSV lines "t,phase,c_1,...,c_k\n" for rows start.. of cells: (rows, k),
 * t and phase as %d, cells as %.17g.  Stops before a row that might not fit
 * in cap bytes; stores the bytes written in *len and returns the next row. */
long format_csv_rows(const int64_t *t, const int64_t *phase, const double *cells, long k,
                     long start, long rows, char *buf, long cap, long *len)
{
    const char *point = localeconv()->decimal_point;
    long row_room = 2 * INT_ROOM + k * (1 + G17_ROOM) + 1;
    char *p = buf, *end = buf + cap;
    long r = start;
    for (; r < rows && end - p >= row_room; r++) {
        p = put_int(p, t[r]);
        *p++ = ',';
        p = put_int(p, phase[r]);
        for (long j = 0; j < k; j++) {
            *p++ = ',';
            p = put_cell(p, end, cells[r * k + j], point);
        }
        *p++ = '\n';
    }
    *len = (long)(p - buf);
    return r;
}

/* Points start.. of xy: (n, 2) as "x,y" pairs at %.3f, each pair after the
 * first (index 0) preceded by a space.  Stops before a pair that might not
 * fit in cap bytes; stores the bytes written in *len and returns the next
 * index. */
long format_points(const double *xy, long start, long n, char *buf, long cap, long *len)
{
    const char *point = localeconv()->decimal_point;
    char *p = buf, *end = buf + cap;
    long i = start;
    for (; i < n && end - p >= 2 * F3_ROOM + 2; i++) {
        if (i > 0)
            *p++ = ' ';
        p = put_fixed3(p, end, xy[2 * i], point);
        *p++ = ',';
        p = put_fixed3(p, end, xy[2 * i + 1], point);
    }
    *len = (long)(p - buf);
    return i;
}
