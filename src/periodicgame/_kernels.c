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
 * format_csv_rows and format_points write the bytes that Python's
 * "%d,%d,%.17g,..." and "%.3f,%.3f" templates write, for the emitters in
 * output.py.  Both round exactly without printf (put_g17, put_fixed3);
 * snprintf writes only the cells outside 1e-16 < |v| < 1e16 (zeros, NaN
 * and inf among them), every cell where the compiler has no unsigned
 * __int128, and the points of |v| >= 2^53 / 1000.
 *
 * parse_csv_rows reads such a file back for read_csv: the columns t and
 * phase as exact int64, every other cell as the nearest double, which is
 * the written one.  Cells of up to 19 significant digits with a decimal
 * exponent in [-31, 19] are rounded exactly without strtod
 * (exact_decimal); strtod reads the rest in place.
 *
 * The three text functions switch the calling thread to the "C" LC_NUMERIC
 * locale with uselocale and restore the caller's before they return, so
 * snprintf writes '.' and strtod reads it whatever the process locale is.
 */

#define _POSIX_C_SOURCE 200809L   /* newlocale, uselocale under -std=c99 */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
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
 * at most 314 (309 integer digits), an int64 20. */
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
 * "nan" whatever its sign bit (glibc writes "-nan"). */
static char *put_printf(char *p, char *end, const char *fmt, double v)
{
    if (isnan(v)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    return p + snprintf(p, (size_t)(end - p), fmt, v);
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
static char *put_cell(char *p, char *end, double v)
{
#ifdef __SIZEOF_INT128__
    double a = fabs(v);
    if (a > 1e-16 && a < 1e16)
        return put_g17(p, v);
#endif
    return put_printf(p, end, "%.17g", v);
}

/* "%.3f" of v, rounded as Python rounds it: to the nearest thousandth of
 * the exact binary value, ties to even.  x + e == |v| * 1000 exactly, and
 * x is the double nearest that product, so x and the product round to the
 * same integer unless x is a half-integer; then the sign of e decides. */
static char *put_fixed3(char *p, char *end, double v)
{
    double a = fabs(v);
    if (!(a < 0x1p53 / 1000))   /* NaN, inf, or too large to scale exactly */
        return put_printf(p, end, "%.3f", v);
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

/* Points start.. of xy: (n, 2) as "x,y" pairs at %.3f, each pair after the
 * first (index 0) preceded by a space.  Stops before a pair that might not
 * fit in cap bytes; stores the bytes written in *len and returns the next
 * index. */
long format_points(const double *xy, long start, long n, char *buf, long cap, long *len)
{
    locale_t caller = uselocale(c_numeric);
    char *p = buf, *end = buf + cap;
    long i = start;
    for (; i < n && end - p >= 2 * F3_ROOM + 2; i++) {
        if (i > 0)
            *p++ = ' ';
        p = put_fixed3(p, end, xy[2 * i]);
        *p++ = ',';
        p = put_fixed3(p, end, xy[2 * i + 1]);
    }
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

/* The int64 "[+-]digits" spelled by [s, e); 0 when the cell is not one or
 * is out of range. */
static int read_int(const char *s, const char *e, int64_t *out)
{
    int neg = s < e && *s == '-';
    if (s < e && (*s == '+' || *s == '-'))
        s++;
    if (s == e)
        return 0;
    uint64_t u = 0, limit = neg ? (uint64_t)INT64_MAX + 1 : (uint64_t)INT64_MAX;
    for (; s < e; s++) {
        if (!is_digit(*s) || u > (limit - (uint64_t)(*s - '0')) / 10)
            return 0;
        u = u * 10 + (uint64_t)(*s - '0');
    }
    *out = neg ? -(int64_t)(u - 1) - 1 : (int64_t)u;
    return 1;
}

/* Whether [s, e) is w in any case. */
static int is_word(const char *s, const char *e, const char *w)
{
    size_t n = strlen(w);
    if ((size_t)(e - s) != n)
        return 0;
    for (size_t i = 0; i < n; i++)
        if ((s[i] | 0x20) != w[i])
            return 0;
    return 1;
}

#ifdef __SIZEOF_INT128__
/* The double nearest to d * 10^q, ties to even, for d < 10^19 and
 * -31 <= q <= 19, from exact integer arithmetic: the inverse of put_g17.
 * For q >= 0, d * 10^q < 2^128 and the integer-to-double conversion rounds
 * correctly.  For q < 0, d * 10^q = (N / 5^-q) * 2^(q - s) with
 * N = d * 2^s in [2^127, 2^128); the quotient keeps at least 56 bits as
 * 5^31 < 2^72, so a sticky bit for a nonzero remainder below them rounds
 * as the exact value does, and the power-of-two scaling stays normal. */
static double exact_decimal(uint64_t d, int q)
{
    if (q >= 0)
        return (double)((u128)d * (POW5[q] << q));
    int s = 64 + __builtin_clzll(d);
    u128 n = (u128)d << s, quo = n / POW5[-q];
    quo |= n - quo * POW5[-q] != 0;
    return ldexp((double)quo, q - s);
}
#endif

/* The double spelled by [s, e): an optional sign, then inf, infinity or
 * nan in any case, or digits with at most one '.' and at least one digit,
 * then an optional exponent "[eE][+-]digits".  This is the grammar of
 * Python's float() less underscores; strtod alone would also take hex
 * floats and "nan(...)".  Up to 19 significant digits with a decimal
 * exponent in [-31, 19] go through exact_decimal; the rest through strtod,
 * which rounds correctly too (glibc; Clinger, PLDI 1990).  strtod reads the
 * cell in place: it is in the grammar, and *e (a blank, ',', '#', a line
 * end or the NUL after the buffer) cannot extend a number.  Returns 1, or
 * 0 for a cell outside the grammar. */
static int read_double(const char *s, const char *e, double *out)
{
    int neg = s < e && *s == '-';
    const char *q = s + (s < e && (*s == '+' || *s == '-'));
    if (is_word(q, e, "inf") || is_word(q, e, "infinity")) {
        *out = neg ? -INFINITY : INFINITY;
        return 1;
    }
    if (is_word(q, e, "nan")) {
        *out = neg ? -NAN : NAN;
        return 1;
    }
    /* sig counts the digits from the first nonzero one; d holds the first
     * 19 of them, and scale counts the fraction digits in d and the zeros
     * before it. */
    uint64_t d = 0;
    int digits = 0, sig = 0, scale = 0;
    const char *dot = NULL;
    for (; q < e && (is_digit(*q) || (*q == '.' && !dot)); q++) {
        if (*q == '.') {
            dot = q;
            continue;
        }
        digits++;
        if (sig < 19) {
            d = d * 10 + (uint64_t)(*q - '0');
            sig += d != 0;
            scale -= dot != NULL;
        } else {
            sig++;
        }
    }
    if (!digits)
        return 0;
    int x = 0;
    if (q < e && (*q == 'e' || *q == 'E')) {
        int xneg = q + 1 < e && q[1] == '-';
        q += 1 + (q + 1 < e && (q[1] == '+' || q[1] == '-'));
        if (q == e)
            return 0;
        for (; q < e && is_digit(*q); q++)
            if (x < 100000)
                x = x * 10 + (*q - '0');
        x = xneg ? -x : x;
    }
    if (q != e)
        return 0;
#ifdef __SIZEOF_INT128__
    if (sig <= 19 && (d == 0 || (x + scale >= -31 && x + scale <= 19))) {
        double v = d == 0 ? 0.0 : exact_decimal(d, x + scale);
        *out = neg ? -v : v;
        return 1;
    }
#endif
    char *stop;
    *out = strtod(s, &stop);
    return stop == e;
}

/* The end of the cell that starts at p: its ',', '#', line end or end. */
static const char *cell_end(const char *p, const char *end)
{
    while (p < end && *p != ',' && *p != '#' && *p != '\n' && *p != '\r')
        p++;
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
            /* Count every cell of the line; read the first ncols. */
            long j = 0;
            for (;; j++) {
                const char *c = p;
                p = cell_end(p, end);
                if (j < ncols) {
                    const char *a = c, *b = p;
                    while (a < b && is_blank(*a))
                        a++;
                    while (b > a && is_blank(b[-1]))
                        b--;
                    int ok = j == t_col ? read_int(a, b, &t[rows])
                             : j == phase_col ? read_int(a, b, &phase[rows])
                             : read_double(a, b, row++);
                    if (!ok) {
                        err[0] = line;
                        err[1] = j;
                        err[2] = c - buf;
                        err[3] = p - buf;
                        rows = -1;
                        goto done;
                    }
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
