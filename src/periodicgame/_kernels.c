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
 */

#include <math.h>
#include <stdint.h>

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
