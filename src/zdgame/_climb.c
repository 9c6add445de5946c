/* zdgame's compiled loops: one adapting path's whole ascent, for sweeps;
 * and, for verify, the discounted payoff series of many strategy pairs,
 * the normalizer or regularity residual of many random draws, and runs
 * of random pcZD enforcers, drawn by rejection sampling; and numpy's
 * PCG64 generator, whose stream verify draws from.
 *
 * The ascent loop is adaptive._climb without the recording: the same
 * payoff kernel (payoffs._matrix_rows -> _cofactors -> _payoff_terms), the
 * same scaled moves (adaptive._fd_move, or the scalar
 * gradients._gradient_quotient), the same clamp and the same Euclidean
 * stopping rule; the series loop is payoffs._series_rounds, the residual
 * loop verify._normalizer and verify._regularity on the draws of
 * verify._draws, with the ascent's rows and cofactors, and the enforcer
 * loop zd._try_pczd, zd.sample_pczd's tries.  Each is written with its
 * Python operation order.  Built with -ffp-contract=off, so that no
 * a*b + c becomes a fused multiply-add, every double equals its Python
 * result bit for bit.  The loader is zdgame/_native.py.
 */
#include <math.h>
#include <stdint.h>

enum { CONVERGED = 0, STEP_CAP = 1, VANISHED = 2 };

/* The opponent p0..p4, delta, T, S, nu, dq, step_tol and the normalizer
 * floor: twelve doubles, passed from Python as one array. */
typedef struct {
    double p[5], delta, T, S, nu, dq, step_tol, norm_floor;
} Game;

/* Row ell of the payoff determinant couples q_ell with this entry of p. */
static const int ROW_P_INDEX[5] = {0, 1, 3, 2, 4};

static double det3(const double *r0, const double *r1, const double *r2)
{
    return r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
         - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
         + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]);
}

/* Laplace expansion along the first two rows, as _linalg.det4. */
static double det4(const double m[4][4])
{
    double t01 = m[0][0] * m[1][1] - m[0][1] * m[1][0];
    double t02 = m[0][0] * m[1][2] - m[0][2] * m[1][0];
    double t03 = m[0][0] * m[1][3] - m[0][3] * m[1][0];
    double t12 = m[0][1] * m[1][2] - m[0][2] * m[1][1];
    double t13 = m[0][1] * m[1][3] - m[0][3] * m[1][1];
    double t23 = m[0][2] * m[1][3] - m[0][3] * m[1][2];
    double b01 = m[2][0] * m[3][1] - m[2][1] * m[3][0];
    double b02 = m[2][0] * m[3][2] - m[2][2] * m[3][0];
    double b03 = m[2][0] * m[3][3] - m[2][3] * m[3][0];
    double b12 = m[2][1] * m[3][2] - m[2][2] * m[3][1];
    double b13 = m[2][1] * m[3][3] - m[2][3] * m[3][1];
    double b23 = m[2][2] * m[3][3] - m[2][3] * m[3][2];
    return t01 * b23 - t02 * b13 + t03 * b12 + t12 * b03 - t13 * b02 + t23 * b01;
}

/* Rows of the payoff determinant's first three columns, as
 * payoffs._matrix_rows. */
static inline void matrix_rows(const double *p, const double *q, double delta, double r[4][3])
{
    double a = 1.0 - delta;
    double ap0 = a * p[0], aq0 = a * q[0], apq = ap0 * q[0];
    r[0][0] = -1.0 + delta * p[1] * q[1] + apq;
    r[0][1] = -1.0 + delta * p[1] + ap0;
    r[0][2] = -1.0 + delta * q[1] + aq0;
    r[1][0] = delta * p[3] * q[2] + apq;
    r[1][1] = delta * p[3] + ap0;
    r[1][2] = -1.0 + delta * q[2] + aq0;
    r[2][0] = delta * p[2] * q[3] + apq;
    r[2][1] = -1.0 + delta * p[2] + ap0;
    r[2][2] = delta * q[3] + aq0;
    r[3][0] = delta * p[4] * q[4] + apq;
    r[3][1] = delta * p[4] + ap0;
    r[3][2] = delta * q[4] + aq0;
}

/* The fourth column's signed cofactors, as payoffs._cofactors. */
static inline void cofactors(const double r[4][3], double c[4])
{
    c[0] = -det3(r[1], r[2], r[3]);
    c[1] = det3(r[0], r[2], r[3]);
    c[2] = -det3(r[0], r[1], r[3]);
    c[3] = det3(r[0], r[1], r[2]);
}

/* Rows of q's payoff determinant, its normalizer and Y's payoff numerator;
 * returns 0, or VANISHED with the normalizer in *vanished. */
static int payoff_terms(const Game *G, const double *q, double r[4][3],
                        double *d_ones, double *n_y, double *vanished)
{
    double c[4];
    matrix_rows(G->p, q, G->delta, r);
    cofactors((const double (*)[3])r, c);
    *d_ones = c[0] + c[1] + c[2] + c[3];
    if (fabs(*d_ones) < G->norm_floor) {
        *vanished = *d_ones;
        return VANISHED;
    }
    *n_y = c[0] + G->S * c[1] + G->T * c[2];
    return 0;
}

/* Y's payoff at q, for the finite-difference probes. */
static int payoff_y(const Game *G, const double *q, double *s_y, double *vanished)
{
    double r[4][3], d_ones, n_y;
    if (payoff_terms(G, q, r, &d_ones, &n_y, vanished))
        return VANISHED;
    *s_y = n_y / d_ones;
    return 0;
}

static int fd_moves(const Game *G, const double *q, double *move, double *vanished)
{
    for (int j = 0; j < 5; j++) {
        double plus[5], minus[5], s_plus, s_minus;
        for (int i = 0; i < 5; i++)
            plus[i] = minus[i] = q[i];
        plus[j] += G->dq;
        minus[j] -= G->dq;
        if (payoff_y(G, plus, &s_plus, vanished) || payoff_y(G, minus, &s_minus, vanished))
            return VANISHED;
        move[j] = G->nu * (s_plus - s_minus) / (2.0 * G->dq);
    }
    return 0;
}

static int analytic_moves(const Game *G, const double *q, double *move, double *vanished)
{
    double r[4][3], d_ones, n_y, m[4][4];
    if (payoff_terms(G, q, r, &d_ones, &n_y, vanished))
        return VANISHED;
    /* Y's payoff weights by matrix row (CC, DC, CD, DD) */
    const double g[4] = {1.0, G->S, G->T, 0.0};
    double denom = d_ones * d_ones;
    /* q0: every row minus the last, which then alone holds q0 */
    for (int i = 0; i < 3; i++) {
        for (int k = 0; k < 3; k++)
            m[i][k] = r[i][k] - r[3][k];
        m[i][3] = g[i] - g[3];
    }
    m[3][0] = G->p[0];
    m[3][1] = 0.0;
    m[3][2] = 1.0;
    m[3][3] = 0.0;
    double q0det = (1.0 - G->delta) * det4((const double (*)[4])m);
    move[0] = G->nu * (d_ones * q0det / denom);
    for (int ell = 1; ell < 5; ell++) {
        double det[2];
        for (int weighted = 0; weighted < 2; weighted++) {
            for (int i = 0; i < 4; i++) {
                if (i == ell - 1) {
                    m[i][0] = G->delta * G->p[ROW_P_INDEX[ell]];
                    m[i][1] = 0.0;
                    m[i][2] = G->delta;
                    m[i][3] = 0.0;
                } else {
                    for (int k = 0; k < 3; k++)
                        m[i][k] = r[i][k];
                    m[i][3] = weighted ? g[i] : 1.0;
                }
            }
            det[weighted] = det4((const double (*)[4])m);
        }
        move[ell] = G->nu * ((d_ones * det[1] - det[0] * n_y) / denom);
    }
    return 0;
}

/* Climb from q (five entries, overwritten with the final point) until
 * the update's Euclidean norm drops below step_tol or step max_steps is
 * taken.  Like _climb, the finite-difference loop also checks the
 * normalizer at each point it records, where the analytic gradient
 * evaluates it anyway, save at the capped last point. */
int zd_climb(const Game *G, int64_t max_steps, int analytic,
             double *q, int64_t *steps, double *vanished)
{
    double s_y, move[5], next[5], diff[5];
    int64_t n = 0;
    *steps = 0;
    if (!analytic && payoff_y(G, q, &s_y, vanished))
        return VANISHED;
    for (;;) {
        if ((analytic ? analytic_moves : fd_moves)(G, q, move, vanished))
            return VANISHED;
        for (int j = 0; j < 5; j++) {
            double x = q[j] + move[j];
            x = (0.0 > x) ? 0.0 : x; /* max(x, 0.0), NaN and -0.0 kept */
            x = (1.0 < x) ? 1.0 : x; /* min(x, 1.0) */
            next[j] = x;
            diff[j] = x - q[j];
        }
        double euclid = sqrt(diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]
                             + diff[3] * diff[3] + diff[4] * diff[4]);
        if (euclid < G->step_tol)
            return CONVERGED;
        *steps = ++n;
        for (int j = 0; j < 5; j++)
            q[j] = next[j];
        if ((!analytic || n >= max_steps) && payoff_y(G, q, &s_y, vanished))
            return VANISHED;
        if (n >= max_steps)
            return STEP_CAP;
    }
}

/* payoffs._series_rounds for n strategy pairs, stored pair-minor: pair k
 * sums rounds[k] terms from the first-round distribution v[i*n + k]
 * (i = 0..3) through the transition matrix rows[(4*i + j)*n + k] at
 * discount delta[k], with the outcome payoffs sx and sy, into sum_x[k]
 * and sum_y[k]. */
void zd_series(int64_t n, const int64_t *rounds, const double *v, const double *rows,
               const double *delta, const double *sx, const double *sy,
               double *sum_x, double *sum_y)
{
    for (int64_t k = 0; k < n; k++) {
        double r[16];
        for (int e = 0; e < 16; e++)
            r[e] = rows[e * n + k];
        double v0 = v[k], v1 = v[n + k], v2 = v[2 * n + k], v3 = v[3 * n + k];
        double weight = 1.0, acc_x = 0.0, acc_y = 0.0;
        for (int64_t t = 0; t < rounds[k]; t++) {
            acc_x += weight * (v0 * sx[0] + v1 * sx[1] + v2 * sx[2] + v3 * sx[3]);
            acc_y += weight * (v0 * sy[0] + v1 * sy[1] + v2 * sy[2] + v3 * sy[3]);
            weight *= delta[k];
            double n0 = v0 * r[0] + v1 * r[4] + v2 * r[8] + v3 * r[12];
            double n1 = v0 * r[1] + v1 * r[5] + v2 * r[9] + v3 * r[13];
            double n2 = v0 * r[2] + v1 * r[6] + v2 * r[10] + v3 * r[14];
            double n3 = v0 * r[3] + v1 * r[7] + v2 * r[11] + v3 * r[15];
            v0 = n0, v1 = n1, v2 = n2, v3 = n3;
        }
        sum_x[k] = acc_x;
        sum_y[k] = acc_y;
    }
}

/* numpy's PCG64 (XSL-RR 128/64), verify's own stream: the state and the
 * increment held as four little-endian uint64 words, state low, state
 * high, inc low, inc high, in a buffer the caller owns (seeded by
 * zdgame/_pcg.py).  The words are read and written one by one, as the
 * buffer is aligned for uint64 only.  A draw steps the state, state * MULT
 * + inc modulo 2^128, then takes the XSL-RR output of the new state. */
__extension__ typedef unsigned __int128 u128; /* GCC and Clang, on 64-bit targets */

static uint64_t pcg_next64(uint64_t *s)
{
    const u128 mult = (u128)0x2360ED051FC65DA4u << 64 | 0x4385DF649FCCF645u;
    u128 state = ((u128)s[1] << 64 | s[0]) * mult + ((u128)s[3] << 64 | s[2]);
    uint64_t lo = (uint64_t)state, hi = (uint64_t)(state >> 64), x = hi ^ lo;
    unsigned rot = (unsigned)(hi >> 58);
    s[0] = lo;
    s[1] = hi;
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* The stream's next rng.random() value, numpy's next_double: the top 53
 * bits of the next draw times 2^-53.  The kernels below read a verify
 * stream through this function's address, as they read numpy's. */
double zd_pcg_double(void *state)
{
    return (double)(pcg_next64(state) >> 11) * 0x1.0p-53;
}

/* The stream's next n rng.random() values, as rng.random(n). */
void zd_pcg_fill(void *state, int64_t n, double *out)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = zd_pcg_double(state);
}

/* rng.uniform(lo, hi) given the rng.random() value u it draws, as
 * verify._uniform. */
static double uniform(double lo, double hi, double u)
{
    return lo + (hi - lo) * u;
}

/* n draws of verify's normalizer stream, each p, then q, from [0, 1)^5
 * and delta = uniform(lo, hi): eleven values of next(state), the ctypes
 * next_double of rng.bit_generator (zd_pcg_double for a verify stream, or
 * a numpy generator's), whose lock the caller holds.
 * out[k] is draw k's normalizer D(p, q, delta, 1), its four cofactors
 * summed, or where identity is set its regularity residual
 * |det(I - delta M) - (1 - delta) D| / |D|, with M the transition matrix
 * of game._transition_rows; verify._normalizer and verify._regularity
 * take the same steps on numpy arrays. */
void zd_residuals(double (*next)(void *), void *state, double lo, double hi, int identity,
                  int64_t n, double *out)
{
    for (int64_t k = 0; k < n; k++) {
        double p[5], q[5], r[4][3], c[4];
        for (int j = 0; j < 5; j++)
            p[j] = next(state);
        for (int j = 0; j < 5; j++)
            q[j] = next(state);
        double delta = uniform(lo, hi, next(state));
        matrix_rows(p, q, delta, r);
        cofactors((const double (*)[3])r, c);
        double d_ones = c[0] + c[1] + c[2] + c[3];
        if (!identity) {
            out[k] = d_ones;
            continue;
        }
        /* row i of M pairs x = p[i + 1] with Y's entry of the same prior
         * outcome, the mixed two swapped: (q1, q3, q2, q4) */
        const double y[4] = {q[1], q[3], q[2], q[4]};
        double a[4][4];
        for (int i = 0; i < 4; i++) {
            double x = p[i + 1];
            const double m[4] = {x * y[i], x * (1.0 - y[i]), (1.0 - x) * y[i],
                                 (1.0 - x) * (1.0 - y[i])};
            for (int j = 0; j < 4; j++)
                a[i][j] = (double)(i == j) - delta * m[j]; /* 0.0 - x, never -x */
        }
        out[k] = fabs(det4((const double (*)[4])a) - (1.0 - delta) * d_ones) / fabs(d_ones);
    }
}

/* One cut of the phi window by the entry (c + slope * phi) / delta, as
 * zd._narrow: a flat slope leaves the window, or empties it when c / delta
 * lies outside [0, 1]; min and max keep the first of equal values. */
static void narrow(double *lo, double *hi, double c, double slope, double delta)
{
    if (fabs(slope) < 1e-300) {
        if (!(0.0 <= c / delta && c / delta <= 1.0))
            *hi = -INFINITY;
        return;
    }
    double a = -c / slope, b = (delta - c) / slope;
    double left = (b < a) ? b : a;  /* min(a, b) */
    double right = (b > a) ? b : a; /* max(a, b) */
    if (left > *lo)
        *lo = left;
    if (right < *hi)
        *hi = right;
}

/* zd._entries: p1..p4 at scale phi, with float noise within 1e-12 outside
 * the cube absorbed; returns zd._accepts, phi > 0 and each in [0, 1]. */
static int entries(double phi, double chi, double kappa, double p0, double delta,
                   double T, double S, double e[4])
{
    double base = (1.0 - delta) * p0;
    const double t[4] = {
        1.0 - phi * (chi - 1.0) * (1.0 - kappa),
        1.0 - phi * (chi * T - S - (chi - 1.0) * kappa),
        phi * (T - chi * S + (chi - 1.0) * kappa),
        phi * (chi - 1.0) * kappa,
    };
    int ok = phi > 0.0;
    for (int j = 0; j < 4; j++) {
        double v = (t[j] - base) / delta;
        if (-1e-12 <= v && v < 0.0)
            v = 0.0;
        else if (1.0 < v && v <= 1.0 + 1e-12)
            v = 1.0;
        e[j] = v;
        ok = ok && 0.0 <= v && v <= 1.0;
    }
    return ok;
}

/* n pcZD draws, each zd._try_pczd(rng, params, tries, ...): tries until
 * one is accepted or `tries` are rejected.  Each rng.random() value is
 * next(state), as in zd_residuals.  A try draws delta and chi uniform in
 * the ranges draw[0..1] and draw[2..3], then kappa and p0 in (0, 1) unless
 * draw[7] and draw[6] fix them (NaN: drawn); an empty phi window rejects
 * it after these values, a drawn phi outside the cube after one more.  Draw h
 * fills column h of cols, stored row-major as (rows, n): p0, p1..p4, the
 * five values read after the accepted try as q where with_q is set, and
 * delta.  A draw whose tries are all rejected ends the call.  Returns the
 * draws made, with the tries rejected in *rejected; draw[4], draw[5] are
 * T and S.  verify._walk, with_q set and no limit that a run can reach,
 * is this loop draw by draw. */
int64_t zd_pczd(double (*next)(void *), void *state, const double *draw, int64_t tries,
                int with_q, int64_t n, double *cols, int64_t *rejected)
{
    const double T = draw[4], S = draw[5], fixed_p0 = draw[6], fixed_kappa = draw[7];
    const int64_t last = with_q ? 10 : 5;
    *rejected = 0;
    for (int64_t h = 0; h < n; h++) {
        double d, p0, e[4];
        for (int64_t t = 0;; t++) {
            if (t == tries)
                return h;
            d = uniform(draw[0], draw[1], next(state));
            double chi = uniform(draw[2], draw[3], next(state));
            double kappa = isnan(fixed_kappa) ? uniform(0.0, 1.0, next(state)) : fixed_kappa;
            p0 = isnan(fixed_p0) ? uniform(0.0, 1.0, next(state)) : fixed_p0;
            double base = (1.0 - d) * p0, lo = 0.0, hi = INFINITY;
            narrow(&lo, &hi, 1.0 - base, -(chi - 1.0) * (1.0 - kappa), d);
            narrow(&lo, &hi, 1.0 - base, -(chi * T - S - (chi - 1.0) * kappa), d);
            narrow(&lo, &hi, -base, T - chi * S + (chi - 1.0) * kappa, d);
            narrow(&lo, &hi, -base, (chi - 1.0) * kappa, d);
            if (lo < hi) {
                double span = hi - lo;
                double phi = uniform(lo + 0.01 * span, hi - 0.01 * span, next(state));
                if (entries(phi, chi, kappa, p0, d, T, S, e))
                    break;
            }
            ++*rejected;
        }
        cols[h] = p0;
        for (int j = 0; j < 4; j++)
            cols[(1 + j) * n + h] = e[j];
        for (int64_t j = 5; j < last; j++)
            cols[j * n + h] = next(state);
        cols[last * n + h] = d;
    }
    return n;
}
