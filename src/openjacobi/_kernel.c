/* Euler-Maruyama block kernel for hybrid Jacobi market weights.
 *
 * Compiled on first use by openjacobi._kernel with -ffp-contract=off and
 * called through ctypes.  It reproduces sde._advance_block_numpy bit for
 * bit: every arithmetic operation happens in the same order as in the numpy
 * expression, and the two row sums follow numpy's pairwise summation.
 * The block minima of the ranked weights come from the same rank order the
 * drift uses, so they cost one comparison per weight and step.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* pairwise_sum's loop for n < 8. */
static inline double plain_sum(const double *v, int64_t n)
{
    double res = 0.0;
    for (int64_t i = 0; i < n; i++)
        res += v[i];
    return res;
}

/* numpy's pairwise_sum for float64 (loops_utils.h.src). */
static double pairwise_sum(const double *v, int64_t n)
{
    if (n < 8)
        return plain_sum(v, n);
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = v[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += v[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += v[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(v, n2) + pairwise_sum(v + n2, n - n2);
}

/* Sum of a row as ``arr.sum(axis=-1)`` computes it: the add reduction
 * starts from the identity 0.0.  Rows shorter than 8 take pairwise_sum's
 * plain loop inline, so small d pays no call in the step loop. */
static inline double row_sum(const double *v, int64_t n)
{
    return 0.0 + (n < 8 ? plain_sum(v, n) : pairwise_sum(v, n));
}

/* Whether name i ranks ahead of name j: a larger weight, or an equal weight
 * and a smaller index.  NaN ranks last, as in numpy's sort of -x. */
static inline int ahead(double xi, int64_t i, double xj, int64_t j)
{
    if (xi > xj)
        return 1;
    if (xi < xj)
        return 0;
    if (xi == xj)
        return i < j;
    if (isnan(xi))
        return isnan(xj) && i < j;
    return 1;
}

/* Insertion-sort order[0..d) so that x[order[k]] is the (k+1)-th largest
 * weight, ties broken as ``ahead`` does.  Started from the previous state's
 * order, the sort usually does d - 1 comparisons. */
static inline void rank(const double *x, int64_t *order, int64_t d)
{
    for (int64_t k = 1; k < d; k++) {
        int64_t name = order[k];
        int64_t m = k;
        while (m > 0 && ahead(x[name], name, x[order[m - 1]], order[m - 1])) {
            order[m] = order[m - 1];
            m--;
        }
        order[m] = name;
    }
}

/* Fold the ranked weights of x into the running minima low, propagating
 * NaN as numpy's min does. */
static inline void fold_min(const double *x, const int64_t *order, double *low, int64_t d)
{
    for (int64_t k = 0; k < d; k++) {
        double v = x[order[k]];
        if (v < low[k] || isnan(v))
            low[k] = v;
    }
}

/* Fill rows 1..B of a block of P paths from row 0.  Row b of the block
 * starts at block + b * row, and path p's weights at offset p * d in it, so
 * the P paths may be a slice of a wider step-major (B+1, P', d) array with
 * row = P' * d.  z is (P, B, d), C-contiguous and path-major: z[p, b]
 * drives step b of path p.  clips[p] counts the steps of path p that
 * clipped, and low[p*d + k] is the minimum of path p's (k+1)-th ranked
 * weight over rows 1..B.  The paths advance in lockstep, step b of every
 * path before step b+1 of any, so the independent dependency chains of
 * different paths overlap.  Each path keeps its own row of ``order``,
 * carried from step to step, and of the ``sz`` and ``drift`` scratch.  Step
 * b ranks row b for its drift; the minima fold that order in for rows
 * 1..B-1, and row B is ranked once more at the end.  Returns 0, or -1 when
 * out of memory. */
int oj_advance_block(int64_t B, int64_t P, int64_t d, int64_t row, double *block,
                     const double *z, const double *a, const double *gamma,
                     double half, double total, double dt, double vol,
                     int64_t *clips, double *low)
{
    const size_t n = (size_t)(P * d);
    int64_t *order = malloc(n * sizeof *order);
    double *sz = malloc(n * sizeof *sz);
    double *drift = malloc(n * sizeof *drift);
    if (!order || !sz || !drift) {
        free(order);
        free(sz);
        free(drift);
        return -1;
    }
    for (int64_t p = 0; p < P; p++) {
        for (int64_t k = 0; k < d; k++) {
            order[p * d + k] = k;
            low[p * d + k] = INFINITY;
        }
    }
    for (int64_t b = 0; b < B; b++) {
        for (int64_t p = 0; p < P; p++) {
            const double *x = block + b * row + p * d;
            const double *zb = z + (p * B + b) * d;
            double *xn = block + (b + 1) * row + p * d;
            int64_t *op = order + p * d;
            double *szp = sz + p * d;
            double *dp = drift + p * d;

            rank(x, op, d);
            if (b > 0)
                fold_min(x, op, low + p * d, d);
            for (int64_t k = 0; k < d; k++) {
                int64_t i = op[k];
                dp[i] = half * ((gamma[i] + a[k]) - total * x[i]);
            }
            for (int64_t i = 0; i < d; i++)
                szp[i] = sqrt(x[i]) * zb[i];
            double mix = row_sum(szp, d);
            int bad = 0;
            for (int64_t i = 0; i < d; i++) {
                double v = (x[i] + dp[i] * dt) + vol * (szp[i] - x[i] * mix);
                if (v < 0.0) {
                    v = 0.0;
                    bad = 1;
                } else if (v > 1.0) {
                    v = 1.0;
                    bad = 1;
                }
                xn[i] = v;
            }
            clips[p] += bad;
            double s = row_sum(xn, d);
            for (int64_t i = 0; i < d; i++)
                xn[i] /= s;
        }
    }
    if (B > 0) {
        for (int64_t p = 0; p < P; p++) {
            const double *last = block + B * row + p * d;
            rank(last, order + p * d, d);
            fold_min(last, order + p * d, low + p * d, d);
        }
    }
    free(order);
    free(sz);
    free(drift);
    return 0;
}
