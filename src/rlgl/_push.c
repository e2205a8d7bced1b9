/* The inner loop of engine.run for single-node schedules on a CSR matrix
 * (rlgl_push_loop), and the strongly-connected-components pass models
 * runs on a graph's CSR rows (rlgl_scc, at the end).
 *
 * Built and loaded by pushloop.py.  Each step repeats, operation for
 * operation, what engine.run's Python loop does with RoundRobin, Theta,
 * MaxCash or ProportionalCash and engine.step on a TransitionMatrix, with
 * or without a restart part, or on its GaussSeidelRows view, so H, C and
 * every counter come out with the same bytes.
 * The dangling rows of a matrix with a restart part are its empty CSR
 * rows, so the loop takes no dangling array.
 * Compile with -ffp-contract=off: a fused multiply-add would round C
 * differently.
 *
 * The loop returns to Python before any step that needs it (the guard
 * fires, the cash may be below eps, max_steps, a Theta refresh, no cash
 * left for MaxCash, a ProportionalCash total that is not finite and
 * positive, no uniform draw left) and after any step that makes a trace
 * row due or lets the rounding bound of the incremental ||C||_1 pass its
 * drift limit.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { KIND_RR = 0, KIND_THETA = 1, KIND_MAXC = 2, KIND_PC = 3 };

/* Run state shared with Python; fields in pushloop.LoopState's order. */
typedef struct {
    int64_t t, updates, k;
    double cum_cost, scan_cost, total_history, cash_l1, l1_err, max_l1_increase;
} loop_state;

/* Per-call constants; fields in pushloop.LoopParams' order. */
typedef struct {
    int64_t kind, n, offset, max_steps, record_at, sum_depth, draws;
    double theta, eps, initial_mass, guard_unit, drift_tol, unit, restart_share, dangling_share;
} loop_params;

/* Indexed binary max-heap of all nodes, ordered as np.argmax(np.abs(C))
 * picks: larger |C| first, the lower index on ties. */
typedef struct {
    const double *C;
    int64_t *node; /* node at heap position */
    int64_t *pos;  /* heap position of node */
    int64_t n;
} heap;

static int above(const heap *h, int64_t a, int64_t b)
{
    double x = fabs(h->C[a]), y = fabs(h->C[b]);
    return x > y || (x == y && a < b);
}

static void place(heap *h, int64_t p, int64_t v)
{
    h->node[p] = v;
    h->pos[v] = p;
}

static int64_t sift_up(heap *h, int64_t p)
{
    int64_t v = h->node[p];
    while (p > 0) {
        int64_t q = (p - 1) / 2;
        if (!above(h, v, h->node[q]))
            break;
        place(h, p, h->node[q]);
        p = q;
    }
    place(h, p, v);
    return p;
}

static void sift_down(heap *h, int64_t p)
{
    int64_t v = h->node[p];
    for (;;) {
        int64_t c = 2 * p + 1;
        if (c >= h->n)
            break;
        if (c + 1 < h->n && above(h, h->node[c + 1], h->node[c]))
            c++;
        if (!above(h, h->node[c], v))
            break;
        place(h, p, h->node[c]);
        p = c;
    }
    place(h, p, v);
}

/* Restore the order after |C[v]| changed. */
static void reorder(heap *h, int64_t v)
{
    int64_t p = h->pos[v];
    if (sift_up(h, p) == p)
        sift_down(h, p);
}

static int heap_init(heap *h, const double *C, int64_t n)
{
    h->C = C;
    h->n = n;
    h->node = malloc((size_t)n * sizeof *h->node);
    h->pos = malloc((size_t)n * sizeof *h->pos);
    if (!h->node || !h->pos)
        return -1;
    for (int64_t i = 0; i < n; i++)
        place(h, i, i);
    for (int64_t p = n / 2 - 1; p >= 0; p--)
        sift_down(h, p);
    return 0;
}

/* The first index of the largest |C[j]|, as np.argmax(np.abs(C)). */
static int64_t argmax_abs(const double *C, int64_t n)
{
    int64_t arg = 0;
    double best = -1.0;
    for (int64_t j = 0; j < n; j++)
        if (fabs(C[j]) > best) {
            best = fabs(C[j]);
            arg = j;
        }
    return arg;
}

/* ProportionalCash's pick for the uniform draw u, or -1 when the total of
 * |C| is not finite and positive.  As np.cumsum(np.abs(C)) / total and
 * searchsorted(u, side="right"): both sums run in index order, and the
 * first i whose share exceeds u holds cash, since a zero entry repeats
 * the share before it. */
static int64_t proportional_pick(const double *C, int64_t n, double u)
{
    double total = 0.0;
    for (int64_t j = 0; j < n; j++)
        total += fabs(C[j]);
    if (!(total > 0.0 && total <= DBL_MAX))
        return -1;
    double acc = 0.0;
    for (int64_t j = 0; j < n; j++) {
        acc += fabs(C[j]);
        if (acc / total > u)
            return j;
    }
    return n - 1; /* not reached: the last share is 1 > u */
}

/* C[j] += r * s[j] for lo <= j < hi, in index order.  The change in
 * sum |C[j]| is added to *grown, and the largest |C[j]| (the first on
 * ties) replaces *top and *best when larger. */
static void add_restart(double *C, const double *s, double r, int64_t lo, int64_t hi, double *grown, double *top,
                        int64_t *best)
{
    double g = *grown, t = *top;
    int64_t arg = *best;
    for (int64_t j = lo; j < hi; j++) {
        double o = C[j];
        double v = o + r * s[j];
        C[j] = v;
        g += fabs(v) - fabs(o);
        if (fabs(v) > t) {
            t = fabs(v);
            arg = j;
        }
    }
    *grown = g;
    *top = t;
    *best = arg;
}

/* Steps taken (0: the next step needs Python), or -1 when out of memory.
 * uniform holds p->draws uniform draws for KIND_PC, one per pick.
 *
 * restart is NULL for a TransitionMatrix without a restart part.  With one
 * it is the restart distribution s and data holds the damped rows c * P.  A
 * dangling row, one replaced by s, is an empty row (indptr[i] ==
 * indptr[i + 1]); no dangling array is passed.  A push of cash a then
 * repeats scatter_add: a * data[e] along the row, then r * s[j] added to
 * all n entries, r being a * dangling_share for an empty row and
 * a * restart_share otherwise.  That pass sums |new| - |old| for ||C||_1
 * and finds MaxCash's next pick; where r is zero but at dangling rows
 * (the matrix's damped copy), MaxCash keeps its heap and rebuilds it there.
 *
 * scale is NULL but for a GaussSeidelRows view: the push then moves
 * b = a * scale[i] in place of a to every entry but C[i], which stays 0.
 * Writing b's share to C[i] and subtracting it after would cancel
 * |b| - |a| in the sums of ||C||_1; left out, the entries written take
 * |a| in all, as on the other runs. */
int64_t rlgl_push_loop(const int64_t *indptr, const int64_t *indices, const double *data,
                       const double *out_degree, const double *restart, const double *scale, double *C,
                       double *H, const double *uniform, loop_state *s, const loop_params *p)
{
    heap h = {0};
    int64_t done = 0, best = 0;
    /* Theta refreshes at the steps k with k % n == 0, whose candidate is this node */
    const int64_t refresh_at = p->offset % p->n;
    int scan = p->kind == KIND_MAXC && restart && p->restart_share != 0.0;
    int heaped = p->kind == KIND_MAXC && !scan;
    if (scan) {
        best = argmax_abs(C, p->n);
    } else if (heaped && heap_init(&h, C, p->n) != 0) {
        free(h.node);
        free(h.pos);
        return -1;
    }
    for (;;) {
        /* engine.run's checks before a step (the guard waits for a push) */
        if (s->updates > 0 && !(fabs(s->total_history) > p->guard_unit * (double)s->t * p->initial_mass))
            break;
        if (s->cash_l1 - s->l1_err < p->eps || s->t >= p->max_steps)
            break;

        /* the schedule's pick; -1 is a skip step */
        int64_t i;
        if (p->kind == KIND_MAXC) {
            i = scan ? best : h.node[0];
            if (C[i] == 0.0)
                break;
            s->k++;
        } else if (p->kind == KIND_PC) {
            if (done >= p->draws)
                break;
            i = proportional_pick(C, p->n, uniform[done]);
            if (i < 0)
                break;
            s->k++;
        } else {
            i = (s->k + p->offset) % p->n;
            if (p->kind == KIND_THETA && done > 0 && i == refresh_at)
                break;
            s->k++;
            if (p->kind == KIND_THETA) {
                s->scan_cost += 1;
                if (!(fabs(C[i]) >= p->theta && C[i] != 0.0))
                    i = -1;
            }
        }

        /* engine.step's single-node push and engine._account */
        double a = i >= 0 ? C[i] : 0.0;
        int drift = 0;
        if (a != 0.0) {
            H[i] += a;
            s->total_history += a;
            C[i] = 0.0;
            if (heaped)
                reorder(&h, i);
            double b = scale ? a * scale[i] : a;
            /* a GaussSeidelRows push leaves C[i] at 0: the row adds 0 there
             * (a select, as a branch here slowed the pc runs by ~15%) and
             * the restart pass skips it */
            int64_t own = scale ? i : -1;
            int64_t lo = indptr[i], hi = indptr[i + 1];
            double old_abs = 0.0, new_abs = 0.0;
            for (int64_t e = lo; e < hi; e++) {
                int64_t j = indices[e];
                double o = C[j];
                double v = o + (j == own ? 0.0 : b * data[e]);
                C[j] = v;
                old_abs += fabs(o);
                new_abs += fabs(v);
                if (heaped)
                    reorder(&h, j);
            }
            double grown = new_abs - old_abs;
            double r = 0.0;
            if (restart) {
                r = lo == hi ? b * p->dangling_share : b * p->restart_share;
                if (r != 0.0) {
                    double top = -1.0;
                    int64_t mid = own < 0 ? p->n : own;
                    add_restart(C, restart, r, 0, mid, &grown, &top, &best);
                    add_restart(C, restart, r, mid + 1, p->n, &grown, &top, &best);
                    if (heaped) /* every |C[j]| moved: rebuild the heap */
                        for (int64_t q = p->n / 2 - 1; q >= 0; q--)
                            sift_down(&h, q);
                } else if (scan) {
                    best = argmax_abs(C, p->n);
                }
            }
            s->cum_cost += out_degree[i];
            s->updates += 1;

            /* a sequential sum of d terms rounds within d units: the row's
             * d, then, after a pass over all of C, n more */
            int64_t d = hi - lo;
            int64_t depth = r != 0.0 ? p->n + d : (d > p->sum_depth ? d : p->sum_depth);
            double moved_abs = fabs(a);
            double change = grown - moved_abs;
            double old = s->cash_l1;
            double err = s->l1_err;
            if (err == 0.0)
                err = (double)(2 * p->sum_depth) * p->unit * old;
            s->cash_l1 = old + change;
            s->l1_err = err + (double)((depth + 4) * 2) * p->unit * (old + err + moved_abs);
            drift = s->l1_err > p->drift_tol * s->cash_l1;
            if (change > s->max_l1_increase)
                s->max_l1_increase = change;
        }
        s->t++;
        done++;
        if (drift || s->updates >= p->record_at)
            break;
    }
    free(h.node);
    free(h.pos);
    return done;
}

/* Strongly connected components of the CSR graph on n nodes: Tarjan's
 * algorithm (SIAM J. Comput. 1(2), 1972) with explicit n-sized stacks in
 * place of recursion, so any depth costs O(n + m).  Roots are taken in
 * index order and arcs in CSR order, as models._tarjan_scc takes them:
 * labels[v] is the rank of v's component in the order components
 * complete.  Returns the number of components, or -1 when an allocation
 * fails.  A node is on Tarjan's stack while it has an index and no label. */
int64_t rlgl_scc(int64_t n, const int64_t *indptr, const int64_t *indices, int64_t *labels)
{
    if (n <= 0)
        return 0;
    int64_t *work = malloc(5 * (size_t)n * sizeof *work);
    if (!work)
        return -1;
    int64_t *index = work, *low = work + n, *next = work + 2 * n, *stack = work + 3 * n, *calls = work + 4 * n;
    int64_t counter = 0, count = 0, top = 0;
    for (int64_t v = 0; v < n; v++) {
        index[v] = -1;
        labels[v] = -1;
    }
    for (int64_t root = 0; root < n; root++) {
        if (index[root] >= 0)
            continue;
        int64_t depth = 0;
        index[root] = low[root] = counter++;
        next[root] = indptr[root];
        stack[top++] = calls[depth++] = root;
        while (depth > 0) {
            int64_t v = calls[depth - 1];
            if (next[v] < indptr[v + 1]) {
                int64_t w = indices[next[v]++];
                if (index[w] < 0) {
                    index[w] = low[w] = counter++;
                    next[w] = indptr[w];
                    stack[top++] = calls[depth++] = w;
                } else if (labels[w] < 0 && index[w] < low[v]) {
                    low[v] = index[w];
                }
                continue;
            }
            /* every arc of v explored */
            if (--depth > 0 && low[v] < low[calls[depth - 1]])
                low[calls[depth - 1]] = low[v];
            if (low[v] == index[v]) {
                int64_t w;
                do {
                    w = stack[--top];
                    labels[w] = count;
                } while (w != v);
                count++;
            }
        }
    }
    free(work);
    return count;
}

/* y = x P over the CSR rows of n nodes: y zeroed, then y[indices[k]] +=
 * data[k] * x[i] for each row i in order and each entry k of the row.
 * That is the order in which numpy's bincount adds the weights
 * data[k] * x[i] in TransitionMatrix.mul_left's fallback, each rounded
 * as there, so y is byte-equal to it. */
void rlgl_mul_left(int64_t n, const int64_t *indptr, const int64_t *indices, const double *data, const double *x,
                   double *y)
{
    for (int64_t j = 0; j < n; j++)
        y[j] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double xi = x[i];
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
            y[indices[k]] += data[k] * xi;
    }
}
