/* The inner loop of engine.run for single-node schedules on a CSR matrix,
 * one per Schedule.push_loop name (rlgl_loop_rr, rlgl_loop_theta,
 * rlgl_loop_maxc, rlgl_loop_pc), the strongly-connected-components pass
 * models runs on a graph's CSR rows (rlgl_scc), the CSR product x P
 * (rlgl_mul_left), then the edge-list parser of models.parse_edge_file
 * (rlgl_parse_edges), the edge coalescing of every matrix build, which
 * also writes its CSR rows (rlgl_coalesce), the backward induction over
 * the grid rows of mdp.solve_policy (rlgl_policy_rows), and at the end
 * the %.17g formatter of engine.write_csv's numeric tables
 * (rlgl_format_rows).
 *
 * Built and loaded by pushloop.py.  Each loop makes its schedule's pick
 * and shares the rest: the checks before a step (may_step) and the push
 * with its ||C||_1 accounting (step).  Each step repeats, operation for
 * operation, what engine.run's Python loop does with RoundRobin, Theta,
 * MaxCash or ProportionalCash and engine.step on a TransitionMatrix, with
 * or without a restart part, or on its GaussSeidelRows view, so H, C and
 * every counter come out with the same bytes.  Only ||C||_1 is kept
 * otherwise: engine.step takes the exact sum after every push, and the
 * loop keeps the one incremental sum, with a rounding bound, in O(degree).
 * A push with a restart part adds r * s[j] to every C[j] in index order,
 * so C keeps its bytes, and sums |new| - |old| in two lanes (see lanes):
 * only the incremental ||C||_1 between exact sums rounds otherwise than
 * one chain, within the same bound, and every stop, trace row and pick is
 * decided on exact sums or on proved brackets, so nothing else moves.
 * MaxCash's pick is the root of a shallow tournament over |C|, eight
 * players a match, whose matches store their winner's |C|: a write to C
 * takes one compare with its match in most cases (see tree); on a matrix
 * whose every push adds the restart part, that add's own pass finds the
 * pick instead, each lane keeping its first largest |C[j]|.
 * The dangling rows of a matrix with a restart part are its empty CSR
 * rows, so the loops take no dangling array.
 * ProportionalCash's pick draws its uniform from the schedule's own
 * generator, keeps the prefix sums of |C| across picks and extends them
 * only from the lowest index the last push wrote to the pick; it
 * brackets the total from the loop's ||C||_1 bound and proves the pick
 * from the bracket, or else makes the exact pick (see
 * proportional_pick), so every pick is the Python one.
 * Compile with -ffp-contract=off: a fused multiply-add would round C
 * differently.
 *
 * A loop returns to Python before any step that needs it (the guard
 * fires, the cash may be below eps, max_steps, a Theta refresh, no cash
 * left for MaxCash, a ProportionalCash total that is not finite and
 * positive) and after any step that makes a trace row due or lets the
 * rounding bound of the incremental ||C||_1 pass its drift limit.
 */

#include <float.h>
#include <locale.h>
#include <math.h>
#include <stdio.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* A matrix's single-node push arrays; fields in pushloop.Rows' order.
 *
 * restart is NULL for a TransitionMatrix without a restart part.  With one
 * it is the restart distribution s and data holds the damped rows c * P.  A
 * dangling row, one replaced by s, is an empty row (indptr[i] ==
 * indptr[i + 1]).  A push of cash a then repeats scatter_add: a * data[e]
 * along the row, then r * s[j] added to all n entries, r being
 * a * dangling_share for an empty row and a * restart_share otherwise.
 *
 * scale is NULL but for a GaussSeidelRows view: the push then moves
 * b = a * scale[i] in place of a to every entry but C[i], which stays 0.
 * Writing b's share to C[i] and subtracting it after would cancel
 * |b| - |a| in the sums of ||C||_1; left out, the entries written take
 * |a| in all, as on the other runs. */
typedef struct {
    const int64_t *indptr, *indices;
    const double *data, *out_degree, *restart, *scale;
} csr_rows;

/* Run state shared with Python; fields in pushloop.LoopState's order. */
typedef struct {
    int64_t t, updates, k;
    double cum_cost, scan_cost, total_history, cash_l1, l1_err, max_l1_increase;
} loop_state;

/* Per-call constants; fields in pushloop.LoopParams' order.  rng is
 * ProportionalCash's bit generator, next_double what Generator.random() calls. */
typedef struct {
    int64_t n, offset, max_steps, record_at, sum_depth;
    double theta, eps, initial_mass, guard_unit, drift_tol, unit, restart_share, dangling_share;
    void *rng;
    double (*next_double)(void *);
} loop_params;

/* MaxCash's pick: a tournament over |C| with FAN players per match (a
 * winner tree, Knuth, TAOCP vol. 3, 5.4.1, of fan-out FAN).  Level 0 is C
 * itself; match q of level L + 1 plays level L's entries FAN q .. FAN q +
 * FAN - 1 and stores its winner's |C| next to its index, the larger |C|
 * winning and the lower index on ties.  The players of a match cover runs
 * of indices in order, so its winner is its first largest player, and the
 * one match of the top level holds the first index of the largest |C[j]|,
 * the node np.argmax(np.abs(C)) picks.  Only level 1 reads C; each level
 * above reads the vals stored below it.  The levels are padded to whole
 * matches with val -1, which loses to every |C|.  A write to C costs one
 * compare in most cases (tree_update), where a binary tree replays a
 * match per level, each a dependent load through an index. */
#define FAN 8
#define MAX_LEVELS 21 /* FAN^21 = 2^63: no int64 n needs more levels above C */

typedef struct {
    double val;
    int64_t idx;
} entry;

typedef struct {
    const double *C;
    int64_t n;
    int top;                      /* level[top] holds the root alone */
    int64_t size[MAX_LEVELS + 1]; /* matches of level L, padding left out */
    entry *level[MAX_LEVELS + 1]; /* level[L] for 1 <= L <= top */
} tree;

/* The first k of the largest v[k] among FAN: the max, taken pairwise (3
 * dependent maxes for FAN = 8, where a chain takes 7), then the lowest bit
 * of the mask of players equal to it; 0 when none is (a NaN).  The loops
 * here and in replay are unrolled, which -O2 alone does not do. */
static inline int first_largest(const double *v)
{
    double m[FAN];
#pragma GCC unroll 8
    for (int k = 0; k < FAN; k++)
        m[k] = v[k];
#pragma GCC unroll 4
    for (int w = FAN / 2; w > 0; w /= 2)
#pragma GCC unroll 8
        for (int k = 0; k < w; k++)
            m[k] = m[k + w] > m[k] ? m[k + w] : m[k];
    unsigned ties = 0;
#pragma GCC unroll 8
    for (int k = 0; k < FAN; k++)
        ties |= (unsigned)(v[k] == m[0]) << k;
    return ties ? __builtin_ctz(ties) : 0;
}

/* Replay match q of level L from its players. */
static void replay(tree *t, int L, int64_t q)
{
    double v[FAN];
    const int64_t lo = q * FAN;
    if (L == 1) {
#pragma GCC unroll 8
        for (int k = 0; k < FAN; k++)
            v[k] = lo + k < t->n ? fabs(t->C[lo + k]) : -1.0;
        int at = first_largest(v);
        t->level[1][q] = (entry){v[at], lo + at};
        return;
    }
    const entry *e = t->level[L - 1] + lo;
#pragma GCC unroll 8
    for (int k = 0; k < FAN; k++)
        v[k] = e[k].val;
    t->level[L][q] = e[first_largest(v)];
}

/* Replay every match, bottom up. */
static void rebuild(tree *t)
{
    for (int L = 1; L <= t->top; L++)
        for (int64_t q = 0; q < t->size[L]; q++)
            replay(t, L, q);
}

static int tree_init(tree *t, const double *C, int64_t n)
{
    int64_t total = 0, m = n;
    t->C = C;
    t->n = n;
    t->top = 0;
    do {
        m = (m + FAN - 1) / FAN;
        t->size[++t->top] = m;
        total += (m + FAN - 1) / FAN * FAN;
    } while (m > 1);
    entry *buf = malloc((size_t)total * sizeof *buf);
    if (!buf)
        return -1;
    for (int L = 1; L <= t->top; L++) {
        t->level[L] = buf;
        buf += (t->size[L] + FAN - 1) / FAN * FAN;
        for (entry *pad = t->level[L] + t->size[L]; pad < buf; pad++)
            *pad = (entry){-1.0, 0};
    }
    rebuild(t);
    return 0;
}

/* Whether v, at |C| x, beats e's winner: a larger |C|, or an equal one
 * and a lower index. */
static inline int beats(double x, int64_t v, const entry *e)
{
    return x > e->val || (x == e->val && v < e->idx);
}

/* tree_update past its filter, x being v's new |C|.  When x rose (or v
 * won and x is unchanged), v climbs, up to the first match whose winner it
 * does not beat or whose stored val, its own, is unchanged.  When v won
 * and x fell, that match is replayed, and so is each one above it that v
 * also won; a match v did not win keeps its winner, whose |C| is still
 * the largest below it. */
__attribute__((noinline)) static void climb(tree *t, int64_t v, double x)
{
    uint64_t q = (uint64_t)v / FAN;
    if (t->level[1][q].idx == v && !(x >= t->level[1][q].val)) {
        for (int L = 1; L <= t->top && t->level[L][q].idx == v; L++, q /= FAN)
            replay(t, L, (int64_t)q);
        return;
    }
    for (int L = 1; L <= t->top; L++, q /= FAN) {
        entry *e = t->level[L] + q;
        if (e->idx == v ? x == e->val : !beats(x, v, e))
            return;
        *e = (entry){x, v};
    }
}

/* Bring v's matches up to date after a write to C[v], the tree holding C's
 * other entries.  One compare with v's level-1 match settles most writes:
 * when v neither won it nor beats its winner, nothing moves.  Kept out of
 * line, as climb is: a call inlined here took more time per write. */
__attribute__((noinline)) static void tree_update(tree *t, int64_t v)
{
    const double x = fabs(t->C[v]);
    const entry *e = t->level[1] + (uint64_t)v / FAN;
    if (e->idx == v || beats(x, v, e))
        climb(t, v, x);
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

/* ProportionalCash's pick: the first i whose share fl(acc[i] / total)
 * exceeds a uniform draw u, acc being the sequential prefix sums of |C|
 * and total = acc[n - 1], as np.cumsum(np.abs(C)) / total and
 * searchsorted(u, side="right") pick it.  The pick holds cash, since a
 * zero entry repeats the share before it.
 *
 * The loop keeps acc across picks.  A push changes no entry below the
 * lowest index it writes, so the sums below it are the same adds in the
 * same order and keep their bytes; *valid, the end of the cached prefix,
 * is lowered to that index after each push (rlgl_loop_pc).  A pick then
 * sums only from *valid on, and only as far as it needs, with no
 * division per entry:
 *
 * Bracket.  The loop's cash_l1 is within l1_err of numpy's pairwise sum
 * of |C|, which is within sum_depth units (unit = 2^-52, twice the unit
 * roundoff) of the exact sum S; the sequential total is within n - 1
 * half-units of S.  So, with K = (n + sum_depth) units and K <= 1/4,
 *     total >= (cash_l1 - l1_err) (1 - K)   and
 *     total <= (cash_l1 + l1_err) (1 + 2 K),
 * and lo and hi below are these bounds with 4 more units in K, which
 * cover the three roundings of each.
 *
 * Candidate.  x, the float below fl(u * lo), is <= u * lo exactly, and j
 * is the first index with acc[j] > x, so every i < j has
 * acc[i] / total <= x / lo <= u: no earlier share exceeds u.
 *
 * Proof.  acc[j] / hi > u gives acc[j] / total > u, as total <= hi and
 * rounding keeps the order: j is the pick.  When that fails (u within
 * ~l1_err / cash_l1 of a share; a draw that lands on a share exactly),
 * or the bracket is empty (lo <= 0, hi not finite), the pick is made
 * exactly: the sums are finished to n and the first share above u is
 * found by bisection, the share being monotone in i.
 *
 * u is drawn once the total is known finite and positive, as in next_nodes:
 * the prefix first reaches the first cash, so a zero or NaN total takes
 * the exact path, which draws after its check.  Returns the pick, or -1
 * when the total of |C| is not finite and positive. */

/* Extend acc past *valid until its last sum exceeds x, or to n. */
static void extend_prefix(const double *C, int64_t n, double *acc, int64_t *valid, double x)
{
    int64_t j = *valid;
    double sum = j > 0 ? acc[j - 1] : 0.0;
    while (j < n && !(sum > x)) {
        sum += fabs(C[j]);
        acc[j++] = sum;
    }
    *valid = j;
}

/* The first j < len with acc[j] / d > v, or len; acc rises. */
static int64_t first_share_above(const double *acc, int64_t len, double d, double v)
{
    int64_t a = 0, b = len;
    while (a < b) {
        int64_t mid = a + (b - a) / 2;
        if (acc[mid] / d > v)
            b = mid;
        else
            a = mid + 1;
    }
    return a;
}

static int64_t proportional_pick(const double *C, const loop_state *s, const loop_params *p, double *acc,
                                 int64_t *valid)
{
    const int64_t n = p->n;
    const double k = (double)(n + p->sum_depth + 4) * p->unit;
    const double lo = (s->cash_l1 - s->l1_err) * (1.0 - k);
    const double hi = (s->cash_l1 + s->l1_err) * (1.0 + 2.0 * k);
    double u = -1.0; /* not drawn */
    extend_prefix(C, n, acc, valid, 0.0);
    if (lo > 0.0 && hi <= DBL_MAX && acc[*valid - 1] > 0.0) {
        u = p->next_double(p->rng);
        double x = nextafter(u * lo, 0.0);
        extend_prefix(C, n, acc, valid, x);
        int64_t j = first_share_above(acc, *valid, 1.0, x);
        if (j < *valid && acc[j] / hi > u)
            return j;
    }
    extend_prefix(C, n, acc, valid, INFINITY);
    double total = acc[n - 1];
    if (!(total > 0.0 && total <= DBL_MAX))
        return -1;
    if (u < 0.0)
        u = p->next_double(p->rng);
    return first_share_above(acc, n, total, u); /* < n: the last share is 1 > u */
}

/* Two doubles side by side (GCC's vector extension: each operation rounds
 * per element, as the scalar one), and the lane mask of a comparison. */
typedef double pair __attribute__((vector_size(16)));
typedef int64_t pair_mask __attribute__((vector_size(16)));

/* The restart pass's running sums: the change in sum |C[j]| and, for
 * MaxCash's scan, the largest |C[j]| and its index, each kept in two
 * lanes, lane j % 2 taking entry j.  A pair of entries takes one vector
 * multiply, add and sum, half the instructions of two scalar entries, and
 * neither lane's sum waits on the other's: one chain of n adds held the
 * pass to one entry per add, two lanes of pairs run it at the rate the
 * instructions issue. */
typedef struct {
    pair grown, top;
    pair_mask arg;
} lanes;

/* Entry j of the pass into lane k = j % 2: C[j] += r * s[j], its
 * |new| - |old| added to grown[k] and, with scan, |C[j]| replacing top[k]
 * when larger, so each lane keeps the first index of its largest. */
__attribute__((always_inline)) static inline void add_entry(double *C, const double *s, double r, int64_t j,
                                                           lanes *l, int k, int scan)
{
    double o = C[j];
    double v = o + r * s[j];
    C[j] = v;
    l->grown[k] += fabs(v) - fabs(o);
    if (scan && fabs(v) > l->top[k]) {
        l->top[k] = fabs(v);
        l->arg[k] = j;
    }
}

/* add_entry for j and j + 1, j even, as one pair: the scan's compare is
 * a branch taken only when a lane's top rises, which past the first
 * entries is rare, where a select would chain each pair to the last. */
__attribute__((always_inline)) static inline void add_pair(double *C, const double *s, pair r, int64_t j, lanes *l,
                                                          int scan)
{
    const pair_mask sign = {INT64_MIN, INT64_MIN};
    pair o, x;
    memcpy(&o, C + j, sizeof o);
    memcpy(&x, s + j, sizeof x);
    pair v = o + r * x;
    memcpy(C + j, &v, sizeof v);
    pair av = (pair)((pair_mask)v & ~sign);
    l->grown += av - (pair)((pair_mask)o & ~sign);
    if (scan) {
        pair_mask up = av > l->top;
        if (up[0] | up[1]) {
            for (int k = 0; k < 2; k++)
                if (up[k]) {
                    l->top[k] = av[k];
                    l->arg[k] = j + k;
                }
        }
    }
}

/* C[j] += r * s[j] for lo <= j < hi, into the lanes in index order: an
 * odd first entry alone, then pairs, then an even last entry alone. */
__attribute__((always_inline)) static inline void add_restart(double *C, const double *s, double r, int64_t lo,
                                                             int64_t hi, lanes *l, int scan)
{
    const pair rv = {r, r};
    int64_t j = lo;
    if (j < hi && j % 2)
        add_entry(C, s, r, j++, l, 1, scan);
    for (; j + 1 < hi; j += 2)
        add_pair(C, s, rv, j, l, scan);
    if (j < hi)
        add_entry(C, s, r, j, l, 0, scan);
}

/* engine.run's checks before a step: 0 when Python must make them (the
 * guard waits for a push). */
static inline int may_step(const loop_state *s, const loop_params *p)
{
    if (s->updates > 0 && !(fabs(s->total_history) > p->guard_unit * (double)s->t * p->initial_mass))
        return 0;
    return !(s->cash_l1 - s->l1_err < p->eps || s->t >= p->max_steps);
}

/* The row part of a push: C[j] += b * data[e] for the entries lo..hi - 1
 * of a row, 0 added at own; returns the row's sum |new| - |old|.  Each
 * write updates w, MaxCash's tree, unless w is NULL. */
__attribute__((always_inline)) static inline double push_row(const csr_rows *m, double *C, int64_t lo, int64_t hi,
                                                            double b, int64_t own, tree *w)
{
    double old_abs = 0.0, new_abs = 0.0;
    for (int64_t e = lo; e < hi; e++) {
        int64_t j = m->indices[e];
        double o = C[j];
        double v = o + (j == own ? 0.0 : b * m->data[e]);
        C[j] = v;
        old_abs += fabs(o);
        new_abs += fabs(v);
        if (w)
            tree_update(w, j);
    }
    return new_abs - old_abs;
}

/* One step: engine.step's push of node i (none when i < 0, a skip step,
 * or C[i] is 0), with ||C||_1 moved by the change the push sums and its
 * rounding bound grown to cover it; nonzero when the loop must return
 * after it (a trace row is due, or the ||C||_1 bound passed its drift
 * limit).  w is MaxCash's tree, updated at every entry written (rebuilt
 * after a row that writes half of C or more), or NULL; best, or NULL,
 * takes MaxCash's next pick from the pass that adds the restart part and
 * sums |new| - |old| for ||C||_1.  Where that add is zero but at dangling
 * rows (the matrix's damped copy), the tree is kept and rebuilt there.
 * Inlined into each loop, whose copy then drops what its kind does not
 * use. */
__attribute__((always_inline)) static inline int step(const csr_rows *m, double *C, double *H, int64_t i,
                                                      loop_state *s, const loop_params *p, tree *w, int64_t *best)
{
    double a = i >= 0 ? C[i] : 0.0;
    int drift = 0;
    if (a != 0.0) {
        H[i] += a;
        s->total_history += a;
        C[i] = 0.0;
        if (w)
            tree_update(w, i);
        double b = m->scale ? a * m->scale[i] : a;
        /* a GaussSeidelRows push leaves C[i] at 0: the row adds 0 there
         * (a select, as a branch here slowed the pc runs by ~15%) and
         * the restart pass skips it */
        int64_t own = m->scale ? i : -1;
        int64_t lo = m->indptr[i], hi = m->indptr[i + 1];
        double grown;
        if (w && 2 * (hi - lo) >= p->n) {
            /* one rebuild, ~n / (FAN - 1) matches, in place of an update
             * per entry: meanfield-3block's rows write all of C, and its
             * rlgl+maxc took 0.72 ms this way against 1.75 ms with updates
             * (the binary tree: 1.70), median of 21 runs interleaved in
             * one process; its perfbench rlgl_solve_s read 19% lower in 10
             * of 10 pairs (BENCH_38.json dense_rows).  No workload has a
             * row between ~10 entries and all of C, so the half is not
             * tuned. */
            grown = push_row(m, C, lo, hi, b, own, NULL);
            rebuild(w);
        } else {
            grown = push_row(m, C, lo, hi, b, own, w);
        }
        double r = 0.0;
        if (m->restart) {
            r = lo == hi ? b * p->dangling_share : b * p->restart_share;
            if (r != 0.0) {
                /* lane 0 starts from the row's change; the lanes are added once */
                lanes l = {{grown, 0.0}, {-1.0, -1.0}, {0, 0}};
                int64_t mid = own < 0 ? p->n : own;
                add_restart(C, m->restart, r, 0, mid, &l, best != NULL);
                add_restart(C, m->restart, r, mid + 1, p->n, &l, best != NULL);
                grown = l.grown[0] + l.grown[1];
                if (best) /* the larger top, the lower index on ties: np.argmax(np.abs(C)) */
                    *best = l.top[1] > l.top[0] || (l.top[1] == l.top[0] && l.arg[1] < l.arg[0])
                                ? l.arg[1]
                                : l.arg[0];
                if (w) /* every |C[j]| moved */
                    rebuild(w);
            } else if (best) {
                *best = argmax_abs(C, p->n);
            }
        }
        s->cum_cost += m->out_degree[i];
        s->updates += 1;

        /* a sequential sum of d terms rounds within d units: the row's
         * d and its difference, then, after a pass over all of C, at most
         * ceil(n / 2) adds in a lane and the one that adds the lanes (exact
         * when n = 1, lane 1 holding 0), which n more cover: ceil(n / 2)
         * + 1 <= n for n >= 2, as for one chain of n adds */
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
    return drift || s->updates >= p->record_at;
}

/* The loops: steps taken (0: the next step needs Python), or -1 when out
 * of memory. */

int64_t rlgl_loop_rr(const csr_rows *m, double *C, double *H, loop_state *s, const loop_params *p)
{
    const int64_t t0 = s->t;
    while (may_step(s, p))
        if (step(m, C, H, (s->k++ + p->offset) % p->n, s, p, NULL, NULL))
            break;
    return s->t - t0;
}

int64_t rlgl_loop_theta(const csr_rows *m, double *C, double *H, loop_state *s, const loop_params *p)
{
    const int64_t t0 = s->t;
    /* Theta refreshes at the steps k with k % n == 0, whose candidate is this node */
    const int64_t refresh_at = p->offset % p->n;
    while (may_step(s, p)) {
        int64_t i = (s->k + p->offset) % p->n;
        if (s->t > t0 && i == refresh_at)
            break;
        s->k++;
        s->scan_cost += 1;
        if (!(fabs(C[i]) >= p->theta && C[i] != 0.0))
            i = -1;
        if (step(m, C, H, i, s, p, NULL, NULL))
            break;
    }
    return s->t - t0;
}

/* MaxCash's two loops, each in its own function.  The scan loop starts on
 * a cache line: where it fell after the tournament's code, sbm500 PageRank
 * rlgl+maxc took 7.19 ms against the parent's 6.62 and 6.71 aligned
 * (median of 31 runs interleaved in one process, BENCH_38.json
 * scan_alignment). */
__attribute__((noinline, aligned(64))) static int64_t maxc_scan(const csr_rows *m, double *C, double *H,
                                                               loop_state *s, const loop_params *p)
{
    const int64_t t0 = s->t;
    int64_t best = argmax_abs(C, p->n);
    while (may_step(s, p) && C[best] != 0.0) {
        s->k++;
        if (step(m, C, H, best, s, p, NULL, &best))
            break;
    }
    return s->t - t0;
}

__attribute__((noinline)) static int64_t maxc_tree(const csr_rows *m, double *C, double *H, loop_state *s,
                                                  const loop_params *p)
{
    const int64_t t0 = s->t;
    tree w;
    if (tree_init(&w, C, p->n) != 0)
        return -1;
    while (may_step(s, p) && C[w.level[w.top][0].idx] != 0.0) {
        s->k++;
        if (step(m, C, H, w.level[w.top][0].idx, s, p, &w, NULL))
            break;
    }
    free(w.level[1]);
    return s->t - t0;
}

int64_t rlgl_loop_maxc(const csr_rows *m, double *C, double *H, loop_state *s, const loop_params *p)
{
    /* a restart add moves every entry: a scan in that pass beats the tree */
    if (m->restart && p->restart_share != 0.0)
        return maxc_scan(m, C, H, s, p);
    return maxc_tree(m, C, H, s, p);
}

int64_t rlgl_loop_pc(const csr_rows *m, double *C, double *H, loop_state *s, const loop_params *p)
{
    const int64_t t0 = s->t;
    double *acc = malloc((size_t)p->n * sizeof *acc);
    if (!acc)
        return -1;
    int64_t valid = 0; /* acc[j] holds for j < valid */
    while (may_step(s, p)) {
        int64_t i = proportional_pick(C, s, p, acc, &valid);
        if (i < 0)
            break;
        s->k++;
        int stop = step(m, C, H, i, s, p, NULL, NULL);
        /* the lowest index the push wrote: i, or its row's first column
         * (a TransitionMatrix lists them rising), or 0 after a restart add */
        int64_t lo = m->indptr[i], hi = m->indptr[i + 1];
        if (m->restart && (lo == hi ? p->dangling_share : p->restart_share) != 0.0)
            valid = 0;
        else if (lo < hi && m->indices[lo] < i)
            valid = valid < m->indices[lo] ? valid : m->indices[lo];
        else
            valid = valid < i ? valid : i;
        if (stop)
            break;
    }
    free(acc);
    return s->t - t0;
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

/* The edge rows of an edge-list file's bytes, or a decline.
 *
 * One pass over the size bytes at data, with data[size] == '\0' (the
 * buffer of a Python bytes object always ends so), which stops strtod
 * on a weight that ends the data.  A line ends in LF (the last may
 * end the data instead) and is blank, a comment (its first byte other
 * than space or tab is '#') or a data line of 2 or 3 tokens separated by
 * spaces and tabs.  The two ids are [+-]?[0-9]+ within int64, shifted
 * down by one when one_based; the weight, default 1, is
 * [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?, converted by strtod, which rounds
 * correctly as Python's float does.  Data line i fills edges[3i..3i+2]
 * with (double)src, (double)dst and the weight, as numpy casts, and *top
 * is set to the largest id written, cast as they are (the cast keeps the
 * order, so it is the largest of the written ids).
 *
 * Returns the number of data lines, or 0 to decline, leaving the file to
 * models' other parsers: on any byte other than printable ASCII, tab and
 * LF (a CR included), any token outside the grammar (nan, inf, 1_0, 0x10,
 * a '#' after data), an id outside int64 or a one-based shift that would
 * wrap, a weight when the locale's decimal point is not ".", more data
 * lines than rows, or no data line at all. */

static int blank(char c)
{
    return c == ' ' || c == '\t';
}

/* An id token at *at, stored in *id and *at moved past it; 0 if none fits. */
static int parse_id(const char **at, const char *end, int64_t *id)
{
    const char *p = *at;
    int neg = p < end && *p == '-';
    if (p < end && (*p == '-' || *p == '+'))
        p++;
    const char *digits = p;
    while (p < end && *p == '0')
        p++;
    const char *first = p; /* 19 digits past the leading zeros fit uint64 */
    uint64_t v = 0;
    for (; p < end && *p >= '0' && *p <= '9'; p++)
        v = 10 * v + (uint64_t)(*p - '0');
    if (p == digits || p - first > 19 || v > (uint64_t)INT64_MAX + neg || (p < end && !blank(*p) && *p != '\n'))
        return 0;
    *id = neg ? (int64_t)(0 - v) : (int64_t)v; /* 0 - 2^63 wraps to INT64_MIN */
    *at = p;
    return 1;
}

static const char *skip_digits(const char *p, const char *end)
{
    while (p < end && *p >= '0' && *p <= '9')
        p++;
    return p;
}

/* A weight token at *at, stored in *w and *at moved past it; 0 if none fits. */
static int parse_weight(const char **at, const char *end, double *w)
{
    const char *start = *at, *p = start;
    if (p < end && (*p == '-' || *p == '+'))
        p++;
    const char *whole = p;
    p = skip_digits(p, end);
    size_t digits = (size_t)(p - whole);
    if (p < end && *p == '.') {
        const char *frac = ++p;
        p = skip_digits(p, end);
        digits += (size_t)(p - frac);
    }
    if (digits == 0)
        return 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        if (p < end && (*p == '-' || *p == '+'))
            p++;
        const char *exponent = p;
        p = skip_digits(p, end);
        if (p == exponent)
            return 0;
    }
    if (p < end && !blank(*p) && *p != '\n')
        return 0;
    /* the byte after the token, a blank, an LF or the NUL at end, stops strtod */
    *w = strtod(start, NULL);
    *at = p;
    return 1;
}

int64_t rlgl_parse_edges(const char *data, int64_t size, int64_t one_based, double *edges, int64_t rows,
                         double *top)
{
    const char *p = data, *end = data + size;
    const char *point = localeconv()->decimal_point;
    int dot = point[0] == '.' && point[1] == '\0';
    int64_t m = 0, largest = INT64_MIN;
    while (p < end) {
        while (p < end && blank(*p))
            p++;
        if (p == end)
            break;
        if (*p == '\n') {
            p++;
            continue;
        }
        if (*p == '#') {
            for (; p < end && *p != '\n'; p++)
                if (*p != '\t' && (*(const unsigned char *)p < 0x20 || *(const unsigned char *)p > 0x7e))
                    return 0;
            continue;
        }
        int64_t ids[2];
        for (int k = 0; k < 2; k++) {
            if (k == 1) {
                if (p == end || !blank(*p))
                    return 0;
                while (p < end && blank(*p))
                    p++;
            }
            if (!parse_id(&p, end, &ids[k]))
                return 0;
            if (one_based) {
                if (ids[k] == INT64_MIN)
                    return 0;
                ids[k]--;
            }
        }
        while (p < end && blank(*p))
            p++;
        double w = 1.0;
        if (p < end && *p != '\n') {
            if (!dot || !parse_weight(&p, end, &w))
                return 0;
            while (p < end && blank(*p))
                p++;
            if (p < end && *p != '\n')
                return 0;
        }
        if (m == rows)
            return 0;
        edges[3 * m] = (double)ids[0];
        edges[3 * m + 1] = (double)ids[1];
        edges[3 * m + 2] = w;
        m++;
        for (int k = 0; k < 2; k++)
            if (ids[k] > largest)
                largest = ids[k];
        if (p < end)
            p++; /* past the LF */
    }
    *top = (double)largest;
    return m;
}

/* The coalesced edges of an edge list: the numpy pass of
 * matrix._coalesce_edges in O(m + n), with its bytes.
 *
 * edges holds m rows of cols doubles (2 or 3): source, target and, with 3
 * columns, the weight (1 otherwise).  An id x is valid when -1 < x < n,
 * the ids whose truncating cast to int64 numpy's [0, n) check passes; a
 * weight is valid when finite and >= 0.  Edges of weight 0 are dropped.
 * The others are counted by source and scattered in input order into one
 * bucket per source; each bucket is sorted by target, stably, and each
 * run of one target merges into its first edge, the later weights added
 * to it in input order.  That is the order of np.argsort(src * n + dst,
 * kind="stable"), and the order in which np.bincount sums each run, so
 * the first k entries of the m-sized outputs src, dst and w come out with
 * the numpy pass's values.  The pass also writes the CSR rows of those k
 * edges as matrix._csr_rows makes them: indptr (n + 1 entries) and, in
 * the first k entries of data, each edge's w over its row's sum, the sum
 * added in edge order as np.bincount(src, weights=w) adds it.
 *
 * Returns k, or COALESCE_BAD_WEIGHT when any weight is invalid (numpy
 * checks the weights before the ids), COALESCE_BAD_ID when an id is,
 * COALESCE_BAD_SUM, with the row in src[0], at the first row whose weights
 * sum past DBL_MAX, and COALESCE_DECLINE, before reading any edge, when
 * n < 1 or n > m (the n + 1 counts would outgrow the edges), or when an
 * allocation fails; the numpy pass then runs.  Scratch memory is O(m + n)
 * and freed. */

enum { COALESCE_DECLINE = -1, COALESCE_BAD_WEIGHT = -2, COALESCE_BAD_ID = -3, COALESCE_BAD_SUM = -4 };

/* A row is sorted in runs of this many entries, each run by ranking
 * (O(run^2) comparisons, without branches), then the runs are merged, so
 * a hub row of d entries takes O(d log d). */
#define RUN 16

/* Merge each pair of adjacent sorted runs of width entries of (dst, w)
 * into (to_dst, to_w); on equal targets the left run goes first. */
static void merge_runs(const int64_t *dst, const double *w, int64_t *to_dst, double *to_w, int64_t len,
                       int64_t width)
{
    for (int64_t lo = 0; lo < len; lo += 2 * width) {
        int64_t mid = len - lo > width ? lo + width : len;
        int64_t hi = len - mid > width ? mid + width : len;
        int64_t a = lo, b = mid, o = lo;
        while (a < mid || b < hi) {
            int64_t from = b == hi || (a < mid && dst[a] <= dst[b]) ? a++ : b++;
            to_dst[o] = dst[from];
            to_w[o++] = w[from];
        }
    }
}

/* A row's len entries (dst, w) sorted by target, stably, into (to_dst,
 * to_w); the row's own entries are scratch after.  In each run, entry j
 * goes after the smaller entries and the equal ones before it. */
static void sort_row(int64_t *dst, double *w, int64_t len, int64_t *to_dst, double *to_w)
{
    for (int64_t lo = 0; lo < len; lo += RUN) {
        int64_t hi = len - lo > RUN ? lo + RUN : len;
        for (int64_t j = lo; j < hi; j++) {
            int64_t t = dst[j], rank = lo;
            for (int64_t i = lo; i < j; i++)
                rank += dst[i] <= t;
            for (int64_t i = j + 1; i < hi; i++)
                rank += dst[i] < t;
            to_dst[rank] = t;
            to_w[rank] = w[j];
        }
    }
    int in_row = 0;
    for (int64_t width = RUN; width < len; width *= 2, in_row = !in_row) {
        if (in_row)
            merge_runs(dst, w, to_dst, to_w, len, width);
        else
            merge_runs(to_dst, to_w, dst, w, len, width);
    }
    if (in_row) {
        memcpy(to_dst, dst, (size_t)len * sizeof *dst);
        memcpy(to_w, w, (size_t)len * sizeof *w);
    }
}

int64_t rlgl_coalesce(int64_t n, int64_t m, int64_t cols, const double *edges, int64_t *src, int64_t *dst,
                      double *w, int64_t *indptr, double *data)
{
    if (n < 1 || n > m)
        return COALESCE_DECLINE;
    /* next[i + 1] counts row i's edges, then next[i] is where its next edge goes */
    int64_t *next = calloc((size_t)n + 1, sizeof *next);
    if (!next)
        return COALESCE_DECLINE;
    double limit = (double)n; /* exact: n <= m */
    int bad_id = 0;
    for (int64_t e = 0; e < m; e++) {
        const double *row = edges + cols * e;
        double x = cols == 3 ? row[2] : 1.0;
        if (!(x >= 0.0 && x <= DBL_MAX)) {
            free(next);
            return COALESCE_BAD_WEIGHT;
        }
        if (!(row[0] > -1.0 && row[0] < limit && row[1] > -1.0 && row[1] < limit))
            bad_id = 1;
        else if (x > 0.0)
            next[(int64_t)row[0] + 1]++;
    }
    if (bad_id) {
        free(next);
        return COALESCE_BAD_ID;
    }
    int64_t longest = 0;
    for (int64_t i = 0; i < n; i++) {
        if (next[i + 1] > longest)
            longest = next[i + 1];
        next[i + 1] += next[i];
    }
    for (int64_t e = 0; e < m; e++) {
        const double *row = edges + cols * e;
        double x = cols == 3 ? row[2] : 1.0;
        if (x > 0.0) {
            int64_t at = next[(int64_t)row[0]]++;
            dst[at] = (int64_t)row[1];
            w[at] = x;
        }
    }
    /* now row i is [next[i - 1], next[i]), with next[-1] = 0 */
    int64_t *row_dst = malloc((size_t)(longest + 1) * sizeof *row_dst);
    double *row_w = malloc((size_t)(longest + 1) * sizeof *row_w);
    if (!row_dst || !row_w) {
        free(row_dst);
        free(row_w);
        free(next);
        return COALESCE_DECLINE;
    }
    int64_t k = 0; /* edges written; k <= lo, so no write reaches a row not yet sorted */
    indptr[0] = 0;
    for (int64_t i = 0, lo = 0; i < n; lo = next[i++]) {
        int64_t len = next[i] - lo;
        sort_row(dst + lo, w + lo, len, row_dst, row_w);
        for (int64_t e = 0; e < len; e++) {
            if (e > 0 && row_dst[e] == row_dst[e - 1]) {
                w[k - 1] += row_w[e];
                continue;
            }
            src[k] = i;
            dst[k] = row_dst[e];
            w[k++] = row_w[e];
        }
        indptr[i + 1] = k;
        double sum = 0.0;
        for (int64_t e = indptr[i]; e < k; e++)
            sum += w[e];
        if (!(sum <= DBL_MAX)) {
            src[0] = i;
            k = COALESCE_BAD_SUM;
            break;
        }
        for (int64_t e = indptr[i]; e < k; e++)
            data[e] = w[e] / sum;
    }
    free(row_dst);
    free(row_w);
    free(next);
    return k;
}

/* Backward induction over the mean-field policy grid (mdp.solve_policy):
 * rows 1..n_z1-1 of V and A (n_z1 x n_z2, row-major) filled in place,
 * row 0 as the caller left it.  The row-independent terms are per
 * (action, z2 cell), n_act x n_z2 row-major with the actions in order:
 * shift, the z1 decrement (NaN when the action does not contract, -inf
 * when it annihilates), usable and moves (0/1 bytes), j0 and wj, the
 * successor's z2 cell and weight; cost holds each action's kappa and ids
 * its number.  Each cell repeats the numpy row pass operation for
 * operation, so V and A come out with its bytes: the first least finite
 * candidate in order wins, and a cell with none gets V = inf, A = -1. */
void rlgl_policy_rows(int64_t n_z1, int64_t n_z2, int64_t n_act, const double *z1_axis, double h1,
                      const double *shift, const uint8_t *usable, const uint8_t *moves, const double *cost,
                      const int64_t *j0, const double *wj, const int8_t *ids, double *V, int8_t *A)
{
    for (int64_t i = 1; i < n_z1; i++) {
        const double z1 = z1_axis[i];
        for (int64_t j = 0; j < n_z2; j++) {
            double best = INFINITY;
            int8_t pick = -1;
            for (int64_t a = 0; a < n_act; a++) {
                const int64_t c = a * n_z2 + j;
                const double z1p = z1 + shift[c];
                double v_next = 0.0;
                if (moves[c] && z1p > 0.0) {
                    /* bilinear interpolation; rows not yet filled clamp down one */
                    const double fi = z1p / h1;
                    int64_t i0 = (int64_t)fi;
                    if (i0 > i - 1)
                        i0 = i - 1;
                    const int64_t i1 = i0 + 1 < i - 1 ? i0 + 1 : i - 1;
                    double wi = 0.0;
                    if (i1 != i0) {
                        wi = fi - (double)i0;
                        wi = wi < 0.0 ? 0.0 : wi > 1.0 ? 1.0 : wi;
                    }
                    const double w = wj[c];
                    const double *r0 = V + i0 * n_z2 + j0[c], *r1 = V + i1 * n_z2 + j0[c];
                    v_next = (1 - wi) * ((1 - w) * r0[0] + w * r0[1]) + wi * ((1 - w) * r1[0] + w * r1[1]);
                }
                double cand = cost[a] + v_next;
                if (!(usable[c] && cand < INFINITY))
                    cand = INFINITY; /* NaN and +inf are never picked */
                if (cand < best) {
                    best = cand;
                    pick = ids[a];
                }
            }
            V[i * n_z2 + j] = best;
            A[i * n_z2 + j] = pick;
        }
    }
}

/* Rows of float64 cells as engine.write_csv writes them: each cell as
 * Python's "%.17g" % cell writes it, cells separated by ',' and each row
 * ended by LF.
 *
 * A finite x != 0 is m * 2^e2 with m < 2^53.  Its 17 digits are the
 * integer D nearest x * 10^q for q = 16 - E, E = floor(log10 |x|), ties
 * to even.  pow10[q - POW10_MIN] holds 10^q as hi:lo * 2^exp with
 * 2^127 <= hi:lo < 2^128, truncated (exact for 0 <= q <= 55): built by
 * pushloop from Python's integers.  m * hi:lo is exact in 192 bits, so
 * the top 64 bits of the scaled value's fraction fall short of the exact
 * ones by less than 2 units; they decide the rounding unless they lie
 * within 2 of one half.  Such a cell, every exact tie among them, is
 * written by snprintf, which rounds the exact value.  An integer below
 * 10^17 is written from its own digits.  E is first guessed from
 * floor(log2 |x|), which leaves it E or one below; a scaled value past
 * 10^17 takes the next q.  The layout is %g's: d.ddde+XX when E < -4 or
 * E >= 17 (after rounding), fixed otherwise, trailing zeros cut; -0, inf
 * and -inf as printf writes them, and "nan" for every NaN (glibc writes
 * "-nan" for a negative one, Python "nan").
 *
 * Returns the bytes written to out, or -1 to decline, leaving the rows to
 * write_csv's Python template: when the locale's decimal point is not "."
 * (snprintf follows it) or cap is below CELL_MAX bytes per cell. */

#define POW10_MIN (-292)
#define CELL_MAX 25 /* -2.2250738585072014e-308 and its separator */

typedef struct {
    uint64_t hi, lo;
    int64_t exp;
} pow10_entry;

static const char digit_pairs[] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                                  "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                                  "8081828384858687888990919293949596979899";

/* v < 10^8 as 8 digits, leading zeros kept. */
static void write8(uint32_t v, char *out)
{
    const uint32_t a = v / 10000, b = v % 10000;
    memcpy(out, digit_pairs + 2 * (a / 100), 2);
    memcpy(out + 2, digit_pairs + 2 * (a % 100), 2);
    memcpy(out + 4, digit_pairs + 2 * (b / 100), 2);
    memcpy(out + 6, digit_pairs + 2 * (b % 100), 2);
}

/* d < 10^17 as 17 digits, leading zeros kept. */
static void write17(uint64_t d, char *out)
{
    const uint64_t top = d / 100000000;
    out[0] = (char)('0' + top / 100000000);
    write8((uint32_t)(top % 100000000), out + 1);
    write8((uint32_t)(d % 100000000), out + 9);
}

/* The integer part of m * 10^q * 2^e2 and the top 64 bits of its fraction. */
static uint64_t scale(uint64_t m, int e2, const pow10_entry *p, uint64_t *frac)
{
    const unsigned __int128 low = (unsigned __int128)m * p->lo, high = (unsigned __int128)m * p->hi;
    const unsigned __int128 mid = (low >> 64) + (uint64_t)high;
    const uint64_t p0 = (uint64_t)low, p1 = (uint64_t)mid, p2 = (uint64_t)(high >> 64) + (uint64_t)(mid >> 64);
    /* the product is p2:p1:p0 * 2^(e2 + exp); its binary point lies 64 + t bits up, 0 <= t <= 64 */
    const int t = -(e2 + (int)p->exp) - 64;
    *frac = (uint64_t)((((unsigned __int128)p1 << 64) | p0) >> t);
    return (uint64_t)((((unsigned __int128)p2 << 64) | p1) >> t);
}

/* One cell at out; returns its length, at most CELL_MAX - 1. */
static int format_cell(double x, const pow10_entry *pow10, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (x != x) {
        memcpy(out, "nan", 3);
        return 3;
    }
    char *p = out;
    if (bits >> 63)
        *p++ = '-';
    const double ax = fabs(x);
    if (ax == INFINITY) {
        memcpy(p, "inf", 3);
        return (int)(p - out) + 3;
    }
    char digits[17];
    if (ax < 1e17 && ax == (double)(uint64_t)ax) {
        /* an integer below 10^17, 0 included: %.17g writes all of its digits */
        write17((uint64_t)ax, digits);
        int lead = 0;
        while (lead < 16 && digits[lead] == '0')
            lead++;
        memcpy(p, digits + lead, (size_t)(17 - lead));
        return (int)(p - out) + 17 - lead;
    }
    const int biased = (int)((bits >> 52) & 0x7ff);
    const uint64_t fraction = bits & ((UINT64_C(1) << 52) - 1);
    const uint64_t m = biased ? fraction | (UINT64_C(1) << 52) : fraction;
    const int e2 = biased ? biased - 1075 : -1074;
    const int log2x = e2 + 63 - __builtin_clzll(m);
    int E = (int)(((int64_t)log2x * 78913) >> 18); /* floor(log2x * log10 2) for |log2x| < 1650 */
    uint64_t frac, d = scale(m, e2, &pow10[16 - E - POW10_MIN], &frac);
    if (d >= UINT64_C(100000000000000000)) {
        E++;
        d = scale(m, e2, &pow10[16 - E - POW10_MIN], &frac);
    }
    const uint64_t half = UINT64_C(1) << 63;
    if (frac - (half - 2) <= 4) {
        /* undecided: within the error of one half */
        char tmp[32];
        const int len = snprintf(tmp, sizeof tmp, "%.17g", ax);
        memcpy(p, tmp, (size_t)len);
        return (int)(p - out) + len;
    }
    if (frac > half && ++d == UINT64_C(100000000000000000)) {
        d = UINT64_C(10000000000000000);
        E++;
    }
    write17(d, digits);
    int len = 17;
    while (digits[len - 1] == '0')
        len--;
    if (E < -4 || E >= 17) {
        *p++ = digits[0];
        if (len > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, (size_t)(len - 1));
            p += len - 1;
        }
        *p++ = 'e';
        *p++ = E < 0 ? '-' : '+';
        int a = E < 0 ? -E : E;
        if (a >= 100) {
            *p++ = (char)('0' + a / 100);
            a %= 100;
        }
        memcpy(p, digit_pairs + 2 * a, 2);
        p += 2;
    } else if (E >= 0) {
        memcpy(p, digits, (size_t)E + 1);
        p += E + 1;
        if (len > E + 1) {
            *p++ = '.';
            memcpy(p, digits + E + 1, (size_t)(len - E - 1));
            p += len - E - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int z = 0; z < -E - 1; z++)
            *p++ = '0';
        memcpy(p, digits, (size_t)len);
        p += len;
    }
    return (int)(p - out);
}

int64_t rlgl_format_rows(int64_t rows, int64_t cols, const double *cells, const pow10_entry *pow10, char *out,
                         int64_t cap)
{
    const char *point = localeconv()->decimal_point;
    if (point[0] != '.' || point[1] != '\0' || rows < 0 || cols < 1 || rows > cap / CELL_MAX / cols)
        return -1;
    char *p = out;
    for (int64_t i = 0; i < rows; i++)
        for (int64_t j = 0; j < cols; j++) {
            p += format_cell(cells[i * cols + j], pow10, p);
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    return p - out;
}
