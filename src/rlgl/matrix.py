"""Sparse row-stochastic matrices, builders, and the exact small-chain solver.

Every matrix class in the package implements the same informal interface
used by the iteration engine and the reference solvers:

- ``n``                 number of states
- ``out_degree``        float vector of per-node volume weights d_i; moving
                        the cash of node i is charged d_i edge operations
- ``volume``            sum of out_degree (the cost of one full sweep)
- ``row(i)``            pair ``(cols, vals)`` of row i
- ``mul_left(x)``       the vector-matrix product x @ P; compiled
                        (``rlgl_mul_left`` in ``_push.c``) on a
                        ``TransitionMatrix``, with a numpy fallback that
                        gives the same bytes
- ``scatter_add(C, nodes, amounts)``
                        in-place ``C += sum_k amounts[k] * row(nodes[k])``;
                        returns the change in ``||C||_1`` it caused, or
                        ``None`` (see below)
- ``to_dense()``        dense ndarray copy (bounded by DENSE_CAP states)
- ``csr_push``          the arrays of a single-node push (``CsrPush``), on
                        matrices whose push of ``amount`` from row i adds
                        ``amount * values[k]`` to ``C[indices[k]]`` for the
                        entries k of row i, then, when ``s`` is set,
                        ``restart * s`` to all of C, ``restart`` being
                        ``amount * dangling_share`` for a dangling row (an
                        empty one; no dangling array is passed) and
                        ``amount * restart_share`` otherwise, and writes
                        nothing else: ``TransitionMatrix``, whose rows hold
                        distinct columns, with or without a restart part,
                        and ``MeanFieldMatrix`` up to DENSE_CAP states
                        (its expansion's arrays; None above).  The engine
                        runs its compiled push loop on these arrays, and
                        Python steps where ``csr_push`` is missing or None
- ``split_diagonal()``  the vector of p_ii and that of the sums of the
                        other entries of each row, as its pushes write
                        them (read by ``GaussSeidelRows``)

``scatter_add`` return contract: a push that writes only the stored row
(a ``TransitionMatrix`` without a restart part; the ``damped`` rows of
one with a restart part, off dangling rows) returns the float change in
``sum(|C|)``, summed row by row as ``|new|.sum() - |old|.sum()`` over the
slice it gathers and writes anyway, so the engine can keep ``||C||_1``
in O(degree) per push.  A push that writes O(n) entries (a nonzero
restart add, ``MeanFieldMatrix``) returns ``None``, and the engine
recomputes the sum exactly instead.  The compiled loop sums the change
as it writes each entry, a restart add's in two interleaved partial sums
(entry j into sum j % 2, the row's change in the first, added once at
the end), so it keeps ``||C||_1`` incrementally across restart adds and
dense mean-field rows as well.

Matrices are immutable after construction.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    AbsorbingStateError,
    DanglingNodeError,
    InvalidDampingError,
    InvalidIndexError,
    InvalidM0Error,
    InvalidParamsError,
    NotErgodicError,
)

# Dense representations (GTH elimination, Dobrushin scans, cycle products)
# are only allowed up to this size.
DENSE_CAP = 2000

ROW_SUM_TOL = 1e-12

# The largest n whose edge keys src * n + dst fit an int64.
MAX_SORT_N = math.isqrt(2**63 - 1)


def check_distribution(v, n=None):
    """``v`` checked as a probability vector, as float64; uniform on n states when None.

    Raises InvalidM0Error for a vector that is not 1-d, not finite, not
    nonnegative, not summing to one (within 1e-10) or, when n is given,
    not of length n.
    """
    if v is None:
        return np.full(n, 1.0 / n)
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidM0Error("distribution must be a 1-d vector")
    if n is not None and v.size != n:
        raise InvalidM0Error(f"distribution has {v.size} entries, chain has {n} states")
    if not np.isfinite(v).all():
        raise InvalidM0Error("distribution has non-finite entries")
    if np.any(v < 0):
        raise InvalidM0Error("distribution has negative entries")
    total = float(v.sum())
    if abs(total - 1.0) > 1e-10:
        raise InvalidM0Error(f"distribution sums to {total!r}, not 1")
    return v


class CsrPush(NamedTuple):
    """The arrays of a matrix's single-node push (see ``csr_push`` above).

    ``scale``, when set, is ``GaussSeidelRows``' push: node i moves
    ``amount * scale[i]`` as above to every entry but its own, which
    stays zero.  The compiled loop reads the arrays in place: C-contiguous,
    int64 ``indptr`` and ``indices``, float64 the rest.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    out_degree: np.ndarray
    s: np.ndarray | None = None
    restart_share: float = 0.0
    dangling_share: float = 1.0
    scale: np.ndarray | None = None


def check_csr(n, indptr, indices):
    """InvalidParamsError unless ``indptr``/``indices`` are CSR rows of n nodes with columns in [0, n)."""
    if indptr.shape != (n + 1,) or indices.ndim != 1:
        raise InvalidParamsError(f"CSR arrays do not describe {n} rows")
    if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
        raise InvalidParamsError("CSR indptr and indices must be integers")
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise InvalidParamsError("CSR indptr must rise from 0 to the number of entries")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise InvalidParamsError(f"CSR column outside [0, {n})")


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """CSR rows, with an optional rank-one restart part.

    Each row lists distinct columns in [0, n) in rising order, as every
    builder stores them; the constructor raises InvalidParamsError
    otherwise (``scatter_add``'s fancy-index assignment would write a
    repeated column once, ``mul_left`` twice).  ``out_degree[i]`` is the
    volume weight of node i for cost accounting.  The constructor stores
    the arrays as the compiled passes read them (see ``CsrPush``).

    Without a restart part (``s`` None, ``c`` 1) the matrix is its stored
    rows.  ``google_matrix`` builds one with a restart part, a distribution
    ``s`` on the n states and a damping ``c`` in (0, 1), both checked here:
    the stored rows are then ``c * p_i``, row i is ``c * p_i + (1 - c) * s``,
    and a dangling row, an empty one, is ``s``.  ``restart_share`` (1 - c,
    or 0 without a restart part) and ``dangling_share`` (1) follow from
    them; a push of row i moves ``restart_share`` of the cash onto s, or
    ``dangling_share`` of it on a dangling row.  The restart part is never
    materialized; products use the sparse rows plus a restart-mass
    accumulator.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    out_degree: np.ndarray
    s: np.ndarray | None = None
    c: float = 1.0
    restart_share: float = field(init=False, default=0.0)
    dangling_share: float = field(init=False, default=1.0)

    def __post_init__(self):
        n, indptr, indices = self.n, np.asarray(self.indptr), np.asarray(self.indices)
        if self.s is None:
            if self.c != 1.0:
                raise InvalidParamsError("a damping c needs a restart distribution s")
        else:
            if not 0.0 < self.c < 1.0:
                raise InvalidDampingError(f"damping must lie in (0,1), got {self.c}")
            object.__setattr__(self, "s", check_distribution(self.s, n))
            object.__setattr__(self, "restart_share", 1.0 - self.c)
        if np.shape(self.data) != indices.shape or np.shape(self.out_degree) != (n,):
            raise InvalidParamsError(f"CSR arrays do not describe {n} rows")
        check_csr(n, indptr, indices)
        rising = indices[1:] > indices[:-1]
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True  # a new row may restart
        if not rising.all():
            raise InvalidParamsError("a CSR row repeats a column or lists its columns out of order")
        # stored as the compiled passes read them; a builder's arrays already are, and are not copied
        for name, dtype in zip(("indptr", "indices", "data", "out_degree", "s"), [np.int64] * 2 + [np.float64] * 3):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=dtype))

    @property
    def csr_push(self):
        return CsrPush(self.indptr, self.indices, self.data, self.out_degree, self.s,
                       self.restart_share, self.dangling_share)

    @functools.cached_property
    def dangling_mask(self):
        return np.diff(self.indptr) == 0

    @functools.cached_property
    def damped(self):
        """The rows ``c * P~`` alone (``P~``: P with its dangling rows replaced
        by s): restart share 0 and dangling share c, on the same arrays and
        ``out_degree``; built on first use.  These are the pushes of the
        positive-cash PageRank solver."""
        rows = copy.copy(self)
        object.__setattr__(rows, "restart_share", 0.0)
        object.__setattr__(rows, "dangling_share", self.c)
        return rows

    @property
    def volume(self):
        return float(self.out_degree.sum())

    @property
    def nnz(self):
        return int(self.indices.size)

    def row(self, i):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        if self.s is None:
            return self.indices[lo:hi], self.data[lo:hi]
        # dense row: c * p_i + restart_share * s, with dangling p_i := s
        vals = self.restart_share * self.s
        if lo == hi:
            vals += self.c * self.s
        else:
            vals[self.indices[lo:hi]] += self.data[lo:hi]
        return np.arange(self.n), vals

    def split_diagonal(self):
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        on = self.indices == rows
        d = np.zeros(self.n)
        d[rows[on]] = self.data[on]
        off = np.bincount(rows[~on], weights=self.data[~on], minlength=self.n)
        if self.s is None:
            return d, off
        share = np.where(self.dangling_mask, self.dangling_share, self.restart_share)
        return d + share * self.s, off + share * (self.s.sum() - self.s)

    def mul_left(self, x):
        from . import pushloop  # imported, and compiled, only by a product or a run

        x = np.asarray(x, dtype=float)
        lib = pushloop.load() if x.shape == (self.n,) else None  # C reads n entries; numpy judges any other x
        if lib is None:
            lens = np.diff(self.indptr)
            contrib = self.data * np.repeat(x, lens)
            y = np.bincount(self.indices, weights=contrib, minlength=self.n)
        else:
            x = np.ascontiguousarray(x)
            y = np.empty(self.n)
            lib.rlgl_mul_left(self.n, self.indptr.ctypes.data, self.indices.ctypes.data, self.data.ctypes.data,
                              x.ctypes.data, y.ctypes.data)
        if self.s is None:
            return y
        restart = self.restart_share * x.sum() + self.c * x[self.dangling_mask].sum()
        return y + restart * self.s

    def scatter_add(self, C, nodes, amounts):
        # the change in sum(|C|) is summed only on rows with no restart share
        delta = None if self.restart_share else 0.0
        restart = 0.0
        for i, a in zip(nodes, amounts):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            if lo == hi and self.s is not None:
                restart += a * self.dangling_share
                continue
            cols = self.indices[lo:hi]
            old = C[cols]
            new = old + a * self.data[lo:hi]
            C[cols] = new
            if delta is None:
                restart += a * self.restart_share
            else:
                delta += float(np.abs(new).sum()) - float(np.abs(old).sum())
        if restart == 0.0:
            return delta
        C += restart * self.s
        return None  # O(n) writer: the engine recomputes ||C||_1

    def to_dense(self):
        if self.n > DENSE_CAP:
            raise InvalidParamsError(f"dense form capped at n={DENSE_CAP}")
        D = np.zeros((self.n, self.n))
        for i in range(self.n):
            cols, vals = self.row(i)
            D[i, cols] = vals
        return D


class _Coalesced(tuple):
    """``_coalesce_edges``' ``(src, dst, w)``; ``rows`` is the CSR ``(indptr, data)``
    of these edges, as ``_csr_rows`` makes them, when the compiled pass wrote it, else None."""

    rows = None


def _coalesce_edges(edges, n):
    """Sort, bounds-check and merge duplicate (src, dst) pairs.

    Returns (src, dst, w) arrays of distinct positive-weight edges,
    sorted by source, then target; a merged edge's weight is the sum of
    its copies' in input order.  The pass is the compiled
    ``rlgl_coalesce`` (a counting sort by source, then one by target
    within each row) when ``pushloop`` can load it and n is at most the
    edge count, else numpy's stable sort on the one key ``src * n +
    dst``; both give the same bytes and raise the same errors, among
    them InvalidParamsError naming the first node whose merged weights
    sum past the largest float (its row would normalize to zeros or NaN).
    The compiled pass also writes the edges' CSR rows
    (``_Coalesced.rows``), so ``_csr_rows`` skips its numpy pass.  The
    sort key caps n at ``MAX_SORT_N`` on both paths; a larger n raises
    InvalidParamsError before any array is made.
    """
    if n > MAX_SORT_N:
        raise InvalidParamsError(f"{n} nodes is too many: the edge sort needs n <= {MAX_SORT_N}")
    edges = np.asarray(edges, dtype=float)
    if edges.size == 0:
        return (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
    if edges.ndim != 2 or edges.shape[1] not in (2, 3):
        raise InvalidParamsError("edge list must have shape (m, 2) or (m, 3)")
    coalesced = _coalesce_compiled(edges, n)
    if coalesced is not None:
        return coalesced
    w = edges[:, 2].copy() if edges.shape[1] == 3 else np.ones(len(edges))
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise _bad_weight()
    ids = edges[:, :2]
    # checked before the cast, as the compiled pass checks them: -1 < x < n, which NaN fails
    if not np.all((ids > -1.0) & (ids < n)):
        raise _bad_id(n)
    src = ids[:, 0].astype(np.int64)
    dst = ids[:, 1].astype(np.int64)
    keep = w > 0
    src, dst, w = src[keep], dst[keep], w[keep]
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    src, dst, w, key = src[order], dst[order], w[order], key[order]
    if src.size:
        new = np.empty(src.size, dtype=bool)
        new[0] = True
        new[1:] = key[1:] != key[:-1]
        group = np.cumsum(new) - 1
        src, dst = src[new], dst[new]
        w = np.bincount(group, weights=w)
        # each row's sum, added in edge order as _csr_rows and the compiled pass add it
        first = np.diff(src, prepend=-1) != 0
        bad = np.flatnonzero(~np.isfinite(np.bincount(np.cumsum(first) - 1, weights=w)))
        if bad.size:
            raise _bad_sum(int(src[first][bad[0]]))
    return src, dst, w


def _bad_weight():
    return InvalidParamsError("edge weights must be finite and >= 0")


def _bad_id(n):
    return InvalidIndexError(f"edge endpoint outside [0, {n})")


def _bad_sum(node):
    return InvalidParamsError(f"node {node}: its edge weights sum past the largest float")


def _coalesce_compiled(edges, n):
    """``_coalesce_edges``' result for a checked (m, 2) or (m, 3) float edge
    array by ``rlgl_coalesce``, its ``rows`` set, or None when it declines or cannot load."""
    from . import pushloop  # imported, and compiled, only by a product, a run or a build

    lib = pushloop.load()
    if lib is None:
        return None
    edges = np.ascontiguousarray(edges)
    m = len(edges)
    if not 1 <= n <= m:
        return None  # rlgl_coalesce declines these; the n-sized indptr is not made for them
    src, dst, w, data = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64), np.empty(m), np.empty(m)
    indptr = np.empty(n + 1, dtype=np.int64)
    k = lib.rlgl_coalesce(n, m, edges.shape[1], edges.ctypes.data, src.ctypes.data, dst.ctypes.data, w.ctypes.data,
                          indptr.ctypes.data, data.ctypes.data)
    # k edges, or -1 (declined), -2 (a bad weight), -3 (a bad id) or -4 (row src[0]'s sum overflows)
    if k == -1:
        return None
    if k == -2:
        raise _bad_weight()
    if k == -3:
        raise _bad_id(n)
    if k == -4:
        raise _bad_sum(int(src[0]))
    for a in (src, dst, w, data):
        a.resize(k, refcheck=False)  # in place: nothing else holds the arrays
    coalesced = _Coalesced((src, dst, w))
    coalesced.rows = indptr, data
    return coalesced


def _csr_rows(coalesced, n):
    """CSR rows ``(n, indptr, indices, data)`` of coalesced ``(src, dst, w)``, each row normalized."""
    src, dst, w = coalesced
    rows = getattr(coalesced, "rows", None)
    if rows is not None:
        return n, rows[0], dst, rows[1]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    sums = np.bincount(src, weights=w, minlength=n)
    vals = w / np.repeat(sums, counts)
    return n, indptr, dst, vals


def _raw_rows(P_or_edges, n=None):
    """Normalize input to raw CSR rows ``(n, indptr, indices, data)``.

    This is the one place an edge list becomes CSR rows: ids are
    bounds-checked, duplicates merged and zero weights dropped.  A node
    without out-edges (dangling) is an empty row.  A matrix that has a
    restart part already raises InvalidParamsError.
    """
    if isinstance(P_or_edges, TransitionMatrix):
        P = P_or_edges
        if P.s is not None:
            raise InvalidParamsError("the matrix has a restart part already")
        return P.n, P.indptr, P.indices, P.data
    if n is None:
        raise InvalidParamsError("n is required when passing a raw edge list")
    return _csr_rows(_coalesce_edges(P_or_edges, n), n)


def build_transition(edges, n):
    """Build a row-stochastic matrix from a weighted directed edge list.

    Outgoing weights of each node are normalized to sum to one; a node
    without out-edges raises DanglingNodeError, found from the sorted
    sources before any n-sized array is made.
    """
    if n < 1:
        raise InvalidParamsError("n must be >= 1")
    return _transition(_coalesce_edges(edges, n), n)


def _transition(coalesced, n):
    """``build_transition``'s matrix of coalesced edges, as ``_coalesce_edges`` returns them."""
    src = coalesced[0]
    # src is sorted: every node has out-edges iff n distinct sources appear
    if not src.size or np.count_nonzero(src[1:] != src[:-1]) + 1 < n:
        heads = np.unique(src)
        missing = np.flatnonzero(heads != np.arange(heads.size))
        raise DanglingNodeError(int(missing[0]) if missing.size else heads.size)
    _, indptr, indices, vals = _csr_rows(coalesced, n)
    return TransitionMatrix(n, indptr, indices, vals, np.diff(indptr).astype(float))


def validate_stochastic(P, tol=ROW_SUM_TOL):
    """Report rows whose sum deviates from one by more than ``tol``.

    Returns a list of ``(row, row_sum)`` violations; empty means ok.
    """
    bad = []
    for i in range(P.n):
        _, vals = P.row(i)
        s = float(vals.sum())
        if abs(s - 1.0) > tol:
            bad.append((i, s))
    return bad


class GaussSeidelRows:
    """The Gauss-Seidel view of a chain P: its rows without self-loops, renormalized.

    Row i is ``p_ij * scale[i]`` for j != i and 0 at i, ``scale[i]`` being
    one over the sum of the other entries of P's row i (``1 / (1 - p_ii)``
    in exact arithmetic), or 1 for a row without a self-loop.  So a push
    of node i's cash a moves ``a * scale[i]`` along P's row i and leaves
    C_i = 0, and a round-robin run from M0 proportional to
    ``1 / scale`` makes the Gauss-Seidel sweeps
    ``x_j <- sum_{i != j} x_i p_ij / (1 - p_jj)`` on ``x = H * scale``,
    one per n pushes; its cash is ``x P - x``.

    The view has what the engine reads (``n``, ``out_degree``,
    ``mul_left``, ``scatter_add``, ``csr_push``), taken from P's
    ``split_diagonal()`` and those of P; P's ``csr_push``, read as an
    attribute as the engine reads it, gains ``scale`` for the compiled
    loop.  Raises AbsorbingStateError for a row with no other entry.
    """

    def __init__(self, P):
        diag, off = P.split_diagonal()
        absorbing = np.flatnonzero(~(off > 0.0))
        if absorbing.size:
            j = int(absorbing[0])
            raise AbsorbingStateError(f"state {j} is absorbing (p_jj = {float(diag[j])})")
        self.P = P
        self.n = P.n
        self.out_degree = P.out_degree
        self.diag = diag
        # over the row's other entries, not 1 - p_ii, so that a push moves a in
        # all; 1 leaves a row without a self-loop exactly P's
        self.scale = np.where(diag == 0.0, 1.0, 1.0 / off)

    @property
    def csr_push(self):
        push = getattr(self.P, "csr_push", None)
        return None if push is None else push._replace(scale=self.scale)

    def mul_left(self, x):
        y = np.asarray(x, dtype=float) * self.scale
        return self.P.mul_left(y) - y * self.diag

    def scatter_add(self, C, nodes, amounts):
        for i, a in zip(nodes, amounts):
            kept = C[i]
            self.P.scatter_add(C, [i], [a * self.scale[i]])
            C[i] = kept  # row i of the view has no entry i
        return None  # the engine recomputes ||C||_1


def google_matrix(P_or_edges, c, s=None, n=None):
    """The damped restart matrix ``c*P + (1-c)*1s`` of a graph or transition matrix.

    A ``TransitionMatrix`` whose stored rows are ``c * p_i`` and whose
    restart part is ``s`` (uniform when None; InvalidParamsError unless a
    distribution on the n states), with restart share 1 - c and dangling
    share 1: dangling rows, the empty ones, are replaced by s before
    damping, so those rows equal s exactly.  A dangling row is charged
    one edge operation.
    """
    n, indptr, indices, data = _raw_rows(P_or_edges, n)
    out_degree = np.maximum(np.diff(indptr), 1).astype(float)
    return TransitionMatrix(n, indptr, indices, c * data, out_degree, check_distribution(s, n), c)


def augment_pagerank(P_or_edges, c, s=None, n=None):
    """Extend an n-state chain with an auxiliary restart node 0.

    Row 0 is ``(c, (1-c)s)`` and row i>=1 is ``((1-c), c*p_i)``; the lower
    right block stores exactly the entries ``c * p_ij``.  Dangling raw rows
    are replaced by ``s`` before scaling.  A matrix that has a restart part
    already raises InvalidParamsError.
    """
    if not 0.0 < c < 1.0:
        raise InvalidDampingError(f"damping must lie in (0,1), got {c}")
    n, indptr, indices, data = _raw_rows(P_or_edges, n)
    s = check_distribution(s, n)
    # the rows c * P~ after a first entry 1 - c to node 0, an empty row
    # stored as c * s on the support of s
    support = np.flatnonzero(s > 0)
    empty = np.diff(indptr) == 0
    at = np.repeat(indptr[:-1][empty], support.size)
    fill = int(empty.sum())
    indices = np.insert(indices, at, np.tile(support, fill))
    values = np.insert(c * data, at, np.tile(c * s[support], fill))
    counts = np.where(empty, support.size, np.diff(indptr))
    heads = np.cumsum(counts) - counts
    lens = np.concatenate([[support.size + 1], counts + 1])
    return TransitionMatrix(
        n + 1,
        np.concatenate([[0], np.cumsum(lens)]),
        np.concatenate([[0], support + 1, np.insert(indices + 1, heads, 0)]),
        np.concatenate([[c], (1.0 - c) * s[support], np.insert(values, heads, 1.0 - c)]),
        lens.astype(float),
    )


def gth_stationary(P):
    """Exact stationary distribution by subtraction-free elimination.

    Accepts a dense row-stochastic ndarray or any matrix object with
    ``to_dense``; sizes are capped at DENSE_CAP.  The elimination uses
    only additions, multiplications and divisions, so the result is
    accurate to machine precision on ergodic chains.
    """
    A = P if isinstance(P, np.ndarray) else P.to_dense()
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if n > DENSE_CAP:
        raise InvalidParamsError(f"exact solve capped at n={DENSE_CAP}")
    if n == 1:
        return np.array([1.0])
    for k in range(n - 1):
        scale = A[k, k + 1 :].sum()
        if scale <= 0.0:
            raise NotErgodicError(f"elimination pivot vanished at state {k}")
        A[k + 1 :, k] /= scale
        A[k + 1 :, k + 1 :] += np.outer(A[k + 1 :, k], A[k, k + 1 :])
    pi = np.zeros(n)
    pi[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        pi[k] = pi[k + 1 :] @ A[k + 1 :, k]
    return pi / pi.sum()
