"""Sparse row-stochastic matrices, builders, and the exact small-chain solver.

Every matrix class in the package implements the same informal interface
used by the iteration engine and the reference solvers:

- ``n``                 number of states
- ``out_degree``        float vector of per-node volume weights d_i; moving
                        the cash of node i is charged d_i edge operations
- ``volume``            sum of out_degree (the cost of one full sweep)
- ``row(i)``            pair ``(cols, vals)`` of the stored row i
- ``mul_left(x)``       the vector-matrix product x @ P
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
                        nothing else:
                        ``TransitionMatrix`` and ``GoogleMatrix``, whose
                        rows hold distinct columns.
                        The engine runs its compiled push loop on these
                        arrays; other matrices have no ``csr_push``
- ``split_diagonal()``  the vector of p_ii and that of the sums of the
                        other entries of each row, as its pushes write
                        them (read by ``GaussSeidelRows``)

``scatter_add`` return contract: a matrix whose push writes only the
stored row (``TransitionMatrix``; ``GoogleMatrix.damped`` off dangling
rows) returns the float change in
``sum(|C|)``, summed row by row as ``|new|.sum() - |old|.sum()`` over the
slice it gathers and writes anyway, so the engine can keep ``||C||_1``
in O(degree) per push.  A matrix whose push writes O(n) entries
(``GoogleMatrix``, ``MeanFieldMatrix``) returns ``None``, and the engine
recomputes the sum exactly instead.  The compiled loop sums the change
as it writes each entry, so it keeps ``||C||_1`` incrementally on a
``GoogleMatrix`` as well.

Matrices are immutable after construction.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
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


def check_distribution(v, tol=1e-10):
    """Validate that ``v`` is a probability vector; returns it as float64."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidM0Error("distribution must be a 1-d vector")
    if not np.isfinite(v).all():
        raise InvalidM0Error("distribution has non-finite entries")
    if np.any(v < 0):
        raise InvalidM0Error("distribution has negative entries")
    total = float(v.sum())
    if abs(total - 1.0) > tol:
        raise InvalidM0Error(f"distribution sums to {total!r}, not 1")
    return v


def _check_csr_rows(n, indptr, indices, data):
    """Raise InvalidParamsError unless the arrays are n CSR rows of distinct, rising columns.

    Every builder stores rows so.  A repeated column would be written once
    by ``scatter_add``'s fancy-index assignment and twice by ``mul_left``.
    """
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    if indptr.shape != (n + 1,) or np.shape(data) != indices.shape:
        raise InvalidParamsError(f"CSR arrays do not describe {n} rows")
    if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
        raise InvalidParamsError("CSR indptr and indices must be integers")
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise InvalidParamsError("CSR indptr must rise from 0 to the number of entries")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise InvalidParamsError(f"CSR column outside [0, {n})")
    rising = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True  # a new row may restart
    if not rising.all():
        raise InvalidParamsError("a CSR row repeats a column or lists its columns out of order")


def _csr_split_diagonal(n, indptr, indices, values):
    """The entries (i, i) of n CSR rows (0 where a row has none) and the sums of their other entries."""
    rows = np.repeat(np.arange(n), np.diff(indptr))
    on = indices == rows
    d = np.zeros(n)
    d[rows[on]] = values[on]
    return d, np.bincount(rows[~on], weights=values[~on], minlength=n)


def _restart_distribution(s, n):
    """The restart distribution checked for n states; uniform when None."""
    if s is None:
        return np.full(n, 1.0 / n)
    s = check_distribution(s)
    if s.size != n:
        raise InvalidParamsError(f"restart distribution has {s.size} entries, chain has {n} states")
    return s


class CsrPush(NamedTuple):
    """The arrays of a matrix's single-node push (see ``csr_push`` above).

    ``scale``, when set, is ``GaussSeidelRows``' push: node i moves
    ``amount * scale[i]`` as above to every entry but its own, which
    stays zero.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    out_degree: np.ndarray
    s: np.ndarray | None = None
    restart_share: float = 0.0
    dangling_share: float = 1.0
    scale: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """CSR row-stochastic matrix.

    ``out_degree[i]`` is the number of stored entries of row i (the volume
    weight of node i for cost accounting).  Each row lists distinct
    columns in [0, n) in rising order, as every builder stores them;
    the constructor raises InvalidParamsError otherwise (``scatter_add``
    would write a repeated column once).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    out_degree: np.ndarray

    def __post_init__(self):
        if np.shape(self.out_degree) != (self.n,):
            raise InvalidParamsError(f"CSR arrays do not describe {self.n} rows")
        _check_csr_rows(self.n, self.indptr, self.indices, self.data)

    @property
    def csr_push(self):
        return CsrPush(self.indptr, self.indices, self.data, self.out_degree)

    @property
    def volume(self):
        return float(self.out_degree.sum())

    @property
    def nnz(self):
        return int(self.indices.size)

    def row(self, i):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def split_diagonal(self):
        return _csr_split_diagonal(self.n, self.indptr, self.indices, self.data)

    def row_sums(self):
        lens = np.diff(self.indptr)
        out = np.zeros(self.n)
        np.add.at(out, np.repeat(np.arange(self.n), lens), self.data)
        return out

    def mul_left(self, x):
        x = np.asarray(x, dtype=float)
        lens = np.diff(self.indptr)
        contrib = self.data * np.repeat(x, lens)
        return np.bincount(self.indices, weights=contrib, minlength=self.n)

    def scatter_add(self, C, nodes, amounts):
        delta = 0.0
        for i, a in zip(nodes, amounts):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            cols = self.indices[lo:hi]
            old = C[cols]
            new = old + a * self.data[lo:hi]
            C[cols] = new
            delta += float(np.abs(new).sum()) - float(np.abs(old).sum())
        return delta

    def to_dense(self):
        if self.n > DENSE_CAP:
            raise InvalidParamsError(f"dense form capped at n={DENSE_CAP}")
        D = np.zeros((self.n, self.n))
        for i in range(self.n):
            cols, vals = self.row(i)
            D[i, cols] = vals
        return D


def _coalesce_edges(edges, n):
    """Sort, bounds-check and merge duplicate (src, dst) pairs.

    Returns (src, dst, w) arrays of distinct positive-weight edges.
    Edges sort on the one key ``src * n + dst``, so n is capped at
    ``MAX_SORT_N``; a larger n raises InvalidParamsError before any
    array is made.
    """
    if n > MAX_SORT_N:
        raise InvalidParamsError(f"{n} nodes is too many: the edge sort needs n <= {MAX_SORT_N}")
    edges = np.asarray(edges, dtype=float)
    if edges.size == 0:
        return (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
    if edges.ndim != 2 or edges.shape[1] not in (2, 3):
        raise InvalidParamsError("edge list must have shape (m, 2) or (m, 3)")
    src = edges[:, 0].astype(np.int64)
    dst = edges[:, 1].astype(np.int64)
    w = edges[:, 2].copy() if edges.shape[1] == 3 else np.ones(len(src))
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise InvalidParamsError("edge weights must be finite and >= 0")
    if src.size and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
        raise InvalidIndexError(f"edge endpoint outside [0, {n})")
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
    return src, dst, w


def _csr_rows(src, dst, w, n):
    """CSR rows ``(n, indptr, indices, data)`` of coalesced edges, each row normalized."""
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
    without out-edges (dangling) is an empty row.
    """
    if isinstance(P_or_edges, TransitionMatrix):
        P = P_or_edges
        return P.n, P.indptr, P.indices, P.data
    if n is None:
        raise InvalidParamsError("n is required when passing a raw edge list")
    return _csr_rows(*_coalesce_edges(P_or_edges, n), n)


def build_transition(edges, n):
    """Build a row-stochastic matrix from a weighted directed edge list.

    Outgoing weights of each node are normalized to sum to one; a node
    without out-edges raises DanglingNodeError, found from the sorted
    sources before any n-sized array is made.
    """
    if n < 1:
        raise InvalidParamsError("n must be >= 1")
    src, dst, w = _coalesce_edges(edges, n)
    # src is sorted: every node has out-edges iff n distinct sources appear
    if not src.size or np.count_nonzero(src[1:] != src[:-1]) + 1 < n:
        heads = np.unique(src)
        missing = np.flatnonzero(heads != np.arange(heads.size))
        raise DanglingNodeError(int(missing[0]) if missing.size else heads.size)
    _, indptr, indices, vals = _csr_rows(src, dst, w, n)
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


class GoogleMatrix:
    """Damped-with-restart matrix c*P + (1-c)*1s, rank-one part implicit.

    Dangling rows of the raw graph, the empty ones, are replaced by the
    restart distribution ``s`` before damping, so those rows equal ``s``
    exactly.
    The dense rows are never materialized; products use the raw sparse
    rows plus a restart-mass accumulator.  The raw rows are checked as
    ``TransitionMatrix``'s are, and ``s`` (uniform when None) must be a
    distribution on the n states; InvalidParamsError otherwise.

    Row i is ``c * p_i + restart_share * s``, a dangling row
    ``(c + restart_share) * s``, whose push moves ``dangling_share`` of
    the cash onto s: 1 - c and 1 here.  ``damped``, the pushes of the
    positive-cash PageRank solver, has 0 and c: the rows ``c * P~`` alone
    (``P~``: P with its dangling rows replaced by s), on the same arrays.
    """

    def __init__(self, n, indptr, indices, data, c, s):
        if not 0.0 < c < 1.0:
            raise InvalidDampingError(f"damping must lie in (0,1), got {c}")
        indptr, indices, data = np.asarray(indptr), np.asarray(indices), np.asarray(data, dtype=float)
        _check_csr_rows(n, indptr, indices, data)
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.scaled = c * data
        counts = np.diff(indptr)
        self.dangling_mask = counts == 0
        self.c = c
        self.s = _restart_distribution(s, n)
        self.out_degree = np.maximum(counts, 1).astype(float)
        self.restart_share = 1.0 - c
        self.dangling_share = 1.0

    @property
    def csr_push(self):
        return CsrPush(self.indptr, self.indices, self.scaled, self.out_degree, self.s,
                       self.restart_share, self.dangling_share)

    @functools.cached_property
    def damped(self):
        """The rows ``c * P~`` alone, on the same arrays and ``out_degree``; built on first use."""
        rows = copy.copy(self)
        rows.restart_share, rows.dangling_share = 0.0, self.c
        return rows

    @property
    def volume(self):
        return float(self.out_degree.sum())

    def split_diagonal(self):
        d, off = _csr_split_diagonal(self.n, self.indptr, self.indices, self.scaled)
        share = np.where(self.dangling_mask, self.dangling_share, self.restart_share)
        return d + share * self.s, off + share * (self.s.sum() - self.s)

    def row(self, i):
        # Dense row: c * p_i + restart_share * s, with dangling p_i := s.
        vals = self.restart_share * self.s
        if self.dangling_mask[i]:
            vals += self.c * self.s
        else:
            lo, hi = self.indptr[i], self.indptr[i + 1]
            vals[self.indices[lo:hi]] += self.scaled[lo:hi]
        return np.arange(self.n), vals

    def mul_left(self, x):
        x = np.asarray(x, dtype=float)
        lens = np.diff(self.indptr)
        contrib = self.scaled * np.repeat(x, lens)
        y = np.bincount(self.indices, weights=contrib, minlength=self.n)
        restart = self.restart_share * x.sum() + self.c * x[self.dangling_mask].sum()
        return y + restart * self.s

    def scatter_add(self, C, nodes, amounts):
        # the change in sum(|C|) is summed only on rows with no restart share
        delta = None if self.restart_share else 0.0
        restart = 0.0
        for i, a in zip(nodes, amounts):
            if self.dangling_mask[i]:
                restart += a * self.dangling_share
                continue
            lo, hi = self.indptr[i], self.indptr[i + 1]
            cols = self.indices[lo:hi]
            old = C[cols]
            new = old + a * self.scaled[lo:hi]
            C[cols] = new
            restart += a * self.restart_share
            if delta is not None:
                delta += float(np.abs(new).sum()) - float(np.abs(old).sum())
        if restart == 0.0:
            return delta
        C += restart * self.s
        return None  # O(n) writer: the engine recomputes ||C||_1

    def to_dense(self):
        if self.n > DENSE_CAP:
            raise InvalidParamsError(f"dense form capped at n={DENSE_CAP}")
        D = np.tile(self.restart_share * self.s, (self.n, 1))
        for i in range(self.n):
            if self.dangling_mask[i]:
                D[i] += self.c * self.s
            else:
                lo, hi = self.indptr[i], self.indptr[i + 1]
                D[i, self.indices[lo:hi]] += self.scaled[lo:hi]
        return D


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
    """Build the damped restart matrix for a graph or transition matrix."""
    return GoogleMatrix(*_raw_rows(P_or_edges, n), c, s)


def augment_pagerank(P_or_edges, c, s=None, n=None):
    """Extend an n-state chain with an auxiliary restart node 0.

    Row 0 is ``(c, (1-c)s)`` and row i>=1 is ``((1-c), c*p_i)``; the lower
    right block stores exactly the entries ``c * p_ij``.  Dangling raw rows
    are replaced by ``s`` before scaling.
    """
    if not 0.0 < c < 1.0:
        raise InvalidDampingError(f"damping must lie in (0,1), got {c}")
    n, indptr, indices, data = _raw_rows(P_or_edges, n)
    s = _restart_distribution(s, n)
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
