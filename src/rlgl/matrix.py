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
                        entries k of row i (none for a ``dangling`` row),
                        then, when ``s`` is set, ``restart * s`` to all of
                        C, ``restart`` being ``amount`` for a dangling row
                        and ``amount * restart_share`` otherwise, and writes
                        nothing else: ``TransitionMatrix`` and
                        ``GoogleMatrix``, whose rows hold distinct columns.
                        The engine runs its compiled push loop on these
                        arrays; other matrices have no ``csr_push``

``scatter_add`` return contract: a matrix whose push writes only the
stored row (``TransitionMatrix``) returns the float change in
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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
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


def _restart_distribution(s, n):
    """The restart distribution checked for n states; uniform when None."""
    if s is None:
        return np.full(n, 1.0 / n)
    s = check_distribution(s)
    if s.size != n:
        raise InvalidParamsError(f"restart distribution has {s.size} entries, chain has {n} states")
    return s


class CsrPush(NamedTuple):
    """The arrays of a matrix's single-node push (see ``csr_push`` above)."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    out_degree: np.ndarray
    s: np.ndarray | None = None
    dangling: np.ndarray | None = None
    restart_share: float = 0.0


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
    """
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
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if src.size:
        new = np.empty(src.size, dtype=bool)
        new[0] = True
        new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        group = np.cumsum(new) - 1
        src, dst = src[new], dst[new]
        w = np.bincount(group, weights=w)
    return src, dst, w


def _raw_rows(P_or_edges, n=None):
    """Normalize input to raw CSR rows, tolerating dangling rows.

    This is the one place an edge list becomes CSR rows: ids are
    bounds-checked, duplicates merged and zero weights dropped.
    """
    if isinstance(P_or_edges, TransitionMatrix):
        P = P_or_edges
        return P.n, P.indptr, P.indices, P.data, np.empty(0, dtype=np.int64)
    if n is None:
        raise InvalidParamsError("n is required when passing a raw edge list")
    src, dst, w = _coalesce_edges(P_or_edges, n)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    sums = np.bincount(src, weights=w, minlength=n)
    vals = w / np.repeat(sums, counts)
    return n, indptr, dst, vals, np.flatnonzero(counts == 0)


def build_transition(edges, n):
    """Build a row-stochastic matrix from a weighted directed edge list.

    Outgoing weights of each node are normalized to sum to one; a node
    without out-edges raises DanglingNodeError.
    """
    if n < 1:
        raise InvalidParamsError("n must be >= 1")
    _, indptr, indices, vals, dangling = _raw_rows(edges, n)
    if dangling.size:
        raise DanglingNodeError(int(dangling[0]))
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

    Dangling rows of the raw graph are replaced by the restart
    distribution ``s`` before damping, so those rows equal ``s`` exactly.
    The dense rows are never materialized; products use the raw sparse
    rows plus a restart-mass accumulator.  The raw rows are checked as
    ``TransitionMatrix``'s are, and ``s`` (uniform when None) must be a
    distribution on the n states; InvalidParamsError otherwise.
    """

    def __init__(self, n, indptr, indices, data, dangling, c, s):
        if not 0.0 < c < 1.0:
            raise InvalidDampingError(f"damping must lie in (0,1), got {c}")
        indptr, indices, data = np.asarray(indptr), np.asarray(indices), np.asarray(data, dtype=float)
        _check_csr_rows(n, indptr, indices, data)
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.scaled = c * data
        self.dangling = dangling
        self.dangling_mask = np.zeros(n, dtype=bool)
        self.dangling_mask[dangling] = True
        self.c = c
        self.s = _restart_distribution(s, n)
        counts = np.diff(indptr).astype(float)
        counts[counts == 0] = 1.0
        self.out_degree = counts

    @property
    def csr_push(self):
        return CsrPush(
            self.indptr, self.indices, self.scaled, self.out_degree, self.s, self.dangling_mask, 1.0 - self.c
        )

    @property
    def volume(self):
        return float(self.out_degree.sum())

    def row(self, i):
        # Dense row: c * p_i + (1-c) * s, with dangling p_i := s.
        vals = (1.0 - self.c) * self.s.copy()
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
        restart = (1.0 - self.c) * x.sum() + self.c * x[self.dangling].sum()
        return y + restart * self.s

    def scatter_add(self, C, nodes, amounts):
        restart = 0.0
        for i, a in zip(nodes, amounts):
            if self.dangling_mask[i]:
                restart += a
            else:
                lo, hi = self.indptr[i], self.indptr[i + 1]
                C[self.indices[lo:hi]] += a * self.scaled[lo:hi]
                restart += a * (1.0 - self.c)
        if restart != 0.0:
            C += restart * self.s
        return None  # O(n) writer: the engine recomputes ||C||_1

    def push_damped(self, C, k, amount):
        """Add amount * c * p_k to C (restart mass not re-injected).

        This is the residual push of the positive-cash PageRank solver:
        fraction (1-c) of the pushed amount leaves the residual system.
        """
        if self.dangling_mask[k]:
            C += (self.c * amount) * self.s
        else:
            lo, hi = self.indptr[k], self.indptr[k + 1]
            C[self.indices[lo:hi]] += amount * self.scaled[lo:hi]

    def to_dense(self):
        if self.n > DENSE_CAP:
            raise InvalidParamsError(f"dense form capped at n={DENSE_CAP}")
        D = np.tile((1.0 - self.c) * self.s, (self.n, 1))
        for i in range(self.n):
            if self.dangling_mask[i]:
                D[i] += self.c * self.s
            else:
                lo, hi = self.indptr[i], self.indptr[i + 1]
                D[i, self.indices[lo:hi]] += self.scaled[lo:hi]
        return D


def google_matrix(P_or_edges, c, s=None, n=None):
    """Build the damped restart matrix for a graph or transition matrix."""
    n, indptr, indices, data, dangling = _raw_rows(P_or_edges, n)
    return GoogleMatrix(n, indptr, indices, data, dangling, c, s)


def augment_pagerank(P_or_edges, c, s=None, n=None):
    """Extend an n-state chain with an auxiliary restart node 0.

    Row 0 is ``(c, (1-c)s)`` and row i>=1 is ``((1-c), c*p_i)``; the lower
    right block stores exactly the entries ``c * p_ij``.  Dangling raw rows
    are replaced by ``s`` before scaling.
    """
    if not 0.0 < c < 1.0:
        raise InvalidDampingError(f"damping must lie in (0,1), got {c}")
    n, indptr, indices, data, dangling = _raw_rows(P_or_edges, n)
    s = _restart_distribution(s, n)

    rows_idx = [np.concatenate([[0], np.flatnonzero(s > 0) + 1])]
    rows_val = [np.concatenate([[c], (1.0 - c) * s[s > 0]])]
    dangling_mask = np.zeros(n, dtype=bool)
    dangling_mask[dangling] = True
    for i in range(n):
        if dangling_mask[i]:
            cols = np.flatnonzero(s > 0) + 1
            vals = c * s[s > 0]
        else:
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi] + 1
            vals = c * data[lo:hi]
        rows_idx.append(np.concatenate([[0], cols]))
        rows_val.append(np.concatenate([[1.0 - c], vals]))

    lens = np.array([r.size for r in rows_idx], dtype=np.int64)
    new_indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(lens, out=new_indptr[1:])
    return TransitionMatrix(
        n + 1,
        new_indptr,
        np.concatenate(rows_idx).astype(np.int64),
        np.concatenate(rows_val),
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
