"""Graph generators, edge-list IO, and strongly-connected-component tools."""

from __future__ import annotations

import functools
import io
import warnings

import numpy as np

from .errors import InvalidParamsError, IsolatedNodeError
from .matrix import DENSE_CAP, TransitionMatrix, _coalesce_edges, _raw_rows, _transition, build_transition, check_csr


def parse_edge_file(path, one_based=False):
    """Read a whitespace-separated ``src dst [weight]`` edge list.

    Lines starting with ``#`` are ignored; weight defaults to 1.0.
    Returns ``(edges, n)`` where edges is an (m, 3) float array and n is
    one past the largest node id seen.

    The file is read once, and its bytes go to the compiled
    ``rlgl_parse_edges`` pass (any mix of 2- and 3-token lines of plain
    decimal ids and weights, LF line ends, printable ASCII and tabs; see
    ``_push.c``), and to the line loop when that pass declines or the
    library cannot load.  Both give the same result; the line loop takes
    any file and is the one source of ``path:line:`` errors.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    parsed = _parse_compiled(data, one_based)
    return _parse_lines(path, data, one_based) if parsed is None else parsed


def _parse_compiled(data, one_based):
    """``parse_edge_file``'s result by the compiled pass, or None when it declines or cannot load."""
    from . import pushloop  # imported, and compiled, only by an edge file or a connectivity check

    lib = pushloop.load()
    if lib is None:
        return None
    # room for one data line per line; numpy counts the LF bytes ~2.5x faster than bytes.count
    rows = np.empty((np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n")) + 1, 3))
    top = np.empty(1)  # the largest id, as the edge array holds it
    m = lib.rlgl_parse_edges(data, len(data), int(one_based), rows.ctypes.data, len(rows), top.ctypes.data)
    if m <= 0:
        return None
    return rows[:m], int(top[0]) + 1


def _parse_lines(path, data, one_based):
    """``parse_edge_file`` one line at a time, over the file's bytes ``data``.

    The bytes are decoded as ``open(path)`` would read the file: the
    locale's encoding, universal newlines.
    """
    rows = []
    # undecodable bytes become lone surrogates, which fail the int parse on their line
    with io.TextIOWrapper(io.BytesIO(data), errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise InvalidParamsError(f"{path}:{lineno}: expected 'src dst [weight]'")
            try:
                src, dst = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise InvalidParamsError(f"{path}:{lineno}: ids must be integers, the weight a number") from None
            if one_based:
                src -= 1
                dst -= 1
            rows.append((src, dst, w))
    if not rows:
        raise InvalidParamsError(f"{path}: no edges")
    edges = np.array(rows, dtype=float)
    n = int(edges[:, :2].max()) + 1
    return edges, n


def write_edge_file(path, edges, comment=None):
    edges = np.asarray(edges, dtype=float)
    weights = edges[:, 2].tolist() if edges.shape[1] > 2 else [1.0] * len(edges)
    text = "".join(
        f"{int(s)} {int(d)} {w:.17g}\n" if w != 1.0 else f"{int(s)} {int(d)}\n"
        for s, d, w in zip(edges[:, 0].tolist(), edges[:, 1].tolist(), weights)
    )
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(text)


def symmetrize(edges):
    """Emit both directions of an undirected edge list."""
    edges = np.asarray(edges, dtype=float)
    if edges.shape[1] == 2:
        edges = np.column_stack([edges, np.ones(len(edges))])
    rev = edges[:, [1, 0, 2]]
    return np.vstack([edges, rev])


def two_wheels():
    """The 12-node two-wheels topology: 21 undirected edges.

    A hexagon rim with a hub joined to all six rim nodes, a quad rim with
    its own hub, and one bridge edge joining the two wheels.  Labels are
    0-based here (the customary drawing numbers them from 1).
    """
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    hub7 = [(6, k) for k in range(6)]
    quad = [(7, 8), (8, 9), (9, 10), (10, 7)]
    hub12 = [(11, 7), (11, 8), (11, 9), (11, 10)]
    bridge = [(2, 7)]
    edges = np.array(hexagon + hub7 + quad + hub12 + bridge, dtype=float)
    return edges, 12


def four_state_chain():
    """Aperiodic irreducible 4-state demo chain with stationary (2,1,2,2)/7."""
    edges = [
        (0, 1, 0.5),
        (0, 2, 0.5),
        (1, 2, 1.0),
        (2, 3, 1.0),
        (3, 0, 1.0),
    ]
    return build_transition(edges, 4)


def random_sbm(sizes, p, q, seed):
    """Sample a stochastic block model; returns directed arcs (both ways).

    Each unordered pair is linked independently: probability ``p`` inside
    a block, ``q`` across blocks.  A draw leaving some node isolated is
    retried once (with a warning), then rejected.
    """
    sizes = tuple(int(s) for s in sizes)
    if any(s < 1 for s in sizes):
        raise InvalidParamsError("block sizes must be >= 1")
    if not (0.0 < q <= 1.0 and 0.0 < p <= 1.0):
        raise InvalidParamsError("p and q must lie in (0, 1]")
    if seed < 0:
        raise InvalidParamsError(f"sbm seed must be >= 0, got {seed}")
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    prob = np.where(labels[:, None] == labels[None, :], p, q)
    rng = np.random.default_rng(seed)
    for attempt in range(2):
        draw = rng.random((n, n))
        adj = np.triu(draw < prob, k=1)
        src, dst = np.nonzero(adj)
        degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
        if np.all(degree > 0):
            break
        if attempt == 0:
            warnings.warn(f"seed {seed}: isolated node, resampling once")
    else:
        raise IsolatedNodeError(f"seed {seed}: isolated node after resampling")
    und = np.column_stack([src, dst]).astype(float)
    return symmetrize(und), n


class MeanFieldMatrix:
    """Block-implicit transition matrix of a mean-field block model.

    Every node of block b links to every node (including itself) with
    weight ``p`` inside the block and ``q`` outside, so a row of a block-b
    node holds ``p / D_b`` toward block-b nodes and ``q / D_b`` elsewhere,
    with ``D_b = N_b (p - q) + N q``.  Only the k x k block description is
    stored; products cost O(n + k^2) instead of O(n^2).

    Volume weights are the weighted degrees ``p N_b + q (N - N_b)``, the
    row sums of the underlying weighted adjacency.

    Up to DENSE_CAP states the matrix has the ``csr_push`` of its
    expansion, so the engine's compiled loop takes its single-node pushes:
    a push of ``a`` from a block-b node adds ``a * entry[b, b2]`` to every
    block-b2 node there, the product ``scatter_add`` forms.
    """

    def __init__(self, sizes, p, q):
        sizes = tuple(int(s) for s in sizes)
        if any(s < 1 for s in sizes):
            raise InvalidParamsError("block sizes must be >= 1")
        if not (0.0 < q <= p <= 1.0):
            raise InvalidParamsError("need 0 < q <= p <= 1")
        self.sizes = sizes
        self.p = p
        self.q = q
        self.k = len(sizes)
        self.n = sum(sizes)
        self.starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        sz = np.array(sizes, dtype=float)
        denom = sz * (p - q) + self.n * q
        # entry[b, b2] = probability stored from a block-b node to ONE block-b2 node
        self.entry = np.where(np.eye(self.k, dtype=bool), p, q) / denom[:, None]
        degree = p * sz + q * (self.n - sz)
        self.out_degree = np.repeat(degree, sizes)
        self.block_of = np.repeat(np.arange(self.k), sizes)

    @property
    def volume(self):
        return float(self.out_degree.sum())

    @functools.cached_property
    def csr_push(self):
        """The expansion's ``csr_push``, built on first use; None above DENSE_CAP states."""
        return self.expand().csr_push if self.n <= DENSE_CAP else None

    def block_nodes(self, b):
        return np.arange(self.starts[b], self.starts[b + 1])

    def block_sums(self, x):
        return np.add.reduceat(x, self.starts[:-1])

    def row(self, i):
        b = self.block_of[i]
        vals = np.repeat(self.entry[b], self.sizes)
        return np.arange(self.n), vals

    def split_diagonal(self):
        others = np.array(self.sizes, dtype=float) - np.eye(self.k)  # the nodes of each block but i
        off = (self.entry * others).sum(axis=1)
        return np.repeat(np.diag(self.entry), self.sizes), np.repeat(off, self.sizes)

    def mul_left(self, x):
        s = self.block_sums(np.asarray(x, dtype=float))
        per_node = s @ self.entry
        return np.repeat(per_node, self.sizes)

    def scatter_add(self, C, nodes, amounts):
        s = np.zeros(self.k)
        np.add.at(s, self.block_of[nodes], amounts)
        per_node = s @ self.entry
        for b in range(self.k):
            if per_node[b] != 0.0:
                C[self.starts[b] : self.starts[b + 1]] += per_node[b]

    def to_dense(self):
        if self.n > DENSE_CAP:
            raise InvalidParamsError(f"dense form capped at n={DENSE_CAP}")
        return np.repeat(np.repeat(self.entry, self.sizes, axis=0), self.sizes, axis=1)

    def expand(self):
        """Explicit CSR form; agrees entrywise with the block description."""
        if self.n > DENSE_CAP:
            raise InvalidParamsError(f"expansion capped at n={DENSE_CAP}")
        vals = np.concatenate([np.repeat(self.entry[b], self.sizes) for b in self.block_of])
        indices = np.tile(np.arange(self.n, dtype=np.int64), self.n)
        indptr = np.arange(self.n + 1, dtype=np.int64) * self.n
        return TransitionMatrix(self.n, indptr, indices, vals, self.out_degree.copy())


def meanfield_sbm(sizes, p, q):
    return MeanFieldMatrix(sizes, p, q)


def _components(graph, n=None):
    """``(count, labels)``: the strongly connected components of ``graph``.

    ``graph`` is any object with CSR ``indptr``/``indices`` (every stored
    entry is an arc), or an edge list of ``n`` nodes, which goes through
    the matrix builder's coalescing: ids are bounds-checked, duplicates
    merged and zero weights dropped, so an edge counts for connectivity
    exactly when it becomes a matrix entry.  ``labels[v]`` is the rank of
    v's component in the order Tarjan's pass completes them.  The pass is
    the compiled ``rlgl_scc`` when ``pushloop`` can load it, else
    ``_tarjan_scc``; both give the same labels.
    """
    if hasattr(graph, "indptr") and hasattr(graph, "indices"):
        n, indptr, indices = graph.n, np.asarray(graph.indptr), np.asarray(graph.indices)
        if not isinstance(graph, TransitionMatrix):  # which checked its rows when built
            check_csr(n, indptr, indices)
    else:
        n, indptr, indices, _ = _raw_rows(graph, n)
    return _scc(n, indptr, indices)


def _scc(n, indptr, indices):
    """``_components``' result for checked CSR rows of n nodes."""
    from . import pushloop  # imported, and compiled, only by an edge file or a connectivity check

    lib = pushloop.load()
    if lib is None:
        return _tarjan_scc(n, indptr, indices)
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    count = lib.rlgl_scc(n, indptr.ctypes.data, indices.ctypes.data, labels.ctypes.data)
    if count < 0:
        raise MemoryError(f"no room for the component pass over {n} nodes")
    return count, labels


def _tarjan_scc(n, indptr, indices):
    """Iterative Tarjan in Python: ``_components``' result without a compiler.

    Roots in index order, arcs in CSR order, one label per node in the
    order the components complete, as ``rlgl_scc`` in ``_push.c``.  A node
    is on the stack while it has an index and no label.
    """
    ptr, cols = indptr.tolist(), indices.tolist()
    index = [-1] * n
    low = [0] * n
    labels = [-1] * n
    stack = []
    counter = count = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(cols[ptr[root] : ptr[root + 1]]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(cols[ptr[w] : ptr[w + 1]])))
                    break
                if labels[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:  # every edge of v explored
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        labels[w] = count
                        if w == v:
                            break
                    count += 1
    return count, np.array(labels, dtype=np.int64)


def strong_components(graph, n=None):
    """Strongly connected components of a matrix or an edge list.

    ``graph`` and ``n`` are as for ``_components``.  Returns the
    components as lists of node ids, each list in rising order, the lists
    in the order the components complete.
    """
    count, labels = _components(graph, n)
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=count))]).tolist()
    return [order[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]


def largest_scc(edges, n=None):
    """The chain on the largest strongly connected component of a directed edge list.

    Returns ``(P, node_map)``: P is ``build_transition`` of the edges with
    both ends in the component, node k of P being node ``node_map[k]`` of
    the list (``node_map`` rises).  Ties between equal-sized components
    go to the one containing the smallest index.  The edges are coalesced
    once, and that one set both finds the components and, filtered and
    relabelled (the relabelling keeps their order), builds P; so P has
    the bytes of a build from the component's edges alone.  Raises
    DanglingNodeError when the component is one node without a self-loop.
    """
    edges = np.asarray(edges, dtype=float)
    if n is None:
        n = int(edges[:, :2].max()) + 1
    coalesced = _coalesce_edges(edges, n)
    src, dst, w = coalesced
    count, labels = _scc(n, np.searchsorted(src, np.arange(n + 1)), dst)  # src is sorted
    sizes = np.bincount(labels, minlength=count)
    keep = labels == labels[np.argmax(sizes[labels])]  # the first node of a largest component
    node_map = np.flatnonzero(keep)
    if node_map.size < n:
        new_id = np.cumsum(keep) - 1
        inside = keep[src] & keep[dst]
        coalesced = new_id[src[inside]], new_id[dst[inside]], w[inside]
    return _transition(coalesced, node_map.size), node_map


def is_strongly_connected(graph, n=None):
    """True when ``graph`` (see ``_components``) is one component."""
    return _components(graph, n)[0] == 1
