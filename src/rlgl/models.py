"""Graph generators, edge-list IO, and strongly-connected-component tools."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InvalidParamsError, IsolatedNodeError
from .matrix import DENSE_CAP, TransitionMatrix, _raw_rows, build_transition


def parse_edge_file(path, one_based=False):
    """Read a whitespace-separated ``src dst [weight]`` edge list.

    Lines starting with ``#`` are ignored; weight defaults to 1.0.
    Returns ``(edges, n)`` where edges is an (m, 3) float array and n is
    one past the largest node id seen.
    """
    rows = []
    with open(path) as fh:
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
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for e in edges:
            src, dst = int(e[0]), int(e[1])
            if len(e) > 2 and float(e[2]) != 1.0:
                fh.write(f"{src} {dst} {e[2]:.17g}\n")
            else:
                fh.write(f"{src} {dst}\n")


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

    def block_nodes(self, b):
        return np.arange(self.starts[b], self.starts[b + 1])

    def block_sums(self, x):
        return np.add.reduceat(x, self.starts[:-1])

    def row(self, i):
        b = self.block_of[i]
        vals = np.repeat(self.entry[b], self.sizes)
        return np.arange(self.n), vals

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
        return None  # O(n) writer: the engine recomputes ||C||_1

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


def _tarjan_scc(adj, n):
    """Iterative Tarjan; returns components as lists of nodes."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    counter = 0
    comps = []
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:  # every edge of v explored
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def strong_components(graph, n=None):
    """Strongly connected components of a matrix or an edge list.

    ``graph`` is any object with CSR ``indptr``/``indices`` (every stored
    entry is an arc), or an edge list of ``n`` nodes, which goes through
    the matrix builder's coalescing: ids are bounds-checked, duplicates
    merged and zero weights dropped, so an edge counts for connectivity
    exactly when it becomes a matrix entry.  Returns the components as
    lists of node ids.
    """
    if hasattr(graph, "indptr") and hasattr(graph, "indices"):
        n, indptr, indices = graph.n, graph.indptr, graph.indices
    else:
        n, indptr, indices, _, _ = _raw_rows(graph, n)
    ptr, cols = indptr.tolist(), indices.tolist()
    return _tarjan_scc([cols[ptr[i] : ptr[i + 1]] for i in range(n)], n)


def largest_scc(edges, n=None):
    """Largest strongly connected component of a directed edge list.

    Returns ``(sub_edges, mapping)`` where mapping is an old->new index
    array (-1 outside the component).  Ties between equal-sized
    components go to the one containing the smallest original index.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.shape[1] == 2:
        edges = np.column_stack([edges, np.ones(len(edges))])
    if n is None:
        n = int(edges[:, :2].max()) + 1
    best = min(strong_components(edges, n), key=lambda c: (-len(c), min(c)))
    mapping = np.full(n, -1, dtype=np.int64)
    mapping[np.sort(best)] = np.arange(len(best))
    keep = mapping >= 0
    ends = edges[:, :2].astype(np.int64)
    mask = keep[ends].all(axis=1)
    sub = edges[mask].copy()
    sub[:, :2] = mapping[ends[mask]]
    return sub, mapping


def is_strongly_connected(graph, n=None):
    """True when ``graph`` (see ``strong_components``) is one component."""
    return len(strong_components(graph, n)) == 1
