import contextlib
import locale
import os
import shlex
import subprocess

import numpy as np
import pytest

from rlgl import engine, matrix, models, pushloop


def dense_ergodic_chain(n, seed, alpha=0.8):
    """Random chain with strictly positive rows (ergodic by construction)."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(n, alpha), size=n)
    rows = np.maximum(rows, 1e-9)
    rows /= rows.sum(axis=1, keepdims=True)
    edges = [(i, j, rows[i, j]) for i in range(n) for j in range(n)]
    return matrix.build_transition(edges, n)


def ring_random_chain(n, degree, seed):
    """A directed ring plus ``degree`` uniform out-arcs per node (irreducible)."""
    rng = np.random.default_rng(seed)
    nodes = np.arange(n)
    src = np.concatenate([nodes, np.repeat(nodes, degree)])
    dst = np.concatenate([(nodes + 1) % n, rng.integers(0, n, size=n * degree)])
    return matrix.build_transition(np.column_stack([src, dst]).astype(float), n)


@contextlib.contextmanager
def advance_returns():
    """Patch ``pushloop.Loop.advance`` to record every return that took steps.

    Yields a list that gets one ``(gap, bound, exact)`` per such return:
    the gap between the loop's incremental ``||C||_1`` and the ``cash_l1``
    handed to the run, the loop's rounding bound on its value, and whether
    ``cash_l1`` is the exact sum ``float(np.abs(C).sum())``.
    """
    seen = []
    advance = pushloop.Loop.advance

    def watched(loop, state, *args):
        done = advance(loop, state, *args)
        if done:
            s = loop.state
            exact = state.cash_l1 == float(np.abs(state.C).sum())
            seen.append((abs(s.cash_l1 - state.cash_l1), s.l1_err, exact))
        return done

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pushloop.Loop, "advance", watched)
        yield seen


@contextlib.contextmanager
def exact_rows():
    """Patch ``engine.RunTrace.record`` to record, at every trace row, whether ``cash_l1`` is the exact sum."""
    rows = []
    record = engine.RunTrace.record

    def checked(trace, state):
        rows.append(state.cash_l1 == float(np.abs(state.C).sum()))
        record(trace, state)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine.RunTrace, "record", checked)
        yield rows


def within_bound(seen):
    """True when every return ``advance_returns`` saw handed back the exact sum, within the loop's bound."""
    return all(exact and gap <= bound for gap, bound, exact in seen)


# Clean, strongly connected draws of the 80-node block-model shape.
SBM80_SEEDS = (2, 3, 5, 6)


def sbm80_instance(seed=SBM80_SEEDS[0]):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return models.random_sbm([40, 40], 0.1, 0.005, seed)


_CORPUS_CANDIDATES = (
    "data/harvard500.edges",
    "harvard500.edges",
)


def pagerank_graph_500():
    """The 500-node web crawl when present, else a seeded 500-node graph."""
    for path in _CORPUS_CANDIDATES:
        if os.path.exists(path):
            return models.parse_edge_file(path, one_based=True)
    return models.random_sbm([250, 250], 0.03, 0.004, seed=7)


@pytest.fixture
def four_state():
    return models.four_state_chain()


@pytest.fixture
def comma_decimal_locale():
    """LC_NUMERIC set, for the test, to an installed locale whose decimal point is ","; skips where none is."""
    saved = locale.setlocale(locale.LC_NUMERIC)
    for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "ru_RU.UTF-8", "nl_NL.UTF-8"):
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
        except locale.Error:
            continue
        if locale.localeconv()["decimal_point"] == ",":
            break
    else:
        locale.setlocale(locale.LC_NUMERIC, saved)
        pytest.skip("no comma-decimal locale installed")
    try:
        yield
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)


@pytest.fixture(scope="session")
def kernel(tmp_path_factory):
    """The path a compiled-loop run must report: "c" whenever $CC can build a library."""
    d = tmp_path_factory.mktemp("probe")
    (d / "probe.c").write_text("int probe(void) { return 0; }\n")
    cc = shlex.split(os.environ.get("CC") or "cc")
    try:
        built = subprocess.run([*cc, "-shared", "-fPIC", "-o", str(d / "probe.so"), str(d / "probe.c")],
                               capture_output=True, timeout=120).returncode == 0
    except OSError:
        built = False
    return "c" if built else "py"
