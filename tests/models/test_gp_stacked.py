"""The GP engine's shortcuts equal the per-individual code they replaced.

:meth:`SymbolicRegressor._evaluate_all` solves every unseen gene list of a
generation with one call of numpy's stacked ``lstsq`` gufunc per gene
count and scores each stack with one ``matmul`` and one row-wise mean
(``gp._rms_errors``); ``_Split.column`` copies a column only when it must;
trees are indexed with :meth:`Expression.node_at` and cached sizes and
depths instead of a walk; and :meth:`SymbolicRegressor._tournament` picks
with ``min`` over a fitness list built once per generation.
``test_gp_pinned.py`` holds whole fits to recorded constants; these tests
hold each part bit for bit to the code it replaced (one ``np.linalg.lstsq``,
``A @ coeffs`` and ``mean`` per matrix; ``nan_to_num`` of every column;
``list(walk())[i]``; a recursive depth; ``min`` over the drawn
individuals), including cases a pinned fit only meets by chance:
rank-deficient and ``1e30``-column matrices, a solve that fails, and ties
in a tournament.
"""

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from repro.models.symreg import GPConfig, SymbolicRegressor, gp
from repro.models.symreg.expr import Binary, Const, Unary, Var
from repro.models.symreg.gp import _Individual, _rms_errors

# -- the stacked least-squares solve -------------------------------------------------

X_SQ = Unary("square", Var("x"))
#: a gene pool over (x, y); on the data below ``square(x)`` overflows to the
#: ``+1e30`` of ``nan_to_num`` and ``0 - square(x)`` to ``-1e30``
POOL = [
    Var("x"),
    Var("y"),
    Unary("sqrt", Var("x")),
    Unary("log", Var("y")),
    Binary("*", Var("x"), Var("y")),
    Binary("/", Var("y"), Var("x")),
    X_SQ,
    Binary("-", Const(0.0), X_SQ),
]


def data():
    rng = np.random.default_rng(30)
    X = np.vstack([rng.uniform(0.5, 4.0, size=(20, 2)), [[3e154, 1.0], [2.0, 1e-3]]])
    y = 2.0 + 0.5 * X[:, 0] * X[:, 1] + np.sqrt(X[:, 0])
    return X, y


#: ``x`` plus a ``1e-9`` sliver of ``y``: nearly collinear with ``x``, so
#: the rank ``gelsd`` finds depends on ``rcond``
X_NEAR = Binary("+", Var("x"), Binary("*", Const(1e-9), Var("y")))


def gene_lists(k):
    """Random lists of *k* genes plus the hard cases: rank deficient (a
    constant gene duplicates the intercept, and for k >= 2 a gene is
    repeated), nearly rank deficient, and one holding the ``+1e30`` and
    ``-1e30`` columns."""
    rng = np.random.default_rng(k)
    lists = [[POOL[int(i)] for i in rng.integers(0, len(POOL), size=k)] for _ in range(12)]
    lists.append([Const(3.0)] + [Var("x")] * (k - 1))
    if k >= 2:
        lists.append([Var("x")] * k)
        lists.append([Var("x"), X_NEAR] + [Var("y")] * (k - 2))
    lists.append([X_SQ, Binary("-", Const(0.0), X_SQ), Var("y"), Var("x")][:k])
    return lists


def per_matrix_rms(A, coeffs, y, w):
    """The error the engine computed per individual before stacking."""
    resid = (A @ coeffs - y) * w
    err = float(np.sqrt(np.mean(resid**2)))
    return err if np.isfinite(err) else 1e30


def per_matrix_score(genes, X, y, w, parsimony):
    """What the engine computed before batching: one ``np.linalg.lstsq``
    per individual on a ``column_stack`` design matrix."""
    env = {"x": X[:, 0], "y": X[:, 1]}
    n = y.shape[0]
    cols = [np.ones(n)]
    for g in genes:
        col = np.broadcast_to(np.asarray(g.evaluate(env), dtype=float), (n,))
        cols.append(np.nan_to_num(col, nan=0.0, posinf=1e30, neginf=-1e30))
    A = np.column_stack(cols)
    try:
        coeffs, *_ = np.linalg.lstsq(A * w[:, None], y * w, rcond=None)
    except np.linalg.LinAlgError:
        return None, 1e30, 1e30
    if not np.all(np.isfinite(coeffs)):
        return None, 1e30, 1e30
    error = per_matrix_rms(A, coeffs, y, w)
    return coeffs, error, error + parsimony * sum(g.size() for g in genes)


def assert_same_score(ind, expected):
    coeffs, error, fitness = expected
    if coeffs is None:
        assert ind.coeffs is None
    else:
        assert ind.coeffs.tobytes() == coeffs.tobytes()
    assert (ind.error.hex(), ind.fitness.hex()) == (float(error).hex(), float(fitness).hex())


def test_the_stacked_lstsq_gufunc_is_there():
    # numpy 1.x split this gufunc into lstsq_m / lstsq_n; a numpy that
    # drops or reshapes it must fail here, not inside a fit
    assert gp._lstsq is _umath_linalg.lstsq
    assert gp._lstsq.signature == "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"
    assert "ddd->ddid" in gp._lstsq.types


@pytest.mark.parametrize("fitness", ["relative", "nrmse"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stacked_solve_equals_per_matrix_lstsq(k, fitness):
    X, y = data()
    cfg = GPConfig(fitness=fitness, n_genes=4)
    reg = SymbolicRegressor(("x", "y"), cfg)
    train = reg._split(X, y)
    lists = gene_lists(k)
    inds = [_Individual(list(genes)) for genes in lists]
    scores = {}
    with np.errstate(all="ignore"):
        reg._evaluate_all(inds, train, scores)
        expected = [per_matrix_score(g, X, y, train.w, cfg.parsimony) for g in lists]
    assert len(scores) == len({tuple(map(str, g)) for g in lists}) >= 8
    # the 1e30 columns reach the solve
    assert train.column(X_SQ).max() == 1e30
    for ind, exp in zip(inds, expected):
        assert_same_score(ind, exp)


def test_a_failed_solve_scores_worst_and_spares_its_neighbours():
    X, y = data()
    reg = SymbolicRegressor(("x", "y"))
    train = reg._split(X, y)
    poison = Const(7.0)
    train.columns[str(poison)] = np.full(y.shape[0], np.nan)  # gelsd fails on it
    lists = [[Var("x"), Var("y")], [poison, Var("y")], [Var("y"), Var("x")]]
    inds = [_Individual(list(genes)) for genes in lists]
    with np.errstate(all="ignore"):
        reg._evaluate_all(inds, train, {})
    assert (inds[1].coeffs, inds[1].error, inds[1].fitness) == (None, 1e30, 1e30)
    for i in (0, 2):
        assert_same_score(inds[i], per_matrix_score(lists[i], X, y, train.w, 1e-4))


def test_stacked_errors_equal_per_matrix_rms():
    rng = np.random.default_rng(37)
    for _ in range(600):
        b, n, m = int(rng.integers(1, 12)), int(rng.integers(1, 40)), int(rng.integers(1, 6))
        A = rng.normal(size=(b, n, m)) * 10.0 ** rng.integers(-3, 4, size=(b, 1, m))
        A[:, :, 0] = 1.0
        x = rng.normal(size=(b, m, 1))
        y = rng.normal(size=n)
        w = 1.0 / np.maximum(np.abs(y), 1e-30) if rng.random() < 0.5 else np.ones(n)
        if m > 1 and rng.random() < 0.3:  # the +-1e30 columns nan_to_num leaves
            A[int(rng.integers(0, b)), :, m - 1] = rng.choice([1e30, -1e30], size=n)
        if rng.random() < 0.2:  # a solve that failed comes back NaN
            x[int(rng.integers(0, b))] = np.nan
        coeffs = x[:, :, 0].copy()
        with np.errstate(all="ignore"):
            expected = [per_matrix_rms(A[i], coeffs[i], y, w) for i in range(b)]
        got = _rms_errors(A, x, y, w)
        assert [e.hex() for e in got] == [e.hex() for e in expected]


def test_seen_gene_lists_are_not_solved_again():
    X, y = data()
    reg = SymbolicRegressor(("x", "y"))
    train = reg._split(X, y)
    scores = {}
    first = _Individual([Var("x"), Var("y")])
    reg._evaluate_all([first], train, scores)
    again = [_Individual([Var("x"), Var("y")]), _Individual([Var("x"), Var("y")])]
    reg._evaluate_all(again, train, scores)
    assert all(ind.coeffs is first.coeffs for ind in again)
    assert not first.coeffs.flags.writeable


# -- columns -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "gene",
    [
        Const(2.5),
        Binary("+", Const(1.0), Const(2.0)),
        Binary("*", Const(1e300), Const(1e300)),
        Var("x"),
        Var("y"),
        Unary("sqrt", Var("x")),
        X_SQ,
        Binary("-", Const(0.0), X_SQ),
        Binary("/", Var("y"), Var("x")),
    ],
    ids=str,
)
def test_column_equals_nan_to_num_of_the_broadcast(gene):
    X, y = data()
    X[3] = [np.inf, -np.inf]  # Var columns that need nan_to_num themselves
    reg = SymbolicRegressor(("x", "y"))
    train = reg._split(X, y)
    with np.errstate(all="ignore"):
        col = train.column(gene)
        raw = np.asarray(gene.evaluate(train.env), dtype=float)
    old = np.nan_to_num(
        np.broadcast_to(raw, y.shape), nan=0.0, posinf=1e30, neginf=-1e30
    )
    assert col.dtype == old.dtype and col.shape == old.shape == y.shape
    assert col.tobytes() == old.tobytes()
    assert train.column(gene) is col


# -- tree indexing ---------------------------------------------------------------------


def seeded_trees():
    """Random trees, plus trees built from them by ``replace`` and
    ``with_constants``, whose rebuilt paths compute their own sizes."""
    trees = []
    for seed in range(60):
        reg = SymbolicRegressor(("x", "y"), seed=seed)
        a = reg._random_tree(1 + seed % 6, full=seed % 2 == 0)
        b = reg._random_tree(1 + (seed + 3) % 6, full=False)
        replaced = a.replace(reg._random_node_index(a), b)
        jittered = replaced.with_constants(c + 1.0 for c in replaced.constants())
        trees += [a, b, replaced, jittered]
    return trees


def recomputed_depth(node):
    return 1 + max((recomputed_depth(c) for c in node.children()), default=0)


def test_node_at_equals_the_walk():
    trees = seeded_trees()
    assert max(t.size() for t in trees) > 20
    for tree in trees:
        nodes = list(tree.walk())
        assert tree.size() == len(nodes)
        assert all(tree.node_at(i) is node for i, node in enumerate(nodes))
        for bad in (-1, len(nodes)):
            with pytest.raises(IndexError):
                tree.node_at(bad)


def test_cached_depth_equals_a_recomputed_depth():
    trees = seeded_trees()
    assert max(t.depth() for t in trees) >= 6
    for tree in trees:
        for node in tree.walk():
            assert node.depth() == recomputed_depth(node)


# -- the tournament ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize(
    "levels",
    [[1.0] * 9, [0.5, 0.25, 1.0, 0.25, 0.5, 1.0, 0.25, 0.5, 1.0]],
    ids=["all-equal", "three-levels"],
)
def test_tournament_tie_break_equals_min(k, levels):
    pop = [_Individual([Var("x")]) for _ in levels]
    for ind, f in zip(pop, levels):
        ind.fitness = f
    fit = list(levels)
    ties = 0
    for seed in range(300):
        reg = SymbolicRegressor(("x",), GPConfig(tournament_k=k), seed=seed)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, len(pop), size=k)
        expected = min((pop[int(i)] for i in idx), key=lambda ind: ind.fitness)
        ties += sum(levels[int(i)] == expected.fitness for i in idx) > 1
        assert reg._tournament(pop, fit) is expected
        assert reg.rng.bit_generator.state == rng.bit_generator.state
    assert ties > 100


def test_pick_draws_as_generator_choice():
    for seq in (("x", "y"), ("sqrt", "log", "square"), ("+", "-", "*", "/")):
        for seed in range(100):
            reg = SymbolicRegressor(("x",), seed=seed)
            rng = np.random.default_rng(seed)
            assert reg._pick(seq) == str(rng.choice(list(seq)))
            assert reg.rng.bit_generator.state == rng.bit_generator.state
