"""The genetic-programming engine behind symbolic regression.

Multi-gene GP in the style of real symbolic-regression tools (and of the
multi-parameter performance-modeling approach of Chenna et al. [19]):

* an individual is a small set of expression trees ("genes");
* its prediction is ``b0 + b1*g1(X) + ... + bk*gk(X)`` with the
  coefficients solved per evaluation by (optionally relative-error
  weighted) least squares — GP only has to discover the *shapes*
  (``epr^3``, ``epr^2*sqrt(ranks)``, ``log(ranks)``, ...), never the
  scales;
* ramped half-and-half initialisation, tournament selection with
  parsimony pressure, high-level gene crossover plus subtree
  crossover/mutation/point mutation/constant jitter;
* a hall of fame scored on the *test* split (the paper's iterative
  train/test process);
* full determinism given ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from repro.models.symreg.expr import (
    BINARY_OPS,
    DEFAULT_BINARY,
    DEFAULT_UNARY,
    UNARY_OPS,
    Binary,
    Const,
    Expression,
    Unary,
    Var,
    _finite,
)

#: numpy's stacked least-squares gufunc, the one ``np.linalg.lstsq`` calls:
#: ``(a, b, rcond) -> (x, residuals, rank, singular values)``, one ``gelsd``
#: per matrix of a ``(..., m, n)`` stack
_lstsq = _umath_linalg.lstsq


def _rms_errors(A: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray) -> list[float]:
    """The weighted RMS residual ``sqrt(mean(((A[i] @ x[i] - y) * w)**2))``
    of each matrix of the ``(b, n, m)`` stack *A* with its ``(m, 1)``
    coefficients ``x[i]``; a non-finite error is ``1e30``.

    One stacked ``matmul`` and one row-wise mean: numpy runs the same
    ``gemv`` on each matrix as ``A[i] @ x[i]`` and the same pairwise sum on
    each row as ``mean``, so every row gets the bits of its own computation.
    """
    with np.errstate(all="ignore"):
        resid = (np.matmul(A, x)[:, :, 0] - y) * w
        errs = np.sqrt((resid**2).mean(axis=1)).tolist()
    return [e if math.isfinite(e) else 1e30 for e in errs]


@dataclass
class GPConfig:
    """Hyper-parameters for :class:`SymbolicRegressor`."""

    population_size: int = 300
    generations: int = 40
    tournament_k: int = 5
    p_crossover: float = 0.65
    p_subtree_mutation: float = 0.15
    p_point_mutation: float = 0.1
    p_const_jitter: float = 0.1
    max_depth: int = 5
    init_depth: tuple[int, int] = (1, 3)
    parsimony: float = 1e-4
    const_range: tuple[float, float] = (-5.0, 5.0)
    unary_ops: Sequence[str] = DEFAULT_UNARY
    binary_ops: Sequence[str] = DEFAULT_BINARY
    elitism: int = 2
    #: genes per individual; prediction is an OLS-fitted linear
    #: combination of the genes (1 = classic GP with linear scaling)
    n_genes: int = 4
    early_stop_nrmse: float = 1e-9
    #: "relative" weights residuals by 1/|y| (right choice when the target
    #: spans orders of magnitude); "nrmse" normalises by std(y)
    fitness: str = "relative"

    def __post_init__(self) -> None:
        probs = {
            "p_crossover": self.p_crossover,
            "p_subtree_mutation": self.p_subtree_mutation,
            "p_point_mutation": self.p_point_mutation,
            "p_const_jitter": self.p_const_jitter,
        }
        for name, p in probs.items():
            if not p >= 0:
                raise ValueError(f"{name} must be >= 0, got {p!r}")
        if sum(probs.values()) > 1.0 + 1e-9:
            raise ValueError("operator probabilities exceed 1")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations!r}")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")
        lo, hi = self.init_depth
        if not 1 <= lo <= hi:
            raise ValueError(f"init_depth must satisfy 1 <= lo <= hi, got {self.init_depth!r}")
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.n_genes < 1:
            raise ValueError("n_genes must be >= 1")
        if self.fitness not in ("nrmse", "relative"):
            raise ValueError(f"unknown fitness {self.fitness!r}")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError(f"elitism must be >= 0 and < population_size, got {self.elitism!r}")
        if not self.max_depth >= 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth!r}")
        if not (math.isfinite(self.parsimony) and self.parsimony >= 0):
            raise ValueError(f"parsimony must be finite and >= 0, got {self.parsimony!r}")
        if not self.early_stop_nrmse >= 0:
            raise ValueError(f"early_stop_nrmse must be >= 0, got {self.early_stop_nrmse!r}")
        lo, hi = self.const_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"const_range must be finite with lo <= hi, got {self.const_range!r}")
        if not self.binary_ops:
            raise ValueError("binary_ops must be non-empty")
        for ops, known in ((self.unary_ops, UNARY_OPS), (self.binary_ops, BINARY_OPS)):
            for op in ops:
                if op not in known:
                    raise ValueError(f"unknown operator {op!r}; known: {sorted(known)}")


@dataclass
class FitResult:
    """Outcome of a :meth:`SymbolicRegressor.fit` run."""

    expression: Expression
    train_nrmse: float
    test_nrmse: Optional[float]
    generations_run: int
    history: list[float] = field(default_factory=list)


class _Individual:
    """A multi-gene individual: genes plus lazily-fitted coefficients."""

    __slots__ = ("genes", "coeffs", "error", "fitness")

    def __init__(self, genes: list[Expression]):
        self.genes = genes
        self.coeffs: Optional[np.ndarray] = None
        self.error = float("inf")
        self.fitness = float("inf")

    def size(self) -> int:
        return sum(g.size() for g in self.genes)


class _Split:
    """One data split of a :meth:`SymbolicRegressor.fit` call.

    Memoises each gene's design-matrix column by ``str(gene)``, which is
    the tree's identity (:meth:`Expression.__eq__`): equal strings evaluate
    to identical columns, so a hit returns exactly what a fresh evaluation
    would.  A column is the gene's values with nan -> 0 and +-inf -> +-1e30
    (the rule of :func:`~repro.models.symreg.expr._finite`), broadcast to
    the split's length; a column that needs neither is not copied.
    """

    __slots__ = ("env", "y", "w", "columns")

    def __init__(self, env: dict, y: np.ndarray, w: np.ndarray) -> None:
        self.env = env
        self.y = y
        self.w = w
        self.columns: dict[str, np.ndarray] = {}

    def column(self, gene: Expression) -> np.ndarray:
        key = str(gene)
        col = self.columns.get(key)
        if col is None:
            col = np.asarray(gene.evaluate(self.env), dtype=float)
            if isinstance(gene, (Var, Const)):  # an operator's are finite
                col = _finite(col)
            if col.shape != self.y.shape:
                col = np.broadcast_to(col, self.y.shape)
            self.columns[key] = col
        return col

    def design_matrices(self, gene_lists: list[list[Expression]]) -> np.ndarray:
        """The ``(b, n, k + 1)`` stack of design matrices ``[1, g1(X), ..., gk(X)]``
        of *gene_lists*, ``b`` lists of ``k`` genes each."""
        cols = np.array([[self.column(g) for g in genes] for genes in gene_lists])
        A = np.empty((cols.shape[0], cols.shape[2], cols.shape[1] + 1))
        A[:, :, 0] = 1.0
        A[:, :, 1:] = cols.transpose(0, 2, 1)
        return A


class SymbolicRegressor:
    """Fits an :class:`Expression` to ``(X, y)`` data by genetic programming.

    Parameters
    ----------
    param_names:
        Column names of ``X`` — the variables available to the evolved
        expressions.
    config:
        Hyper-parameters; defaults are sized for the case-study problems
        (2 variables, tens of training points).
    seed:
        Seed for the engine's private RNG.
    """

    def __init__(
        self,
        param_names: Sequence[str],
        config: Optional[GPConfig] = None,
        seed: int = 0,
    ) -> None:
        if not param_names:
            raise ValueError("param_names must be non-empty")
        self.param_names = tuple(param_names)
        self.config = config or GPConfig()
        self.rng = np.random.default_rng(seed)
        self.result: Optional[FitResult] = None

    # -- tree generation ---------------------------------------------------------

    def _random_const(self) -> Const:
        lo, hi = self.config.const_range
        return Const(float(np.round(self.rng.uniform(lo, hi), 4)))

    def _random_leaf(self) -> Expression:
        if self.rng.random() < 0.75:
            return Var(self._pick(self.param_names))
        return self._random_const()

    def _random_tree(self, depth: int, full: bool) -> Expression:
        if depth <= 1 or (not full and self.rng.random() < 0.3):
            return self._random_leaf()
        if self.config.unary_ops and self.rng.random() < 0.25:
            op = self._pick(self.config.unary_ops)
            return Unary(op, self._random_tree(depth - 1, full))
        op = self._pick(self.config.binary_ops)
        return Binary(
            op,
            self._random_tree(depth - 1, full),
            self._random_tree(depth - 1, full),
        )

    def _random_individual(self, i: int) -> _Individual:
        lo, hi = self.config.init_depth
        depths = list(range(lo, hi + 1))
        ngenes = 1 + int(self.rng.integers(0, self.config.n_genes))
        genes = [
            self._random_tree(depths[(i + g) % len(depths)], full=(i + g) % 2 == 0)
            for g in range(ngenes)
        ]
        return _Individual(genes)

    # -- fitness --------------------------------------------------------------------

    def _check_split(self, name: str, X: np.ndarray, y: np.ndarray) -> None:
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"{name} split: X rows {X.shape[0]} != y rows {y.shape[0]}")
        if X.shape[1] != len(self.param_names):
            raise ValueError(
                f"{name} split: X has {X.shape[1]} columns for "
                f"{len(self.param_names)} parameters"
            )
        if y.shape[0] == 0:
            raise ValueError(f"{name} split is empty")
        # An infinite X is legal input: the protected operators and the
        # nan_to_num of every column keep the design matrices finite.  A NaN
        # X is missing data, and a non-finite y poisons every solve.
        bad_x = int(np.count_nonzero(np.isnan(X)))
        if bad_x:
            raise ValueError(f"{name} split: {bad_x} NaN entries in X")
        bad_y = int(np.count_nonzero(~np.isfinite(y)))
        if bad_y:
            raise ValueError(f"{name} split: {bad_y} non-finite entries in y")

    def _split(self, X: np.ndarray, y: np.ndarray) -> _Split:
        env = {name: X[:, j] for j, name in enumerate(self.param_names)}
        if self.config.fitness == "relative":
            w = 1.0 / np.maximum(np.abs(y), 1e-30)
        else:
            w = np.ones_like(y)
        return _Split(env, y, w)

    def _evaluate_all(self, inds: list[_Individual], train: _Split, scores: dict) -> None:
        """Solve each individual's gene coefficients by weighted least squares
        and score it.

        *scores* memoises ``(coeffs, error, fitness)`` by the genes' strings:
        an individual whose gene list was seen before gets the same result
        without another solve.  The unseen gene lists are solved with one
        call of the stacked ``lstsq`` gufunc per gene count.  The gufunc
        runs the same ``gelsd`` on each matrix as ``np.linalg.lstsq(rcond=None)``
        does on that matrix alone, and a matrix that fails comes back as NaN
        without touching its neighbours.  :func:`_rms_errors` scores the
        whole stack at once.
        """
        keys = [tuple(map(str, ind.genes)) for ind in inds]
        unseen: dict[int, dict[tuple[str, ...], _Individual]] = {}
        for key, ind in zip(keys, inds):
            if key not in scores:
                unseen.setdefault(len(key), {}).setdefault(key, ind)
        y, w = train.y, train.w
        for k, group in unseen.items():
            A = train.design_matrices([ind.genes for ind in group.values()])
            rcond = np.finfo(float).eps * max(A.shape[1], k + 1)
            with np.errstate(all="ignore"):
                x = _lstsq(A * w[None, :, None], (y * w)[:, None], rcond, signature="ddd->ddid")[0]
            errors = _rms_errors(A, x, y, w)
            finite = np.isfinite(x).all(axis=(1, 2)).tolist()
            coeffs = x[:, :, 0].copy()
            coeffs.setflags(write=False)  # each row is shared by every individual with its key
            for i, (key, ind) in enumerate(group.items()):
                if not finite[i]:
                    scores[key] = (None, 1e30, 1e30)
                    continue
                error = errors[i]
                scores[key] = (coeffs[i], error, error + self.config.parsimony * ind.size())
        for key, ind in zip(keys, inds):
            ind.coeffs, ind.error, ind.fitness = scores[key]

    @staticmethod
    def _score_on(ind: _Individual, split: _Split) -> float:
        """Error of an already-fitted individual on another split."""
        if ind.coeffs is None:
            return 1e30
        A = split.design_matrices([ind.genes])
        return _rms_errors(A, ind.coeffs[None, :, None], split.y, split.w)[0]

    # -- genetic operators -------------------------------------------------------------

    def _tournament(self, pop: list[_Individual], fit: Sequence[float]) -> _Individual:
        """The fittest of ``tournament_k`` draws from *pop*, whose fitness is
        *fit*; a tie goes to the first drawn."""
        idx = self.rng.integers(0, len(pop), size=self.config.tournament_k)
        return pop[min(idx.tolist(), key=fit.__getitem__)]

    def _pick(self, seq: Sequence):
        """``rng.choice(seq)``: the same ``integers`` draw, without the overhead."""
        return seq[int(self.rng.integers(0, len(seq)))]

    def _random_node_index(self, expr: Expression) -> int:
        return int(self.rng.integers(0, expr.size()))

    @staticmethod
    def _clone(ind: _Individual) -> _Individual:
        # Genes are immutable trees, so a clone shares them.
        return _Individual(list(ind.genes))

    def _crossover(self, a: _Individual, b: _Individual) -> _Individual:
        child = self._clone(a)
        if self.rng.random() < 0.4 and len(child.genes) >= 1:
            # High-level: replace or append a whole gene from b.
            donor = b.genes[int(self.rng.integers(0, len(b.genes)))]
            if (
                len(child.genes) < self.config.n_genes
                and self.rng.random() < 0.5
            ):
                child.genes.append(donor)
            else:
                child.genes[int(self.rng.integers(0, len(child.genes)))] = donor
            return child
        # Low-level: subtree crossover between random genes.
        gi = int(self.rng.integers(0, len(child.genes)))
        donor_gene = b.genes[int(self.rng.integers(0, len(b.genes)))]
        donor_sub = donor_gene.node_at(self._random_node_index(donor_gene))
        child.genes[gi] = self._enforce_depth(
            child.genes[gi].replace(self._random_node_index(child.genes[gi]), donor_sub)
        )
        return child

    def _subtree_mutation(self, a: _Individual) -> _Individual:
        child = self._clone(a)
        gi = int(self.rng.integers(0, len(child.genes)))
        sub = self._random_tree(int(self.rng.integers(1, 4)), full=False)
        child.genes[gi] = self._enforce_depth(
            child.genes[gi].replace(self._random_node_index(child.genes[gi]), sub)
        )
        return child

    def _point_mutation(self, a: _Individual) -> _Individual:
        child = self._clone(a)
        gi = int(self.rng.integers(0, len(child.genes)))
        gene = child.genes[gi]
        idx = self._random_node_index(gene)
        target = gene.node_at(idx)
        if isinstance(target, Binary):
            op = self._pick(self.config.binary_ops)
            child.genes[gi] = gene.replace(idx, Binary(op, target.left, target.right))
        elif isinstance(target, Unary) and self.config.unary_ops:
            op = self._pick(self.config.unary_ops)
            child.genes[gi] = gene.replace(idx, Unary(op, target.child))
        else:
            child.genes[gi] = gene.replace(idx, self._random_leaf())
        return child

    def _const_jitter(self, a: _Individual) -> _Individual:
        child = self._clone(a)
        gi = int(self.rng.integers(0, len(child.genes)))
        consts = child.genes[gi].constants()
        if not consts:
            return self._point_mutation(a)
        jittered = [
            c * float(self.rng.normal(1.0, 0.2)) + float(self.rng.normal(0, 0.01))
            for c in consts
        ]
        child.genes[gi] = child.genes[gi].with_constants(jittered)
        return child

    def _enforce_depth(self, expr: Expression) -> Expression:
        if expr.depth() <= self.config.max_depth + 1:
            return expr
        return self._random_tree(self.config.init_depth[1], full=False)

    # -- assembling the champion ---------------------------------------------------------

    @staticmethod
    def _to_expression(ind: _Individual) -> Expression:
        """Materialise ``b0 + sum(bi * gene_i)`` as one expression tree."""
        assert ind.coeffs is not None
        out: Expression = Const(float(ind.coeffs[0]))
        for b, gene in zip(ind.coeffs[1:], ind.genes):
            if b == 0.0:
                continue
            out = Binary("+", out, Binary("*", Const(float(b)), gene))
        return out.simplify()

    # -- main loop ------------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        X_test: Optional[np.ndarray] = None,
        y_test: Optional[np.ndarray] = None,
    ) -> FitResult:
        """Evolve an expression fitting ``X -> y``.

        ``X`` has one column per entry of :attr:`param_names`.  When a
        test split is supplied the returned champion is the hall-of-fame
        individual with the best *test* error, which is how the paper's
        tool selects its model each iteration.  An empty split, a NaN in an
        ``X``, a non-finite ``y`` or half a test split raises ``ValueError``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        self._check_split("train", X, y)
        # The memos live only as long as this call.
        train = self._split(X, y)
        if (X_test is None) != (y_test is None):
            raise ValueError("X_test and y_test must be given together")
        test = None
        if X_test is not None:
            X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
            y_test = np.asarray(y_test, dtype=float).ravel()
            self._check_split("test", X_test, y_test)
            test = self._split(X_test, y_test)
        scores: dict[tuple[str, ...], tuple] = {}

        cfg = self.config
        pop = [self._random_individual(i) for i in range(cfg.population_size)]
        self._evaluate_all(pop, train, scores)

        hof_ind: Optional[_Individual] = None
        hof_score = float("inf")
        history: list[float] = []
        gens_run = 0

        for gen in range(cfg.generations):
            gens_run = gen + 1
            pop.sort(key=lambda ind: ind.fitness)
            history.append(pop[0].error)

            # Hall of fame scored on the test split when available.
            for cand in pop[: max(cfg.elitism, 1)]:
                score = self._score_on(cand, test) if test is not None else cand.error
                if score < hof_score:
                    hof_score = score
                    hof_ind = cand

            if pop[0].error < cfg.early_stop_nrmse:
                break

            # A child's draws read only this generation's fitness, never a
            # sibling's, so the children are built first and scored together.
            fit = [ind.fitness for ind in pop]
            elite = pop[: cfg.elitism]
            children: list[_Individual] = []
            for _ in range(cfg.population_size - len(elite)):
                r = self.rng.random()
                parent = self._tournament(pop, fit)
                if r < cfg.p_crossover:
                    child = self._crossover(parent, self._tournament(pop, fit))
                elif r < cfg.p_crossover + cfg.p_subtree_mutation:
                    child = self._subtree_mutation(parent)
                elif r < cfg.p_crossover + cfg.p_subtree_mutation + cfg.p_point_mutation:
                    child = self._point_mutation(parent)
                elif r < (
                    cfg.p_crossover
                    + cfg.p_subtree_mutation
                    + cfg.p_point_mutation
                    + cfg.p_const_jitter
                ):
                    child = self._const_jitter(parent)
                else:
                    child = self._clone(parent)
                children.append(child)
            self._evaluate_all(children, train, scores)
            pop = elite + children

        if hof_ind is None:  # no generations ran
            hof_ind = min(pop, key=lambda ind: ind.fitness)
        best_expr = self._to_expression(hof_ind)
        result = FitResult(
            expression=best_expr,
            train_nrmse=hof_ind.error,
            test_nrmse=self._score_on(hof_ind, test) if test is not None else None,
            generations_run=gens_run,
            history=history,
        )
        self.result = result
        return result
