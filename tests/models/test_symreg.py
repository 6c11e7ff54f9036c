"""Tests for expression trees, the parser and the GP engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import BenchmarkDataset, CallableModel, ConstantModel, ScaledModel
from repro.models.symreg import (
    Binary,
    Const,
    GPConfig,
    ParseError,
    SymbolicRegressionModel,
    SymbolicRegressor,
    Unary,
    Var,
    parse_expression,
)


# -- expression trees ---------------------------------------------------------


def test_evaluate_simple():
    e = Binary("+", Binary("*", Const(2.0), Var("x")), Const(1.0))
    out = e.evaluate({"x": np.array([0.0, 1.0, 2.0])})
    assert out.tolist() == [1.0, 3.0, 5.0]


def test_protected_division():
    e = Binary("/", Const(1.0), Var("x"))
    out = e.evaluate({"x": np.array([0.0, 2.0])})
    assert np.all(np.isfinite(out))
    assert out[1] == pytest.approx(0.5)


def test_protected_log_sqrt():
    e = Unary("log", Var("x"))
    assert np.isfinite(e.evaluate({"x": np.array([0.0, -5.0])})).all()
    s = Unary("sqrt", Var("x"))
    assert s.evaluate({"x": np.array([-4.0])})[()] == pytest.approx(2.0)


def test_unknown_ops_rejected():
    with pytest.raises(ValueError):
        Unary("sin", Const(1.0))
    with pytest.raises(ValueError):
        Binary("%", Const(1.0), Const(2.0))


def test_size_depth_walk():
    e = Binary("+", Var("x"), Unary("sqrt", Const(4.0)))
    assert e.size() == 4
    assert e.depth() == 3
    assert len(list(e.walk())) == 4


def test_copy_is_deep():
    e = Binary("+", Var("x"), Const(1.0))
    c = e.copy()
    assert str(c) == str(e)
    assert c is not e and c.children()[0] is not e.children()[0]


def test_replace_by_preorder_index():
    e = Binary("+", Var("x"), Const(1.0))
    r = e.replace(2, Var("y"))  # index 2 is the Const
    assert str(r) == "(x + y)"
    r0 = e.replace(0, Const(9.0))
    assert str(r0) == "9.0"


def test_variables_and_constants():
    e = Binary("*", Var("a"), Binary("+", Const(2.0), Var("b")))
    assert e.variables() == {"a", "b"}
    assert e.constants() == [2.0]


def test_with_constants_preorder():
    e = Binary("+", Const(1.0), Binary("*", Const(2.0), Var("x")))
    e2 = e.with_constants([10.0, 20.0])
    assert e2.constants() == [10.0, 20.0]
    assert e.constants() == [1.0, 2.0]  # original untouched


def test_simplify_folds_constants():
    e = Binary("+", Const(2.0), Const(3.0))
    assert str(e.simplify()) == "5.0"
    e2 = Binary("*", Const(1.0), Var("x"))
    assert str(e2.simplify()) == "x"
    e3 = Binary("*", Const(0.0), Var("x"))
    assert str(e3.simplify()) == "0.0"
    e4 = Unary("neg", Unary("neg", Var("x")))
    assert str(e4.simplify()) == "x"


def _render(node):
    """``str(node)`` recomputed from scratch, bypassing the per-node cache."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        child = _render(node.child)
        return f"(-{child})" if node.op == "neg" else f"{node.op}({child})"
    left, right = _render(node.left), _render(node.right)
    if node.op in ("min", "max", "pow"):
        return f"{node.op}({left}, {right})"
    return f"({left} {node.op} {right})"


def _assert_caches_fresh(tree):
    for node in tree.walk():
        assert node.size() == sum(1 for _ in node.walk())
        assert str(node) == _render(node)


def test_rebuilding_operations_leave_their_input_unchanged():
    e = Binary(
        "+",
        Binary("*", Const(1.0), Var("x")),
        Unary("neg", Unary("neg", Binary("/", Const(2.0), Const(4.0)))),
    )
    before = str(e)
    outputs = [e.replace(i, Var("y")) for i in range(e.size())]
    outputs.append(e.with_constants([3.0, 5.0, 7.0]))
    outputs.append(e.simplify())
    assert [str(o) for o in outputs[-2:]] == ["((3.0 * x) + (-(-(5.0 / 7.0))))", "(x + 0.5)"]
    assert str(e) == _render(e) == before
    for tree in [e, *outputs]:
        _assert_caches_fresh(tree)


def test_replace_shares_untouched_subtrees():
    left = Binary("*", Const(2.0), Var("x"))
    right = Unary("sqrt", Var("y"))
    e = Binary("+", left, right)
    new = Var("z")
    r = e.replace(5, new)  # the Var under sqrt
    assert str(r) == "((2.0 * x) + sqrt(z))"
    assert r.left is left and r.right.child is new
    assert e.replace(e.size(), new) is e  # out of range: nothing to rebuild


def test_fit_leaves_every_evaluated_gene_unchanged():
    seen = []

    class Recording(SymbolicRegressor):
        def _evaluate_all(self, inds, train, scores):
            seen.extend((g, _render(g)) for ind in inds for g in ind.genes)
            super()._evaluate_all(inds, train, scores)

    rng = np.random.default_rng(6)
    X = rng.uniform(1, 5, size=(20, 2))
    y = X[:, 0] ** 2 / X[:, 1]
    cfg = quick_config(population_size=40, generations=6, n_genes=3)
    res = Recording(("a", "b"), config=cfg, seed=2).fit(X, y)
    assert len(seen) > cfg.population_size * cfg.generations
    for gene, rendered in seen:
        assert str(gene) == rendered
        _assert_caches_fresh(gene)
    _assert_caches_fresh(res.expression)


def test_invalid_var_name():
    with pytest.raises(ValueError):
        Var("2bad")


def test_missing_variable_raises():
    with pytest.raises(KeyError):
        Var("x").evaluate({"y": np.array([1.0])})


# -- parser ---------------------------------------------------------------------


def test_parse_round_trip_simple():
    for text in [
        "(x + 1)",
        "((2 * x) - (y / 3))",
        "sqrt((x * x))",
        "log(x)",
        "(-x)",
        "pow(x, 2)",
        "min(x, y)",
        "1e-05",
        "(x + 1.5e2)",
    ]:
        e = parse_expression(text)
        e2 = parse_expression(str(e))
        env = {"x": np.array([1.7]), "y": np.array([3.2])}
        assert e.evaluate(env) == pytest.approx(e2.evaluate(env))


def test_parse_precedence():
    e = parse_expression("1 + 2 * 3")
    assert float(e.evaluate({})) == 7.0
    e = parse_expression("(1 + 2) * 3")
    assert float(e.evaluate({})) == 9.0
    e = parse_expression("8 - 4 - 2")  # left associative
    assert float(e.evaluate({})) == 2.0


def test_parse_errors():
    for bad in ["", "x +", "(x", "foo(x)", "sqrt(x, y)", "x $ y", "1 2"]:
        with pytest.raises(ParseError):
            parse_expression(bad)


@st.composite
def random_expr(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Const(draw(st.floats(min_value=-10, max_value=10, allow_nan=False)))
        return Var(draw(st.sampled_from(["x", "y"])))
    if draw(st.booleans()):
        op = draw(st.sampled_from(["sqrt", "log", "neg", "square"]))
        return Unary(op, draw(random_expr(depth=depth + 1)))
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    return Binary(
        op, draw(random_expr(depth=depth + 1)), draw(random_expr(depth=depth + 1))
    )


@settings(max_examples=60)
@given(random_expr())
def test_parser_round_trip_property(e):
    env = {"x": np.array([0.5, 2.0, -1.0]), "y": np.array([1.0, -3.0, 4.0])}
    e2 = parse_expression(str(e))
    np.testing.assert_allclose(
        np.broadcast_to(e.evaluate(env), (3,)),
        np.broadcast_to(e2.evaluate(env), (3,)),
        rtol=1e-12,
    )


# -- GP engine ---------------------------------------------------------------------


def quick_config(**kw):
    defaults = dict(population_size=120, generations=25, parsimony=2e-3)
    defaults.update(kw)
    return GPConfig(**defaults)


def test_gp_recovers_linear_formula():
    rng = np.random.default_rng(0)
    X = rng.uniform(1, 10, size=(40, 2))
    y = 3.0 * X[:, 0] + X[:, 1]
    reg = SymbolicRegressor(("a", "b"), config=quick_config(), seed=1)
    res = reg.fit(X, y)
    assert res.train_nrmse < 0.05
    pred = res.expression.evaluate({"a": X[:, 0], "b": X[:, 1]})
    np.testing.assert_allclose(np.broadcast_to(pred, y.shape), y, rtol=0.2)


def test_gp_recovers_product():
    rng = np.random.default_rng(1)
    X = rng.uniform(1, 5, size=(50, 2))
    y = X[:, 0] * X[:, 1]
    reg = SymbolicRegressor(("a", "b"), config=quick_config(), seed=2)
    res = reg.fit(X, y)
    assert res.train_nrmse < 0.05


def test_gp_uses_test_split_for_champion():
    rng = np.random.default_rng(2)
    X = rng.uniform(1, 10, size=(30, 1))
    y = 2 * X[:, 0] ** 2
    Xt = rng.uniform(1, 10, size=(10, 1))
    yt = 2 * Xt[:, 0] ** 2
    reg = SymbolicRegressor(("x",), config=quick_config(), seed=3)
    res = reg.fit(X, y, Xt, yt)
    assert res.test_nrmse is not None
    assert res.test_nrmse < 0.1


def test_gp_deterministic_given_seed():
    rng = np.random.default_rng(3)
    X = rng.uniform(1, 10, size=(20, 1))
    y = X[:, 0] + 1
    cfg = quick_config(population_size=60, generations=8)
    r1 = SymbolicRegressor(("x",), config=cfg, seed=7).fit(X, y)
    r2 = SymbolicRegressor(("x",), config=cfg, seed=7).fit(X, y)
    assert str(r1.expression) == str(r2.expression)


def test_gp_input_validation():
    reg = SymbolicRegressor(("x",), config=quick_config())
    with pytest.raises(ValueError):
        reg.fit(np.ones((3, 2)), np.ones(3))
    with pytest.raises(ValueError):
        reg.fit(np.ones((3, 1)), np.ones(4))
    with pytest.raises(ValueError):
        SymbolicRegressor(())


def test_gp_config_validation():
    with pytest.raises(ValueError):
        GPConfig(p_crossover=0.9, p_subtree_mutation=0.2)
    with pytest.raises(ValueError):
        GPConfig(population_size=2)
    # the jitter probability counts toward the total
    with pytest.raises(ValueError, match="exceed 1"):
        GPConfig(p_const_jitter=0.5)
    with pytest.raises(ValueError, match="p_crossover must be >= 0"):
        GPConfig(p_crossover=-0.5)
    with pytest.raises(ValueError, match="p_const_jitter must be >= 0"):
        GPConfig(p_const_jitter=-0.1)
    with pytest.raises(ValueError, match="tournament_k"):
        GPConfig(tournament_k=0)
    for depth in ((0, 3), (3, 1)):
        with pytest.raises(ValueError, match="init_depth"):
            GPConfig(init_depth=depth)
    # boundary values stay accepted
    GPConfig(tournament_k=1, init_depth=(2, 2), p_crossover=0.0, p_const_jitter=0.25)


BAD_GP_SETTINGS = [
    ("elitism", -1, "elitism"),
    ("elitism", 300, "elitism"),
    ("max_depth", 0, "max_depth"),
    ("parsimony", float("nan"), "parsimony"),
    ("parsimony", -1e-4, "parsimony"),
    ("early_stop_nrmse", float("nan"), "early_stop_nrmse"),
    ("early_stop_nrmse", -1.0, "early_stop_nrmse"),
    ("const_range", (5.0, -5.0), "const_range"),
    ("const_range", (-5.0, float("inf")), "const_range"),
    ("binary_ops", (), "binary_ops"),
    ("unary_ops", ("cube",), "'cube'"),
    ("binary_ops", ("+", "^"), r"'\^'"),
    ("p_crossover", float("nan"), "p_crossover"),
    ("p_point_mutation", float("nan"), "p_point_mutation"),
    ("generations", -1, "generations"),
]


@pytest.mark.parametrize(
    "name,value,match", BAD_GP_SETTINGS, ids=[f"{n}={v}" for n, v, _ in BAD_GP_SETTINGS]
)
def test_gp_config_rejects_settings_that_fail_or_mislead_mid_fit(name, value, match):
    with pytest.raises(ValueError, match=match):
        GPConfig(**{name: value})


def test_gp_config_boundary_settings_still_fit():
    cfg = quick_config(
        population_size=8,
        generations=2,
        elitism=0,
        max_depth=1,
        parsimony=0.0,
        early_stop_nrmse=0.0,
        const_range=(1.0, 1.0),
        unary_ops=(),
        binary_ops=("pow",),
    )
    X = np.arange(1, 6, dtype=float).reshape(-1, 1)
    res = SymbolicRegressor(("x",), config=cfg, seed=0).fit(X, 2 * X[:, 0])
    assert res.generations_run == 2


@pytest.mark.parametrize(
    "split,field,value,match",
    [
        ("train", "y", np.nan, "train split: 1 non-finite entries in y"),
        ("train", "y", -np.inf, "train split: 1 non-finite entries in y"),
        ("train", "X", np.nan, "train split: 1 NaN entries in X"),
        ("test", "y", np.inf, "test split: 1 non-finite entries in y"),
        ("test", "X", np.nan, "test split: 1 NaN entries in X"),
    ],
    ids=["train-y-nan", "train-y-inf", "train-X-nan", "test-y-inf", "test-X-nan"],
)
def test_gp_fit_rejects_non_finite_data(split, field, value, match):
    X = np.arange(1, 11, dtype=float).reshape(-1, 1)
    data = {"train": {"X": X, "y": X[:, 0] + 1}, "test": {"X": X[:4].copy(), "y": X[:4, 0] + 1}}
    data[split][field] = data[split][field].copy()
    data[split][field][2] = value  # X[2] is a 1-element row
    reg = SymbolicRegressor(("x",), config=quick_config())
    with pytest.raises(ValueError, match=match):
        reg.fit(data["train"]["X"], data["train"]["y"], data["test"]["X"], data["test"]["y"])


def test_gp_fit_rejects_empty_data():
    reg = SymbolicRegressor(("x", "y"), config=quick_config())
    with pytest.raises(ValueError, match="train split is empty"):
        reg.fit(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="test split is empty"):
        reg.fit(np.ones((3, 2)), np.ones(3), np.empty((0, 2)), np.empty(0))


def test_gp_fit_rejects_half_a_test_split():
    X = np.arange(1, 11, dtype=float).reshape(-1, 1)
    reg = SymbolicRegressor(("x",), config=quick_config())
    with pytest.raises(ValueError, match="given together"):
        reg.fit(X, X[:, 0], X_test=X[:3])
    with pytest.raises(ValueError, match="given together"):
        reg.fit(X, X[:, 0], y_test=X[:3, 0])


def test_gp_fit_accepts_an_infinite_x():
    # the protected operators and nan_to_num keep every column finite
    X = np.vstack([np.arange(1, 10, dtype=float).reshape(-1, 1), [[np.inf]]])
    y = np.arange(1, 11, dtype=float)
    cfg = quick_config(population_size=20, generations=3)
    res = SymbolicRegressor(("x",), config=cfg, seed=0).fit(X, y)
    assert np.isfinite(res.train_nrmse)


def test_gp_early_stop_on_exact_fit():
    X = np.arange(1, 11, dtype=float).reshape(-1, 1)
    y = X[:, 0]
    cfg = quick_config(generations=100)
    res = SymbolicRegressor(("x",), config=cfg, seed=0).fit(X, y)
    assert res.generations_run < 100


def test_gp_respects_depth_bound():
    rng = np.random.default_rng(4)
    X = rng.uniform(1, 10, size=(25, 2))
    y = X[:, 0] ** 2 + X[:, 1]
    cfg = quick_config(max_depth=4, generations=10, n_genes=3)
    reg = SymbolicRegressor(("a", "b"), config=cfg, seed=5)
    res = reg.fit(X, y)
    # combined tree = linear combination of <= n_genes genes, each depth-bounded
    assert res.expression.depth() <= (cfg.max_depth + 2) + 2 * cfg.n_genes


def test_gp_n_genes_validation():
    with pytest.raises(ValueError):
        GPConfig(n_genes=0)
    with pytest.raises(ValueError):
        GPConfig(fitness="mape")


# -- SymbolicRegressionModel ----------------------------------------------------------


def test_model_predicts_and_checks_params():
    m = SymbolicRegressionModel("(2 * x + y)", ("x", "y"))
    assert m.predict({"x": 3, "y": 4}) == pytest.approx(10.0)
    from repro.models import ModelError

    with pytest.raises(ModelError):
        m.predict({"x": 3})


def test_model_rejects_unknown_variables():
    from repro.models import ModelError

    with pytest.raises(ModelError):
        SymbolicRegressionModel("(x + z)", ("x",))


def test_model_noise_draws():
    m = SymbolicRegressionModel("(10 * x)", ("x",), noise_rel_std=0.1)
    rng = np.random.default_rng(0)
    vals = np.array([m.predict({"x": 1}, rng) for _ in range(2000)])
    assert vals.std() > 0
    assert vals.mean() == pytest.approx(10.0, rel=0.03)
    # no rng -> deterministic
    assert m.predict({"x": 1}) == 10.0


def test_model_floor():
    m = SymbolicRegressionModel("(x - 100)", ("x",), floor=0.5)
    assert m.predict({"x": 1}) == 0.5


NON_FINITE_MODELS = {
    "noise_rel_std": lambda v: SymbolicRegressionModel("x", ("x",), noise_rel_std=v),
    "noise_factors": lambda v: SymbolicRegressionModel("x", ("x",), noise_factors=[1.0, v]),
    "floor": lambda v: SymbolicRegressionModel("x", ("x",), floor=v),
    "value": ConstantModel,
    "factor": lambda v: ScaledModel(ConstantModel(1.0), v),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_MODELS))
def test_models_refuse_non_finite_parameters(field, value):
    # accepted, each would turn every Monte-Carlo prediction NaN or infinite
    with pytest.raises(ValueError, match=field):
        NON_FINITE_MODELS[field](value)


@pytest.mark.parametrize(
    "model",
    [
        SymbolicRegressionModel("(x - 2)", ("x",), noise_factors=[0.5, 1.0, 3.0, 0.0]),
        SymbolicRegressionModel("(x - 2)", ("x",), noise_factors=[2.0], floor=0.25),
        SymbolicRegressionModel("(3 * x)", ("x",)),
        ScaledModel(SymbolicRegressionModel("x", ("x",), noise_factors=[0.9, 1.7]), 0.3),
        ConstantModel(0.7),
    ],
)
@pytest.mark.parametrize("x", [1.0, 2.5])
def test_price_table_lists_what_predict_draws(model, x):
    """``predict(p, rng)`` returns ``table[rng.integers(0, len(table))]``,
    drawn from the same stream state (a one-entry table draws nothing)."""
    table = model.price_table({"x": x})
    scalar, block = np.random.default_rng(5), np.random.default_rng(5)
    drawn = [model.predict({"x": x}, scalar) for _ in range(40)]
    assert drawn == table[block.integers(0, np.full(40, len(table)))].tolist()
    assert scalar.bit_generator.state == block.bit_generator.state


def test_price_table_is_none_for_noise_that_is_no_table_draw():
    assert SymbolicRegressionModel("x", ("x",), noise_rel_std=0.1).price_table({"x": 1}) is None
    assert CallableModel(lambda p: 1.0).price_table({}) is None
    assert ScaledModel(CallableModel(lambda p: 1.0), 2.0).price_table({}) is None


def test_model_serialization_roundtrip():
    m = SymbolicRegressionModel("((2 * x) + sqrt(y))", ("x", "y"), noise_rel_std=0.05)
    m2 = SymbolicRegressionModel.from_dict(m.to_dict())
    p = {"x": 2.5, "y": 9.0}
    assert m2.predict(p) == pytest.approx(m.predict(p))
    assert m2.noise_rel_std == m.noise_rel_std


def test_fit_dataset_end_to_end():
    rng = np.random.default_rng(8)
    ds = BenchmarkDataset(("n",), kernel="toy")
    for n in range(1, 13):
        for _ in range(3):
            ds.add_sample({"n": n}, 5.0 * n + rng.normal(0, 0.05))
    train, test = ds.split(0.25, seed=0)
    m = SymbolicRegressionModel.fit_dataset(
        train, test, config=quick_config(), seed=0
    )
    for n in (2, 7, 11):
        assert m.predict({"n": n}) == pytest.approx(5.0 * n, rel=0.15)
    assert m.noise_rel_std >= 0
