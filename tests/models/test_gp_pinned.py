"""Pinned outputs of the symbolic-regression engine.

Both cases compare bit-exact results with constants recorded before the GP
engine memoised fitness and shared subtrees between individuals.  They fail
if an RNG draw of :class:`SymbolicRegressor` is added, removed or
reordered, or if any float operation behind a score or a champion changes.

* the full-budget, seed-0 case-study fit that :func:`get_context` builds
  and every paper target consumes (Table III's models);
* a sweep of small fits over seeds, both fitness measures and a
  log-transformed target, on data that drives the protected operators to
  non-finite intermediates, so the ``nan_to_num`` path of evaluation is
  exercised as well as the finite fast path.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.exps.casestudy import get_context
from repro.models.symreg import GPConfig, SymbolicRegressor
from repro.models.symreg.expr import BINARY_OPS, UNARY_OPS

# -- the case-study models ---------------------------------------------------------

#: kernel -> (expression, noise_rel_std, (len, sha256[:16]) of the JSON
#: noise_factors, train MAPE hex, test MAPE hex)
CASE_MODELS = {
    "fti_l1": (
        "((((0.012917494387833026 + (4.097240062256935e-05 * ranks)) + (-0.001626799709871241 * (epr + epr))) + (0.00023277862578306857 * (epr * epr))) + (4.631223069790549e-08 * (sqrt(ranks) * square(square(epr)))))",
        0.26225761780346757,
        (190, "6428dce95768651e"),
        "0x1.0fde39a076592p+3",
        "0x1.268d3f5f32f17p+3",
    ),
    "fti_l2": (
        "((((0.020706744245862673 + (-0.00017423921147100853 * (-3.366527897530271 - (epr + ranks)))) + (-1.3281404500680491e-05 * ((epr * ranks) / sqrt((log(ranks) - epr))))) + (4.790497416855318e-07 * (square(epr) * square(epr)))) + (1.2533806303364264e-07 * (sqrt(ranks) * square(square(epr)))))",
        0.24690062108506447,
        (190, "9d2902a5f16edcff"),
        "0x1.deab0b732401ap+2",
        "0x1.aa811ab730aa6p+2",
    ),
    "lulesh_timestep": (
        "((((0.0010534589833339355 + (5.3847851656204186e-06 * (sqrt(epr) * square(epr)))) + (-0.0005782027292235651 * (epr / log(((ranks * epr) + (epr * 0.37166510577055195)))))) + (2.1290241591912553e-09 * (sqrt(ranks) * square((epr * epr))))) + (1.7436528042250127e-07 * ranks))",
        0.09207951356048863,
        (190, "a05b628eeae5af7e"),
        "0x1.0a725cf716674p+1",
        "0x1.17cb08be244b5p+1",
    ),
}


def test_case_study_models_are_pinned():
    fitted = get_context().dev.fitted
    assert sorted(fitted) == sorted(CASE_MODELS)
    for name, (expression, noise, (n_factors, factors_sha), train, test) in CASE_MODELS.items():
        fk = fitted[name]
        d = fk.model.to_dict()
        factors = d.pop("noise_factors")
        expected = {
            "type": "symreg",
            "expression": expression,
            "param_names": ["epr", "ranks"],
            "noise_rel_std": noise,
            "floor": 0.0,
        }
        assert d == expected, name
        assert len(factors) == n_factors
        assert hashlib.sha256(json.dumps(factors).encode()).hexdigest()[:16] == factors_sha
        assert (fk.train_mape.hex(), fk.test_mape.hex()) == (train, test), name


# -- a sweep of small fits ---------------------------------------------------------

SWEEP_GP = dict(population_size=40, generations=8, n_genes=2)


def sweep_data():
    """Train/test splits with a few extreme rows among ordinary ones.

    Squaring the train split's ``3e154`` overflows, dividing the test
    split's ``1e300`` by ``1e-100`` overflows, and the test split's ``inf``
    makes ``log`` non-finite.
    """
    rng = np.random.default_rng(20211)
    X = rng.uniform(0.5, 4.0, size=(24, 2))
    X = np.vstack([X, [[3e154, 1.0], [0.0, 0.0], [-3.0, 1e-200]]])
    Xt = rng.uniform(0.5, 4.0, size=(8, 2))
    Xt = np.vstack([Xt, [[np.inf, 1.5], [1e300, 1e-100]]])

    def f(X):
        with np.errstate(all="ignore"):
            return 2.0 + X[:, 0] * np.abs(X[:, 1]) + np.sqrt(np.abs(X[:, 0]))

    y, yt = f(X), f(Xt)
    y[-3] = 5.0
    yt[-2] = 4.0
    yt[-1] = 7.5
    return X, y, Xt, yt


#: (seed, fitness, log_target, champion, train nrmse hex, test nrmse hex,
#: generations_run)
SWEEP = [
    (
        0,
        "relative",
        False,
        "(2.7783819291331517 + (2.0015573823014288 * y))",
        "0x1.20cefde372d33p-2",
        "0x1.bfa49b0ef8624p-2",
        8,
    ),
    (
        0,
        "relative",
        True,
        "((0.7724900203362187 + (0.2534654566859173 * y)) + (0.32847324041880815 * (y / (y / x))))",
        "0x1.fa03fc0bd95c8p-5",
        "0x1.35bb33f07d6cfp-3",
        8,
    ),
    (
        0,
        "nrmse",
        False,
        "((3.345019415755652 + (1.068884513108229 * (y / (y / (x * y))))) + (-0.21930939905686692 * (y / (x * x))))",
        "0x1.26433ce0efa22p-2",
        "0x1.04da0cf3303fap+0",
        8,
    ),
    (
        0,
        "nrmse",
        True,
        "((1.6641589500050535 + (1.1267859910261557 * (y / 3.1585))) + (-0.3569863860714119 * ((y + y) / (x * y))))",
        "0x1.a327643cfe720p-3",
        "0x1.44cbcc7614307p-2",
        8,
    ),
    (
        1,
        "relative",
        False,
        "((2.522263859023891 + (0.11538806914313282 * y)) + (3.9818088883799616 * (y / (3.4869 / x))))",
        "0x1.d58135ba66977p-4",
        "0x1.c17b14c60cc46p-3",
        8,
    ),
    (
        1,
        "relative",
        True,
        "((1.3621430955184768 + (-0.09623657789827728 * (5.763591177973865 / (-2.9227806874982925 / x)))) + (0.04170177764565576 * square(y)))",
        "0x1.ee78085a78e54p-4",
        "0x1.277c5e21dc49cp-3",
        8,
    ),
    (
        1,
        "nrmse",
        False,
        "((3.4002179202392844 + (-0.4930764765297067 * sqrt((y / x)))) + (1.119102662685887 * (square(y) / (y / x))))",
        "0x1.20f1b336a786fp-2",
        "0x1.fbbca4565d0cbp-1",
        8,
    ),
    (
        1,
        "nrmse",
        True,
        "((1.2672649818923638 + (-0.09282828536009305 * (3.35952241 / (-3.0868 / (square(y) / (-3.0868 / x)))))) + (0.2388397137907458 * (square(y) / (y / x))))",
        "0x1.6b4490e0533bfp-4",
        "0x1.6c1033a889e51p-3",
        8,
    ),
    (
        2,
        "relative",
        False,
        "((2.310990555396121 + (3.496635706300547 * y)) + (0.07894784392050701 * ((2.504 * y) * (-2.7337 * y))))",
        "0x1.0611f917ff857p-2",
        "0x1.daeca39938a8ep-2",
        8,
    ),
    (
        2,
        "relative",
        True,
        "((4.373993653672691 + (-0.08296134032369296 * square(y))) + (-1.8710732890809891 * sqrt((y - 3.2403))))",
        "0x1.73958e5e52f4bp-3",
        "0x1.1b5d235586724p-2",
        8,
    ),
    (
        2,
        "nrmse",
        False,
        "((16.035525542600837 + (-2.9654233771125016 * (y / x))) + (3.876935502289628 * (y - 3.2403)))",
        "0x1.f6b78e16e2befp-1",
        "0x1.3bce19ff9c29cp+1",
        8,
    ),
    (
        2,
        "nrmse",
        True,
        "((3.664546783888248 + (-0.056780011707668 * square(y))) + (-1.2892098428292527 * sqrt((y - 3.2403))))",
        "0x1.125e62a384557p-2",
        "0x1.0d91b3ab80ff4p-1",
        8,
    ),
    (
        3,
        "relative",
        False,
        "((4.060571252789177 + (-2.2743758068402373 * (y / (y / (y / x))))) + (3.0172951175178797 * y))",
        "0x1.dd388b3ee2289p-4",
        "0x1.e63d16d5fdccdp-3",
        8,
    ),
    (
        3,
        "relative",
        True,
        "((1.2325813160773647 + (-0.4669100480409569 * (y / x))) + (0.6495552194658161 * y))",
        "0x1.13723c0ebfab4p-4",
        "0x1.f4d9dc09c87f9p-3",
        8,
    ),
    (
        3,
        "nrmse",
        False,
        "((3.2278699730183003 + (1.845844978778745 * (y / (1.6008007190386386 / x)))) + (-0.2230574483478666 * y))",
        "0x1.2b4eb01c7397cp-2",
        "0x1.aa2ff7f07cfccp-1",
        8,
    ),
    (
        3,
        "nrmse",
        True,
        "((0.859847219934861 + (0.301205381962919 * (y / (y / x)))) + (0.2398626046163439 * y))",
        "0x1.725714e17c893p-4",
        "0x1.23f5ef770dc3bp-2",
        8,
    ),
    (
        4,
        "relative",
        False,
        "((4.060571252789176 + (3.0172951175178815 * y)) + (-2.2743758068402373 * (y / (y / (y / x)))))",
        "0x1.dd388b3ee2288p-4",
        "0x1.e63d16d5fdcc8p-3",
        8,
    ),
    (
        4,
        "relative",
        True,
        "((0.7724900203362187 + (0.2534654566859173 * y)) + (0.32847324041880815 * (y / (y / x))))",
        "0x1.fa03fc0bd95c8p-5",
        "0x1.35bb33f07d6cfp-3",
        8,
    ),
    (
        4,
        "nrmse",
        False,
        "((2.458082986657209 + (-1.1537068216173143 * ((y * y) + (y / x)))) + (1.7528718076328498 * ((y * y) + (y / (y / x)))))",
        "0x1.87cf2849bee46p-1",
        "0x1.4d9f05b85456ep+0",
        8,
    ),
    (
        4,
        "nrmse",
        True,
        "((0.8598472199348612 + (0.2398626046163438 * y)) + (0.3012053819629191 * (y / (y / x))))",
        "0x1.725714e17c891p-4",
        "0x1.23f5ef770dc39p-2",
        8,
    ),
    (
        5,
        "relative",
        False,
        "((18.05486089267682 + (0.9884316112545631 * ((y + y) / (0.0511 - x)))) + (-0.3096942379027258 * square((y + -7.1110035655225605))))",
        "0x1.400982287da17p-3",
        "0x1.c0a0f4aadca64p-2",
        8,
    ),
    (
        5,
        "relative",
        True,
        "((1.4066593339157214 + (0.2687793133328576 * y)) + (0.029642529653582588 * ((-1.243 + y) / (0.0511 - x))))",
        "0x1.1c75b40e330cep-3",
        "0x1.b6b872c5187a4p-3",
        8,
    ),
    (
        5,
        "nrmse",
        False,
        "((2.090726699070945 + (-2.0543162187648623 * (4.325 / (x + x)))) + (6.872728829434833 * sqrt(sqrt(y))))",
        "0x1.a27c40f229b40p+0",
        "0x1.ed1be2288b6a6p+1",
        8,
    ),
    (
        5,
        "nrmse",
        True,
        "((1.18881943239395 + (-0.47349400842895767 * ((-1.243 + y) / x))) + (0.5221275637355847 * y))",
        "0x1.9aa7b738fc96ap-3",
        "0x1.7a43d94ff2c7ep-2",
        8,
    ),
    (
        6,
        "relative",
        False,
        "((2.6317317688515995 + (1.4229812229870091 * ((-3.298064244344895 / (-3.8805286063340025 / x)) * y))) + (0.0008152239348585681 * y))",
        "0x1.9c309aa8d3108p-4",
        "0x1.c26dbd26676c2p-3",
        8,
    ),
    (
        6,
        "relative",
        True,
        "(1.0234728110323141 + (0.4493916753889699 * y))",
        "0x1.920e38d73dba4p-3",
        "0x1.096e49b6d03a8p-2",
        8,
    ),
    (
        6,
        "nrmse",
        False,
        "((3.70224003255704 + (-0.6412760427833721 * ((y - -2.3702) + square(y)))) + (4.982865292631363 * y))",
        "0x1.f6c6c73d99cc1p+0",
        "0x1.0f6d94ebda64bp+2",
        8,
    ),
    (
        6,
        "nrmse",
        True,
        "((0.859847219934861 + (0.301205381962919 * (y / (y / x)))) + (0.2398626046163439 * y))",
        "0x1.725714e17c893p-4",
        "0x1.23f5ef770dc3bp-2",
        8,
    ),
    (
        7,
        "relative",
        False,
        "((2.579293678060417 + (0.5106060933405654 * ((sqrt(y) / x) / (x / -1.5579)))) + (2.466971576699239 * y))",
        "0x1.02d60905f1e4bp-2",
        "0x1.90e4336c326d5p-2",
        8,
    ),
    (
        7,
        "relative",
        True,
        "((0.7315988535754039 + (0.2876300449857889 * (sqrt(y) / (sqrt(y) / x)))) + (0.44790228654102876 * sqrt(y)))",
        "0x1.11161cdd6285fp-4",
        "0x1.5d6271e70b745p-3",
        8,
    ),
    (
        7,
        "nrmse",
        False,
        "((3.4730914345318133 + (-2.9654233771125345 * (y / x))) + (3.876935502289611 * y))",
        "0x1.f6b78e16e2bf0p-1",
        "0x1.3bce19ff9c2b5p+1",
        8,
    ),
    (
        7,
        "nrmse",
        True,
        "((1.308922958990946 + (-0.4460884645009895 * (y / x))) + (0.5991139033849989 * y))",
        "0x1.d395f5628222fp-4",
        "0x1.94a92b3972ccap-2",
        8,
    ),
]


def test_sweep_data_reaches_non_finite_intermediates():
    X, y, Xt, yt = sweep_data()
    assert np.isfinite(y).all() and np.isfinite(yt).all()
    with np.errstate(all="ignore"):
        assert not np.isfinite(UNARY_OPS["square"](X[:, 0])).all()
        assert not np.isfinite(BINARY_OPS["/"](Xt[:, 0], Xt[:, 1])).all()
        assert not np.isfinite(UNARY_OPS["log"](Xt[:, 0])).all()


@pytest.mark.parametrize(
    "seed,fitness,log_target,champion,train,test,gens",
    SWEEP,
    ids=[f"{s}-{f}-{'log' if lt else 'lin'}" for s, f, lt, *_ in SWEEP],
)
def test_gp_sweep_is_pinned(seed, fitness, log_target, champion, train, test, gens):
    X, y, Xt, yt = sweep_data()
    if log_target:
        y, yt = np.log(y), np.log(yt)
    cfg = GPConfig(fitness=fitness, **SWEEP_GP)
    with np.errstate(all="ignore"):
        res = SymbolicRegressor(("x", "y"), cfg, seed=seed).fit(X, y, Xt, yt)
    assert str(res.expression) == champion
    assert (res.train_nrmse.hex(), res.test_nrmse.hex()) == (train, test)
    assert res.generations_run == gens
