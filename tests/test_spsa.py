import math

import numpy as np
import pytest

from splitcut.optimizers import Spsa


def _reference_spsa_step(x, k, rng, objective):
    # one SPSA step as first written: a fresh draw of n signs per step and
    # numpy arithmetic; returns the step's two evaluations and the next x
    ak = Spsa.a / (Spsa.A + k + 1) ** Spsa.alpha
    ck = Spsa.c / (k + 1) ** Spsa.gamma
    delta = rng.integers(0, 2, size=x.shape) * 2 - 1
    shift = ck * delta
    x_plus, x_minus = x + shift, x - shift
    f_plus, f_minus = float(objective(x_plus)), float(objective(x_minus))
    grad = (f_plus - f_minus) / (2.0 * ck) * delta
    return [(x_plus, f_plus), (x_minus, f_minus)], x + ak * grad


def _bits(evals):
    return [(x.tobytes(), f.hex()) for x, f in evals]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_spsa_matches_the_per_step_reference_across_blocks(n):
    # 150 steps cross more than one block of drawn signs; every point, value
    # and x must equal the reference's bit for bit, signed zeros included
    def objective(x):
        return math.sin(3.0 * x[0]) + float(np.cos(x).sum()) - 0.1 * float(x @ x)

    x0 = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
    opt, rng, x = Spsa(x0, np.random.default_rng(100 + n)), np.random.default_rng(100 + n), x0
    for k in range(150):
        got = opt.step(objective)
        want, x = _reference_spsa_step(x, k, rng, objective)
        assert all(type(p) is np.ndarray and p.dtype == float for p, _ in got)
        assert _bits(got) == _bits(want)
        assert opt.x.dtype == float and opt.x.tobytes() == x.tobytes()


def test_spsa_keeps_signed_zeros_of_a_flat_objective():
    # a constant objective gives a zero gradient: x + ak * (0.0 * -1) keeps
    # -0.0 at -0.0, as numpy's arithmetic does
    x0 = np.array([-0.0, 0.0, -0.0, 0.0])
    opt, rng, x = Spsa(x0, np.random.default_rng(7)), np.random.default_rng(7), x0
    for k in range(70):
        got = opt.step(lambda _: 1.0)
        want, x = _reference_spsa_step(x, k, rng, lambda _: 1.0)
        assert _bits(got) == _bits(want) and opt.x.tobytes() == x.tobytes()
