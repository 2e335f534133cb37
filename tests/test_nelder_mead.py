import math

import numpy as np
import pytest

from splitcut.optimizers import NelderMead


class _ReferenceNelderMead:
    # The search on one (n + 1, n) array, as first written: np.repeat
    # simplex, a stable argsort, mean(axis=0) and rows written in place.
    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float)
        self.simplex = np.repeat(x0[None], len(x0) + 1, axis=0)
        for i in range(len(x0)):
            self.simplex[i + 1, i] += NelderMead.STEP
        self.values = np.empty(0)
        self.move = None  # the branch the last step took

    @property
    def x(self):
        return self.simplex[int(self.values.argmax()) if len(self.values) else 0].copy()

    def step(self, objective):
        evals = []

        def f(x):
            v = float(objective(x))
            evals.append((x, v))
            return v

        simplex, values = self.simplex, self.values
        if not len(values):
            self.values = np.array([f(p) for p in simplex.copy()])
            self.move = "start"
            return evals
        order = values.argsort(kind="stable")
        worst, second_worst, best = order[[0, 1, -1]].tolist()
        centroid = simplex[order[1:]].mean(axis=0)
        away = centroid - simplex[worst]
        reflected = centroid + away
        f_r = f(reflected)
        if f_r > values[best]:
            expanded = centroid + 2.0 * away
            f_e = f(expanded)
            if f_e > f_r:
                simplex[worst], values[worst] = expanded, f_e
            else:
                simplex[worst], values[worst] = reflected, f_r
            self.move = "expand"
        elif f_r > values[second_worst]:
            simplex[worst], values[worst] = reflected, f_r
            self.move = "reflect"
        else:
            contracted = centroid + 0.5 * (simplex[worst] - centroid)
            f_c = f(contracted)
            if f_c > values[worst]:
                simplex[worst], values[worst] = contracted, f_c
                self.move = "contract"
            else:
                self.move = "shrink"
                shrunk = simplex[best] + 0.5 * (simplex - simplex[best])
                for i in range(len(simplex)):
                    if i != best:
                        simplex[i], values[i] = shrunk[i], f(shrunk[i])
        return evals


def _hex(x) -> list[str]:
    return [float(v).hex() for v in x]


def _ripple(x):
    return math.sin(3.0 * x[0]) + float(np.cos(2.0 * x).sum()) - 0.05 * float(x @ x)


def _plateaus(x):
    # rounded values tie often, so the stable order picks the vertices
    return round(2.0 * _ripple(x)) / 2.0


def _drifting(k):
    # step k's objective, as a split run alternates flavors: values measured
    # on earlier steps go stale, which drives contractions and shrinks
    return lambda x: _ripple(x) + 0.5 * math.sin(2.5 * k)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("signed_zero", [False, True])
def test_matches_the_per_step_array_reference(n, signed_zero):
    # every point, value and x of 160 steps on each objective equal the
    # array form's as float hex, and the steps take every branch
    x0 = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
    if signed_zero:
        x0[::2], x0[1::2] = -0.0, 0.0
    moves = set()
    for objective in (lambda k: _ripple, lambda k: _plateaus, _drifting):
        opt, ref = NelderMead(x0), _ReferenceNelderMead(x0)
        assert _hex(opt.x) == _hex(ref.x)
        for k in range(160):
            f = objective(k)
            got, want = opt.step(f), ref.step(f)
            assert [(_hex(x), v.hex()) for x, v in got] == [(_hex(x), v.hex()) for x, v in want]
            assert all(type(x) is np.ndarray and x.dtype == float for x, _ in got)
            assert opt.x.dtype == float and _hex(opt.x) == _hex(ref.x)
            moves.add(ref.move)
    assert moves == {"start", "reflect", "expand", "contract", "shrink"}


def test_keeps_signed_zeros_through_a_flat_objective():
    # every value ties, so each step shrinks towards the last vertex; -0.0
    # coordinates must stay -0.0 where numpy keeps them
    x0 = np.array([-0.0, 0.0, -0.0, -0.0])
    opt, ref = NelderMead(x0), _ReferenceNelderMead(x0)
    for _ in range(150):
        got, want = opt.step(lambda _: 1.0), ref.step(lambda _: 1.0)
        assert [_hex(x) for x, _ in got] == [_hex(x) for x, _ in want]
        assert _hex(opt.x) == _hex(ref.x)
