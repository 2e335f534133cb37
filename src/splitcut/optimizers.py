"""Derivative-free maximizers with explicit per-iteration stepping.

The split-iteration engine swaps the objective between backends from one
iteration to the next, so these optimizers expose a ``step(objective)``
method instead of a closed run loop: every objective evaluation triggered
by one step call belongs to that step. Both maximize; internally they walk
downhill on the negated objective. Neither takes tuning arguments: SPSA's
gain schedule (Spall, IEEE TAC 37(3), 1992) and the Nelder-Mead simplex
size are class constants, the same for every run.
"""
from __future__ import annotations

import numpy as np


class Spsa:
    """Simultaneous perturbation stochastic approximation.

    Gain schedules a_k = a / (A + k + 1)^alpha and c_k = c / (k + 1)^gamma
    with a Rademacher perturbation; exactly two objective evaluations per
    step. Noise-robust, so it is the default for shot-sampled objectives.
    The gains are fixed class constants, so the schedule is public.
    """

    EVALS_PER_STEP = 2
    a, c, A, alpha, gamma = 0.4, 0.1, 5.0, 0.602, 0.101

    def __init__(self, x0, rng: np.random.Generator):
        self.x = np.asarray(x0, dtype=float).copy()
        self.rng = rng
        self.k = 0

    def step(self, objective) -> list[tuple[np.ndarray, float]]:
        ak = self.a / (self.A + self.k + 1) ** self.alpha
        ck = self.c / (self.k + 1) ** self.gamma
        delta = self.rng.integers(0, 2, size=self.x.shape) * 2 - 1
        shift = ck * delta
        x_plus = self.x + shift
        x_minus = self.x - shift
        f_plus = float(objective(x_plus))
        f_minus = float(objective(x_minus))
        grad = (f_plus - f_minus) / (2.0 * ck) * delta
        self.x = self.x + ak * grad
        self.k += 1
        return [(x_plus, f_plus), (x_minus, f_minus)]


class NelderMead:
    """Classic simplex search (reflection/expansion/contraction/shrink).

    The initial simplex is x0 and x0 offset by ``STEP`` along each axis, in
    axis order. The first step only evaluates it, so those evaluations land
    on iteration 0's objective, and until then ``x`` is x0. Intended for
    ideal backends; simplex values measured on earlier iterations'
    objectives are reused as-is.
    """

    STEP = 0.3

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float)
        self.simplex = [x0.copy() for _ in range(len(x0) + 1)]
        for i, p in enumerate(self.simplex[1:]):
            p[i] += self.STEP
        self.values: list[float] = []

    @property
    def x(self) -> np.ndarray:
        return self.simplex[int(np.argmax(self.values))] if self.values else self.simplex[0]

    def step(self, objective) -> list[tuple[np.ndarray, float]]:
        evals: list[tuple[np.ndarray, float]] = []

        def f(x) -> float:
            v = float(objective(x))
            evals.append((x, v))
            return v

        if not self.values:
            self.values = [f(p) for p in self.simplex]
            return evals
        order = np.argsort(self.values)  # ascending: worst first under maximization
        worst, second_worst, best = order[0], order[1], order[-1]
        centroid = np.mean([self.simplex[i] for i in order[1:]], axis=0)
        reflected = centroid + (centroid - self.simplex[worst])
        f_r = f(reflected)
        if f_r > self.values[best]:
            expanded = centroid + 2.0 * (centroid - self.simplex[worst])
            f_e = f(expanded)
            if f_e > f_r:
                self.simplex[worst], self.values[worst] = expanded, f_e
            else:
                self.simplex[worst], self.values[worst] = reflected, f_r
        elif f_r > self.values[second_worst]:
            self.simplex[worst], self.values[worst] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (self.simplex[worst] - centroid)
            f_c = f(contracted)
            if f_c > self.values[worst]:
                self.simplex[worst], self.values[worst] = contracted, f_c
            else:
                best_point = self.simplex[best].copy()
                for i in range(len(self.simplex)):
                    if i == best:
                        continue
                    shrunk = best_point + 0.5 * (self.simplex[i] - best_point)
                    self.simplex[i] = shrunk
                    self.values[i] = f(shrunk)
        return evals
