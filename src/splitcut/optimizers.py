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

    The optimizer owns ``rng`` and draws nothing else from it: its
    perturbations are an i.i.d. stream that does not depend on the
    objective, so it draws the signs of 64 steps at once,
    ``rng.integers(0, 2, size=(64, n))``, the same stream as 64 draws of n
    signs. A step does its 2p-vector arithmetic on Python floats in
    numpy's operation order, so every point and ``x`` are the per-step
    numpy result bit for bit.
    """

    EVALS_PER_STEP = 2
    _BLOCK = 64  # steps whose signs one draw holds
    a, c, A, alpha, gamma = 0.4, 0.1, 5.0, 0.602, 0.101

    def __init__(self, x0, rng: np.random.Generator):
        self.x = np.asarray(x0, dtype=float).copy()
        self.rng = rng
        self.k = 0
        self._signs: list[list[int]] = []  # this block's rows, drawn at its first step

    def step(self, objective) -> list[tuple[np.ndarray, float]]:
        k = self.k
        ak = self.a / (self.A + k + 1) ** self.alpha
        ck = self.c / (k + 1) ** self.gamma
        if k % self._BLOCK == 0:
            self._signs = (self.rng.integers(0, 2, size=(self._BLOCK, len(self.x))) * 2 - 1).tolist()
        delta = self._signs[k % self._BLOCK]
        x = self.x.tolist()
        x_plus = np.array([xi + ck * d for xi, d in zip(x, delta)])
        x_minus = np.array([xi - ck * d for xi, d in zip(x, delta)])
        f_plus = float(objective(x_plus))
        f_minus = float(objective(x_minus))
        g = (f_plus - f_minus) / (2.0 * ck)
        self.x = np.array([xi + ak * (g * d) for xi, d in zip(x, delta)])
        self.k += 1
        return [(x_plus, f_plus), (x_minus, f_minus)]


class NelderMead:
    """Classic simplex search (reflection/expansion/contraction/shrink).

    The simplex is n + 1 vertices: x0, then x0 offset by ``STEP`` along
    each axis, in axis order. The first step only evaluates it, so those
    evaluations land on iteration 0's objective, and until then ``x`` is
    x0. Tied values keep vertex order (a stable sort) on every CPU.
    Intended for ideal backends; simplex values measured on earlier
    iterations' objectives are reused as-is.

    The vertices are lists of Python floats, stepped in numpy's operation
    order: the centroid sums the other rows in sorted order from the first
    one, then divides by n, as ``mean(axis=0)`` does. So, on finite values,
    every point and ``x`` are those of the same search on one (n + 1, n)
    float64 array bit for bit. Every point a step returns, and ``x``, is a
    fresh float64 array.
    """

    STEP = 0.3

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float).tolist()
        self.simplex = [list(x0) for _ in range(len(x0) + 1)]
        for i in range(len(x0)):  # only coordinate i: adding 0.0 would turn -0.0 into +0.0
            self.simplex[i + 1][i] += self.STEP
        self.values: list[float] = []  # one per vertex from the first step on

    @property
    def x(self) -> np.ndarray:
        values = self.values
        return np.array(self.simplex[values.index(max(values)) if values else 0])

    def step(self, objective) -> list[tuple[np.ndarray, float]]:
        evals: list[tuple[np.ndarray, float]] = []

        def f(x: list[float]) -> float:
            point = np.array(x)
            v = float(objective(point))
            evals.append((point, v))
            return v

        simplex, values = self.simplex, self.values
        if not values:
            self.values = [f(v) for v in simplex]
            return evals
        order = np.array(values).argsort(kind="stable").tolist()  # ascending: worst first under maximization
        worst, second_worst, best = order[0], order[1], order[-1]
        centroid = simplex[order[1]]
        for i in order[2:]:
            centroid = [c + v for c, v in zip(centroid, simplex[i])]
        centroid = [c / (len(order) - 1) for c in centroid]
        w = simplex[worst]
        away = [c - v for c, v in zip(centroid, w)]
        reflected = [c + a for c, a in zip(centroid, away)]
        f_r = f(reflected)
        if f_r > values[best]:
            expanded = [c + 2.0 * a for c, a in zip(centroid, away)]
            f_e = f(expanded)
            if f_e > f_r:
                simplex[worst], values[worst] = expanded, f_e
            else:
                simplex[worst], values[worst] = reflected, f_r
        elif f_r > values[second_worst]:
            simplex[worst], values[worst] = reflected, f_r
        else:
            contracted = [c + 0.5 * (v - c) for c, v in zip(centroid, w)]
            f_c = f(contracted)
            if f_c > values[worst]:
                simplex[worst], values[worst] = contracted, f_c
            else:
                b = simplex[best]
                for i in range(len(simplex)):
                    if i != best:  # best + 0.0 would turn -0.0 into +0.0
                        simplex[i] = [bj + 0.5 * (v - bj) for bj, v in zip(b, simplex[i])]
                        values[i] = f(simplex[i])
        return evals
