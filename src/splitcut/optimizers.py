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

    The simplex is one (n + 1, n) array: x0, then x0 offset by ``STEP``
    along each axis, in axis order. The first step only evaluates it, so
    those evaluations land on iteration 0's objective, and until then ``x``
    is x0. Tied values keep vertex order (a stable sort) on every CPU.
    Intended for ideal backends; simplex values measured on earlier
    iterations' objectives are reused as-is. Every point a step returns,
    and ``x``, is an array of its own: a later step overwrites simplex rows
    in place.
    """

    STEP = 0.3

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float)
        self.simplex = np.repeat(x0[None], len(x0) + 1, axis=0)
        for i in range(len(x0)):  # only coordinate i: adding 0.0 would turn -0.0 into +0.0
            self.simplex[i + 1, i] += self.STEP
        self.values = np.empty(0)  # one per vertex from the first step on

    @property
    def x(self) -> np.ndarray:
        return self.simplex[int(self.values.argmax()) if len(self.values) else 0].copy()

    def step(self, objective) -> list[tuple[np.ndarray, float]]:
        evals: list[tuple[np.ndarray, float]] = []

        def f(x) -> float:
            v = float(objective(x))
            evals.append((x, v))
            return v

        simplex, values = self.simplex, self.values
        if not len(values):
            self.values = np.array([f(p) for p in simplex.copy()])
            return evals
        order = values.argsort(kind="stable")  # ascending: worst first under maximization
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
        elif f_r > values[second_worst]:
            simplex[worst], values[worst] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[worst] - centroid)
            f_c = f(contracted)
            if f_c > values[worst]:
                simplex[worst], values[worst] = contracted, f_c
            else:
                shrunk = simplex[best] + 0.5 * (simplex - simplex[best])
                for i in range(len(simplex)):
                    if i != best:  # best + 0.0 would turn -0.0 into +0.0
                        simplex[i], values[i] = shrunk[i], f(shrunk[i])
        return evals
