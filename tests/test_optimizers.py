import ast
from pathlib import Path

import numpy as np

from splitcut.optimizers import NelderMead, Spsa


def bowl(x):
    # maximum 5.0 at (1, -2)
    return 5.0 - (x[0] - 1.0) ** 2 - (x[1] + 2.0) ** 2


def test_spsa_two_evaluations_per_step():
    opt = Spsa(np.zeros(2), np.random.default_rng(0))
    evals = opt.step(bowl)
    assert len(evals) == 2


def test_spsa_climbs_the_bowl():
    opt = Spsa(np.zeros(2), np.random.default_rng(1))
    for _ in range(80):
        opt.step(bowl)
    assert bowl(opt.x) > 4.7


def test_spsa_deterministic_given_rng_seed():
    runs = []
    for _ in range(2):
        opt = Spsa(np.zeros(2), np.random.default_rng(42))
        for _ in range(10):
            opt.step(bowl)
        runs.append(opt.x.copy())
    assert np.array_equal(runs[0], runs[1])


def test_nelder_mead_initial_simplex_then_moves():
    x0 = np.array([0.5, -0.25])
    opt = NelderMead(x0)
    assert np.array_equal(opt.x, x0)
    first = opt.step(bowl)
    # dim + 1 vertices: x0, then x0 + STEP * e_i in axis order
    assert [x.tolist() for x, _ in first] == [[0.5, -0.25], [0.5 + NelderMead.STEP, -0.25],
                                              [0.5, -0.25 + NelderMead.STEP]]
    assert [fx for _, fx in first] == [bowl(x) for x, _ in first]
    total = 0
    for _ in range(60):
        total += len(opt.step(bowl))
    assert bowl(opt.x) > 4.99
    assert total >= 60  # at least one evaluation per iteration
    # later steps overwrite simplex rows in place, not the points handed out
    assert [x.tolist() for x, _ in first] == [[0.5, -0.25], [0.5 + NelderMead.STEP, -0.25],
                                              [0.5, -0.25 + NelderMead.STEP]]
    x = opt.x
    opt.simplex[:] = 0.0
    assert bowl(x) > 4.99


def test_nelder_mead_tracks_best_vertex():
    opt = NelderMead(np.array([3.0, 3.0]))
    for _ in range(100):
        opt.step(bowl)
    assert np.allclose(opt.x, [1.0, -2.0], atol=0.05)


def test_nelder_mead_breaks_ties_in_stable_order():
    # the initial values [1, 2, 0, 0, 2] tie twice; a stable sort orders
    # them [2, 3, 0, 1, 4] on every CPU (numpy's default sort gives
    # [3, 2, 0, 1, 4] under AVX-512), and the worst vertex, reflected
    # through the mean of the others taken in that order, is the next
    # step's first point
    values = [1.0, 2.0, 0.0, 0.0, 2.0]
    x0 = np.array([0.1, 0.2, 0.3, 0.4])
    opt = NelderMead(x0)
    replies = iter(values)
    first = opt.step(lambda x: next(replies))
    assert [v for _, v in first] == values
    order = [2, 3, 0, 1, 4]
    vertices = [x0] + [x0 + NelderMead.STEP * np.eye(4)[i] for i in range(4)]
    centroid = np.mean([vertices[i] for i in order[1:]], axis=0)
    reflected = centroid + (centroid - vertices[order[0]])
    second = opt.step(lambda x: 0.0)
    assert np.array_equal(second[0][0], reflected)


def test_nelder_mead_offsets_only_coordinate_i():
    # -0.0 + 0.0 is +0.0, which a wire text would print as "0", not "-0"
    first = NelderMead(np.array([-0.0, -0.0])).step(bowl)
    assert [np.signbit(x).tolist() for x, _ in first] == [[True, True], [False, True],
                                                          [True, False]]


def test_every_argsort_in_the_package_is_stable():
    # numpy's default argsort orders ties by CPU dispatch; a stable sort
    # gives the optimizers the same steps on every CPU
    package = Path(__file__).resolve().parents[1] / "src" / "splitcut"
    calls, unstable = 0, []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) != "argsort":
                continue
            calls += 1
            kind = next((k.value for k in node.keywords if k.arg == "kind"), None)
            if not (isinstance(kind, ast.Constant) and kind.value == "stable"):
                unstable.append(f"{path.name}:{node.lineno}")
    assert calls >= 2  # NelderMead.step and exact_optimum
    assert unstable == []
