"""Every count argument is read by one rule, ``errors.check_count``, and every
increasing 1-D input (distance grids, trapezoid abscissae) by one check."""
import importlib

import numpy as np
import pytest

from palmpat import (
    DistanceGrid,
    InvalidInputError,
    ReproductionParams,
    Window,
    envelope,
    f_function,
    fit,
    nearest_neighbor_distances,
    nn_stats,
    simulate_csr,
    simulate_reproduction,
    substream_seed,
    trapezoid_integrate,
)
from palmpat.seeding import rng_from_seed

reproduction = importlib.import_module("palmpat.reproduction")

WINDOW = Window(0.0, 0.0, 100.0, 100.0)
PATTERN = simulate_csr(WINDOW, 30, seed=1)
GRID = DistanceGrid.default(WINDOW, 10)
PARAMS = ReproductionParams(0.5, 5.0)

# (call, the argument's name, its least value); call(v) passes v as that argument
COUNTS = {
    "substream_seed": (lambda v: substream_seed(v, 1), "seed", 0),
    "rng_from_seed": (rng_from_seed, "seed", 0),
    "f_function.seed": (lambda v: f_function(PATTERN, GRID, 50, v), "seed", 0),
    "simulate_csr.n": (lambda v: simulate_csr(WINDOW, v, 0), "n", 1),
    "envelope.m": (lambda v: envelope(PATTERN, GRID, "G", v, 0), "m", 19),
    "simulate_reproduction.n": (lambda v: simulate_reproduction(WINDOW, v, PARAMS, 0), "n", 1),
    "fit.n_trials": (lambda v: fit(PATTERN, [0.5], [5.0], v, GRID, 50, 0), "n_trials", 1),
    "DistanceGrid.default.steps": (lambda v: DistanceGrid.default(WINDOW, v), "steps", 2),
    "f_function.n_ref": (lambda v: f_function(PATTERN, GRID, v, 0), "n_ref", 1),
    "nn_stats.bins": (lambda v: nn_stats(PATTERN, 1, v), "bins", 1),
    "nn_stats.k": (lambda v: nn_stats(PATTERN, v), "k", 1),
    "nearest_neighbor_distances.k": (lambda v: nearest_neighbor_distances(PATTERN, v), "k", 1),
}


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")


@pytest.mark.parametrize("bad", [
    pytest.param(lambda least: 2.5, id="2.5"),
    pytest.param(lambda least: True, id="True"),
    pytest.param(lambda least: np.True_, id="np.True_"),
    pytest.param(lambda least: "3", id="str"),
    pytest.param(lambda least: least - 1, id="below"),
])
@pytest.mark.parametrize("site", sorted(COUNTS))
def test_every_count_argument_refuses_a_non_integer_or_too_small_value(site, bad):
    call, name, least = COUNTS[site]
    with pytest.raises(InvalidInputError, match=f"^{name} must be "):
        call(bad(least))


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_every_count_argument_takes_a_numpy_integer(site):
    call, _, least = COUNTS[site]
    call(np.int64(least))
    call(np.uint32(least))


def test_count_messages():
    with pytest.raises(InvalidInputError, match=r"^n_ref must be a positive integer, got 0$"):
        f_function(PATTERN, GRID, 0, 0)
    with pytest.raises(InvalidInputError, match=r"^m must be an integer >= 19, got 18$"):
        envelope(PATTERN, GRID, "G", 18, 0)
    with pytest.raises(InvalidInputError, match=r"^seed must be an integer >= 0, got True$"):
        substream_seed(True)


def test_nn_stats_refuses_a_fractional_k():
    # k=1.5 used to reach the k-d tree and return the k=2 statistics
    with pytest.raises(InvalidInputError, match="^k must be a positive integer, got 1.5$"):
        nn_stats(PATTERN, 1.5)


@pytest.mark.parametrize("path", ["compiled", "scalar"])
def test_simulate_reproduction_refuses_a_bool_count_on_both_sampler_paths(path, monkeypatch):
    calls = []
    if path == "compiled":
        monkeypatch.setattr(reproduction, "_sampler", lambda *args: calls.append(args) or 0)
    else:
        monkeypatch.setattr(reproduction, "_sampler", False)
        monkeypatch.setattr(reproduction, "_scalar_reproduction",
                            lambda *args: calls.append(args) or ([], 0))
    with pytest.raises(InvalidInputError, match="^n must be a positive integer, got True$"):
        simulate_reproduction(WINDOW, True, PARAMS, 0)
    assert calls == []


@pytest.mark.parametrize("build, name", [
    (DistanceGrid, "distance grid"),
    (lambda v: trapezoid_integrate(v, [0.0, 1.0]), "xs"),
])
@pytest.mark.parametrize("values", [
    [[1.0], [2.0, 3.0]], [0.0, [1.0, 2.0]], [], [[0.0, 1.0]], [0.0, np.nan], [1.0, 1.0],
    [2.0, 1.0], "ab", None,
])
def test_increasing_values_refuses_ragged_empty_and_unordered_input(build, name, values):
    with pytest.raises(InvalidInputError,
                       match=f"^{name} must be nonempty, finite, strictly increasing and 1-D$"):
        build(values)


@pytest.mark.parametrize("ys", [[0.0, 1.0, 2.0], [[0.0, 1.0]], [1.0], 2.0])
def test_trapezoid_refuses_ys_that_do_not_match_xs(ys):
    with pytest.raises(InvalidInputError, match="^need 1-D ys as long as xs"):
        trapezoid_integrate([0.0, 1.0], ys)


def test_trapezoid_needs_two_samples():
    with pytest.raises(InvalidInputError, match="^need 1-D ys as long as xs, and 2"):
        trapezoid_integrate([0.0], [1.0])


def test_increasing_values_copy_their_input():
    xs = np.array([0.0, 1.0, 2.0])
    grid = DistanceGrid(xs)
    xs[0] = -1.0
    assert grid.values.tolist() == [0.0, 1.0, 2.0]
    assert not grid.values.flags.writeable
    assert trapezoid_integrate(xs, [1.0, 1.0, 1.0]) == 3.0
