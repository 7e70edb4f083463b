import numpy as np
import pytest

from heatadapt import Grid, GridFunction, Params, scenarios


@pytest.fixture(scope="session")
def params8():
    """The benchmark parameter set used throughout the experiments."""
    return Params(q=2.0, b=-10.0, c0=5.0, c1=5.0)


@pytest.fixture(scope="session")
def grid51():
    return Grid(51)


@pytest.fixture()
def ramp51(grid51):
    """w(x) = 2x - 1, the benchmark initial condition at q = 2."""
    return GridFunction(grid51, 2.0 * grid51.nodes - 1.0)


@pytest.fixture()
def zeros51(grid51):
    return GridFunction.zeros(grid51)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def stencil_route(monkeypatch):
    """Step every run on the stencil, as on grids above the operator cutoff.

    For the tests that pin the stencil's bits: stabilize runs, and their
    sweeps, take the operator on small grids.
    """
    monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", 0)
