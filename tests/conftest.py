import pytest

from mixcenter import cauchy_mix


@pytest.fixture
def slice_grid(monkeypatch):
    """``slice_grid(t_grid, tail_eps)`` tabulates the slice mixers the rest
    of the test builds on ``t_grid`` knots, out to a left-out mixing mass of
    ``tail_eps`` (the fixed one by default). A coarse grid builds and fills
    its cells faster than ``cauchy_mix.T_GRID``, for tests that need no
    finer one; a test that builds outside its own body (a module fixture, a
    cached helper, a hypothesis example) patches the constants itself."""
    def use(t_grid, tail_eps=cauchy_mix.TAIL_EPS):
        monkeypatch.setattr(cauchy_mix, "T_GRID", t_grid)
        monkeypatch.setattr(cauchy_mix, "TAIL_EPS", tail_eps)
    return use
