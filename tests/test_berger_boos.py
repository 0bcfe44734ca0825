import numpy as np
import pytest

from conftest import identity_design, make_design
from shiftshare_ri import (
    ConfigError,
    DegenerateDrawError,
    IIDNormal,
    Sidedness,
    SignChange,
    Statistic,
    TestSpec,
    berger_boos_test,
    ri_test,
)


def spec_bb(m=0.0, **kw):
    base = dict(b=0.0, statistic=Statistic.T1, scheme=SignChange(m=m), L=99, seed=4)
    base.update(kw)
    return TestSpec(**base)


def test_point_interval_with_zero_gamma_matches_plain_test():
    # the same sign draws are used, so the values must agree exactly
    d = make_design(seed=1, N=14, J=6)
    for m in (0.0, 0.7, -0.4):
        plain = ri_test(d, spec_bb(m=m)).p_value
        corrected = berger_boos_test(d, spec_bb(m=m), m, m, gamma=0.0)
        assert corrected == plain
    # a = (3, 1), g = (2, 2), m = 1: the all-minus draw is degenerate and
    # both tests replace it from the same stream
    d = identity_design([3.0, 1.0], [2.0, 2.0])
    for sidedness in Sidedness:
        spec = spec_bb(m=1.0, L=199, seed=17, sidedness=sidedness)
        plain = ri_test(d, spec)
        assert plain.n_degenerate_redraws > 0
        assert berger_boos_test(d, spec, 1.0, 1.0, gamma=0.0) == plain.p_value


def test_degenerate_draws_past_the_redraw_budget_raise_as_in_the_plain_test():
    # T2 at a = (3, 1), g = (2, 2): at m = 1 every sign draw but the
    # identity is degenerate; the 5-point grid on [0.6, 1.4] holds m = 1
    d = identity_design([3.0, 1.0], [2.0, 2.0])
    spec = spec_bb(m=1.0, statistic=Statistic.T2, L=199, seed=17)
    with pytest.raises(DegenerateDrawError):
        ri_test(d, spec)
    with pytest.raises(DegenerateDrawError):
        berger_boos_test(d, spec, 0.6, 1.4, gamma=0.0, grid_size=5)


def test_gamma_shifts_the_p_value_additively():
    d = make_design(seed=2, N=12, J=5)
    base = berger_boos_test(d, spec_bb(), -0.5, 0.5, gamma=0.0)
    shifted = berger_boos_test(d, spec_bb(), -0.5, 0.5, gamma=0.01)
    assert shifted == pytest.approx(min(1.0, base + 0.01))


def test_supremum_dominates_any_single_point():
    d = make_design(seed=3, N=15, J=7)
    # the symmetric 21-point grid on [-h, h] contains 0
    wide = berger_boos_test(d, spec_bb(), -0.8, 0.8, gamma=0.0)
    point = berger_boos_test(d, spec_bb(), 0.0, 0.0, gamma=0.0)
    assert wide >= point


def test_p_value_capped_at_one():
    d = make_design(seed=4, N=10, J=5)
    assert berger_boos_test(d, spec_bb(), -0.2, 0.2, gamma=0.9) <= 1.0


def test_validation_errors():
    d = make_design(seed=5)
    with pytest.raises(ConfigError):
        berger_boos_test(d, spec_bb(scheme=IIDNormal()), -1.0, 1.0, gamma=0.1)
    with pytest.raises(ConfigError):
        berger_boos_test(d, spec_bb(), 1.0, -1.0, gamma=0.1)
    with pytest.raises(ConfigError):
        berger_boos_test(d, spec_bb(), -1.0, 1.0, gamma=1.0)
    with pytest.raises(ConfigError):
        berger_boos_test(d, spec_bb(), -1.0, 1.0, gamma=-0.1)
    with pytest.raises(ConfigError):
        berger_boos_test(d, spec_bb(), -1.0, 1.0, gamma=0.1, grid_size=1)


def test_reproducible():
    d = make_design(seed=6, N=13, J=6)
    a = berger_boos_test(d, spec_bb(), -0.3, 0.9, gamma=0.05)
    b = berger_boos_test(d, spec_bb(), -0.3, 0.9, gamma=0.05)
    assert a == b
