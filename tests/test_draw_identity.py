"""The batched draw path against the per-draw reference loop.

The oracles below build every draw from its own ``draw_stream`` and
replay degenerate draws from a fresh ``draw_stream``, one draw at a
time.  Both sides run on the same machine, so the comparisons are
byte for byte.
"""

import numpy as np
import pytest

from conftest import identity_design, make_design
from shiftshare_ri import (
    DegenerateDrawError,
    IIDNormal,
    KnownDistribution,
    Permutation,
    RecentredBootstrap,
    SignChange,
    Statistic,
    TestSpec,
    berger_boos_test,
    ri_test,
)
from shiftshare_ri.ri import MAX_ATTEMPTS_PER_DRAW, _NullProblem, _tail_p
from shiftshare_ri.rng import draw_keys, draw_stream

CLUSTERS = np.array([0, 1, 1, 2, 0, 3, 2, 3, 1])
SCHEMES = {
    "sign-change": SignChange(),
    "sign-change-m": SignChange(m=0.3),
    "sign-change-cluster": SignChange(by_cluster=True),
    "sign-change-cluster-m": SignChange(m=-0.2, by_cluster=True),
    "permutation": Permutation(),
    "bootstrap": RecentredBootstrap(),
    "normal": IIDNormal(1.5),
}


def old_draws(design, spec):
    """Shock matrix with row l drawn from a fresh ``draw_stream(seed, l)``."""
    e_b = design.null_residuals(spec.b).e_b
    G = np.empty((spec.L, design.J))
    for l in range(spec.L):
        G[l] = spec.scheme.draw(
            draw_stream(spec.seed, l), design.S, e_b, design.g, cluster_ids=design.cluster_ids
        )
    return G


def old_simulation(design, spec):
    """(t_sims, n_degenerate_redraws) of the per-draw loop: a degenerate
    draw l is replaced by the next draws of a fresh draw_stream(seed, l)."""
    null = _NullProblem(design, spec)
    t_sims, valid = null.evaluate(old_draws(design, spec))

    def draw(rng):
        return spec.scheme.draw(rng, design.S, null.e_b, design.g, cluster_ids=design.cluster_ids)

    n_redraws = 0
    for l in np.flatnonzero(~valid):
        rng = draw_stream(spec.seed, int(l))
        draw(rng)
        for _ in range(1, MAX_ATTEMPTS_PER_DRAW):
            n_redraws += 1
            value, ok = null.evaluate(draw(rng)[None, :])
            if ok[0]:
                t_sims[l] = value[0]
                break
        else:
            raise DegenerateDrawError(f"draw {int(l)}")
    return t_sims, n_redraws


def zero_on_chosen_draws(seed, chosen):
    """Sampler that returns zeros (a zero studentizer) on the first call
    of each chosen draw's stream, and on about a fifth of all calls."""
    chosen_keys = {tuple(int(k) for k in key) for key in draw_keys(seed, chosen)}

    def sampler(rng, S, e_b, g):
        state = rng.bit_generator.state
        fresh = state["state"]["counter"][0] == 0 and state["buffer_pos"] == 4
        key = tuple(int(k) for k in state["state"]["key"])
        x = rng.standard_normal(g.shape[0])
        if (fresh and key in chosen_keys) or rng.uniform() < 0.2:
            return np.zeros(g.shape[0])
        return x

    return KnownDistribution(sampler)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("statistic", [Statistic.T0, Statistic.T1, Statistic.T2])
def test_ri_test_t_sims_equal_the_per_draw_loop(name, statistic):
    d = make_design(seed=21, N=16, J=9, cluster_ids=CLUSTERS)
    for seed in (0, 2**63 + 5):
        spec = TestSpec(b=0.4, statistic=statistic, scheme=SCHEMES[name], L=301, seed=seed)
        batched = ri_test(d, spec)
        reference = ri_test(d, spec, _raw_draws=old_draws(d, spec))
        assert batched.t_sims.tobytes() == reference.t_sims.tobytes()
        assert (batched.p_value, batched.reject) == (reference.p_value, reference.reject)


def test_redraws_replay_the_per_draw_streams():
    d = make_design(seed=22, N=14, J=6)
    seed = 2**64 - 3
    chosen = np.array([0, 7, 8, 150, 298])
    spec = TestSpec(
        b=0.1, statistic=Statistic.T1, scheme=zero_on_chosen_draws(seed, chosen), L=299, seed=seed
    )
    result = ri_test(d, spec)
    t_sims, n_redraws = old_simulation(d, spec)
    assert n_redraws >= chosen.size
    assert result.n_degenerate_redraws == n_redraws
    assert result.t_sims.tobytes() == t_sims.tobytes()


def test_sign_change_redraws_replay_the_per_draw_streams():
    # a = (3, 1), g = (2, 2), m = 1: the all-minus draw is zero
    d = identity_design([3.0, 1.0], [2.0, 2.0])
    spec = TestSpec(b=0.0, statistic=Statistic.T1, scheme=SignChange(m=1.0), L=199, seed=17)
    result = ri_test(d, spec)
    t_sims, n_redraws = old_simulation(d, spec)
    assert n_redraws > 0
    assert result.n_degenerate_redraws == n_redraws
    assert result.t_sims.tobytes() == t_sims.tobytes()


@pytest.mark.parametrize("statistic", [Statistic.T1, Statistic.T2])
def test_bootstrap_redraws_replay_the_per_draw_streams(statistic):
    # g = (0, 1, 2): the pool is (-1, 0, 1), and an all-middle draw is zero
    d = identity_design([3.0, 1.0, -2.0], [0.0, 1.0, 2.0])
    for seed in (0, 2**64 - 1):
        spec = TestSpec(
            b=0.0, statistic=statistic, scheme=RecentredBootstrap(), L=299, seed=seed
        )
        result = ri_test(d, spec)
        t_sims, n_redraws = old_simulation(d, spec)
        assert n_redraws > 0
        assert result.n_degenerate_redraws == n_redraws
        assert result.t_sims.tobytes() == t_sims.tobytes()


@pytest.mark.parametrize("scheme", [SignChange(), SignChange(m=0.4, by_cluster=True)])
@pytest.mark.parametrize("statistic", [Statistic.T0, Statistic.T1, Statistic.T2])
def test_berger_boos_equals_per_draw_signs(scheme, statistic):
    d = make_design(seed=23, N=15, J=9, cluster_ids=CLUSTERS)
    spec = TestSpec(b=0.2, statistic=statistic, scheme=scheme, L=199, seed=2**32 + 1)
    kappa = np.stack(
        [scheme.signs(draw_stream(spec.seed, l), d.J, d.cluster_ids) for l in range(spec.L)]
    )
    null = _NullProblem(d, spec)
    grid = np.linspace(-0.5, 0.5, 7)
    worst = max(
        _tail_p(null.t_obs, *null.evaluate(kappa * (d.g - m)[None, :] + m), spec.sidedness, 1)
        for m in grid
    )
    assert berger_boos_test(d, spec, -0.5, 0.5, gamma=0.02, grid_size=7) == min(1.0, worst + 0.02)
