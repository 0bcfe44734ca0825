import numpy as np
from hypothesis import settings

from shiftshare_ri import ShiftShareDesign

# Property tests draw the same examples on every run, so Tier-1 stays
# deterministic; no example database is written.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def make_design(seed=0, N=12, J=5, reduced_form=True, cluster_ids=None, beta=0.7):
    """Random nondegenerate design for property tests."""
    rng = np.random.default_rng(seed)
    S = rng.dirichlet(np.ones(J), size=N)
    g = rng.normal(size=J)
    Z = S @ g
    if reduced_form:
        X = None
        X_arr = Z
    else:
        X_arr = 0.8 * Z + 0.5 * rng.normal(size=N)
        X = X_arr
    Y = beta * X_arr + rng.normal(size=N)
    return ShiftShareDesign.from_arrays(Y, X, S, g, cluster_ids=cluster_ids)


def identity_design(Y, g, X=None, cluster_ids=None):
    """Design with identity exposures, for hand-checkable cases."""
    Y = np.asarray(Y, dtype=float)
    return ShiftShareDesign.from_arrays(
        Y, X, np.eye(Y.shape[0]), g, cluster_ids=cluster_ids
    )
