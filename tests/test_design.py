import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_design
from shiftshare_ri import (
    DataValidationError,
    ShiftShareDesign,
    build_instrument,
    demean_shocks,
    null_residuals,
)


def test_build_instrument_matches_matrix_product():
    S = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
    g = np.array([2.0, -4.0])
    npt.assert_allclose(build_instrument(S, g), [-1.0, 2.0, -2.5])


def test_demean_shocks():
    npt.assert_allclose(demean_shocks(np.array([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0])


def test_from_arrays_reduced_form_when_x_omitted():
    d = make_design(seed=3, reduced_form=True)
    assert d.reduced_form
    npt.assert_allclose(d.X, d.S @ d.g, atol=1e-12)


def test_from_arrays_detects_structural_x():
    d = make_design(seed=4, reduced_form=False)
    assert not d.reduced_form
    assert not np.allclose(d.X, d.S @ d.g)


def test_from_arrays_detects_x_equal_to_instrument():
    rng = np.random.default_rng(7)
    S = rng.dirichlet(np.ones(4), size=9)
    g = rng.normal(size=4)
    Z = S @ g
    d = ShiftShareDesign.from_arrays(Z * 1.5, Z.copy(), S, g)
    assert d.reduced_form


def test_forcing_reduced_form_on_mismatched_x_raises():
    rng = np.random.default_rng(8)
    S = rng.dirichlet(np.ones(4), size=9)
    g = rng.normal(size=4)
    X = S @ g + 0.3
    with pytest.raises(DataValidationError):
        ShiftShareDesign.from_arrays(X * 2.0, X, S, g, reduced_form=True)


def test_arrays_are_float64_and_read_only():
    d = make_design(seed=5)
    for arr in (d.Y, d.X, d.S, d.g, d.Z):
        assert arr.dtype == np.float64
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        d.Y[0] = 99.0


def test_rejects_negative_exposure():
    S = np.array([[0.5, 0.5], [-0.1, 1.1]])
    with pytest.raises(DataValidationError):
        ShiftShareDesign.from_arrays(np.zeros(2), None, S, np.ones(2))


def test_zero_exposure_row_names_the_unit():
    S = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DataValidationError, match="plant_b"):
        ShiftShareDesign.from_arrays(
            np.zeros(3), None, S, np.ones(2),
            unit_labels=("plant_a", "plant_b", "plant_c"),
        )


def test_nonfinite_shock_names_the_index():
    S = np.full((3, 2), 0.5)
    g = np.array([1.0, np.nan])
    with pytest.raises(DataValidationError, match="index 1"):
        ShiftShareDesign.from_arrays(np.zeros(3), None, S, g)


@pytest.mark.parametrize("n, j", [(1, 3), (5, 1)])
def test_minimum_dimensions(n, j):
    S = np.full((n, j), 1.0 / j)
    with pytest.raises(DataValidationError):
        ShiftShareDesign.from_arrays(np.zeros(n), None, S, np.ones(j))


def test_length_mismatch_rejected():
    S = np.full((4, 3), 1.0 / 3)
    with pytest.raises(DataValidationError):
        ShiftShareDesign.from_arrays(np.zeros(5), None, S, np.ones(3))


def test_cluster_ids_shape_checked():
    with pytest.raises(DataValidationError):
        make_design(seed=1, J=5, cluster_ids=np.array([0, 0, 1]))


def test_cluster_ids_accepted_per_sector():
    d = make_design(seed=2, J=6, cluster_ids=np.array([0, 0, 1, 1, 2, 2]))
    assert d.cluster_ids.shape == (6,)


def test_null_residuals_values():
    d = make_design(seed=9)
    res = null_residuals(d, 0.25)
    npt.assert_allclose(res.e_b, d.Y - 0.25 * d.X)
    assert res.b == 0.25


def test_null_residuals_requires_finite_b():
    d = make_design(seed=9)
    with pytest.raises(DataValidationError):
        null_residuals(d, np.inf)


def test_dimension_properties():
    d = make_design(seed=11, N=14, J=6)
    assert (d.N, d.J) == (14, 6)


def test_gram_is_cached_read_only_exposure_cross_product():
    d = make_design(seed=12, N=15, J=6)
    K = d.gram
    npt.assert_array_equal(K, d.S.T @ d.S)
    assert K.shape == (6, 6)
    assert not K.flags.writeable
    assert d.gram is K
