"""The early-exit stages' Newton fit: it stops at a stationary point of the
penalised loss, within its iteration cap, and holds one n x d buffer."""

import tracemalloc

import numpy as np
import pytest

from dynexec import Dataset, Rng, gen_dataset, train_stages
from dynexec import earlyexit
from dynexec.earlyexit import RIDGE, _fit_logistic, _sigmoid, featurize
from dynexec.errors import NotConverged

from oracles import fixture_normals

# the fit reaches about 1e-17; a fit stopped short of convergence sits orders of magnitude above
GRADIENT_TOLERANCE = 1e-12


def _blobs():
    rng = Rng(3)
    labels = np.arange(400) % 2
    noise = fixture_normals(rng, 800).reshape(400, 2) * 0.3
    return Dataset(np.where(labels == 1, 3.0, -3.0) + noise[:, 0], noise[:, 1], labels)


def _penalised_gradient(feats, labels, weights):
    """The gradient of the mean logistic loss plus RIDGE/2 * |w|^2, the intercept unpenalised."""
    w, b = weights[:-1], weights[-1]
    residual = _sigmoid(feats @ w + b) - labels
    return np.append(feats.T @ residual / len(labels) + RIDGE * w, residual.mean())


FIT_CASES = {
    "separable": lambda: gen_dataset(2000, 0.0, 5),
    "hard-0.2": lambda: gen_dataset(2000, 0.2, 9),
    "all-hard": lambda: gen_dataset(2000, 1.0, 6),
    "blobs": _blobs,
}


@pytest.mark.parametrize("kind", ["linear", "cubic"])
@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fit_returns_a_stationary_point_within_the_cap(case, kind):
    # a fit past its cap raises NotConverged, so returning at all is converging within it
    data = FIT_CASES[case]()
    feats, labels = featurize(kind, data.xs, data.ys), data.labels.astype(np.float64)
    weights = _fit_logistic(feats, labels)
    assert np.max(np.abs(_penalised_gradient(feats, labels, weights))) < GRADIENT_TOLERANCE


def test_fit_at_its_cap_raises_instead_of_returning(monkeypatch):
    monkeypatch.setattr(earlyexit, "FIT_MAX_ITERATIONS", 1)
    with pytest.raises(NotConverged, match="1 Newton steps"):
        train_stages(gen_dataset(500, 0.2, 9))


def test_train_stages_holds_no_second_copy_of_the_features():
    # at 25 000 points the cubic features are 1.8 MB; a fit that stacked a
    # ones column or kept the naive X.T * s temporary peaked near 7.6 MB
    data = gen_dataset(25_000, 0.2, 1)
    tracemalloc.start()
    try:
        train_stages(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.2e6
