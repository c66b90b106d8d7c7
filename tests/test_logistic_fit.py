"""The early-exit stages' Newton fit: it stops at a stationary point of the
penalised loss, within its iteration cap, holds one d x n buffer, and gives
the weights and sweep rows of the sample-major, full-step fit from zero in
`oracles.fit_logistic_reference`."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from dynexec import Dataset, Rng, gen_dataset, sweep, train_stages
from dynexec import earlyexit
from dynexec.cli import DEFAULT_TAUS
from dynexec.earlyexit import RIDGE, _fit_logistic, _sigmoid, featurize
from dynexec.errors import DynexecError

from oracles import (features_reference, fit_logistic_reference, fixture_normals, sample_major_dists, sweep_reference,
                     train_stages_reference)

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
    residual = _sigmoid(w @ feats + b) - labels
    return np.append(feats @ residual / len(labels) + RIDGE * w, residual.mean())


FIT_CASES = {
    "separable": lambda: gen_dataset(2000, 0.0, 5),
    "hard-0.2": lambda: gen_dataset(2000, 0.2, 9),
    "all-hard": lambda: gen_dataset(2000, 1.0, 6),
    "blobs": _blobs,
}


# each stage reads the leading rows of one feature matrix
FEATURE_ROWS = {"linear": 2, "cubic": 9}


@pytest.mark.parametrize("kind", list(FEATURE_ROWS))
@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fit_returns_a_stationary_point_within_the_cap(case, kind):
    # a fit past its cap raises DynexecError, so returning at all is converging within it
    data = FIT_CASES[case]()
    feats, labels = featurize(data.xs, data.ys)[:FEATURE_ROWS[kind]], data.labels.astype(np.float64)
    weights, _ = _fit_logistic(feats, labels, np.zeros(len(feats) + 1))
    assert np.max(np.abs(_penalised_gradient(feats, labels, weights))) < GRADIENT_TOLERANCE


def test_fit_at_its_cap_raises_instead_of_returning(monkeypatch):
    monkeypatch.setattr(earlyexit, "FIT_MAX_ITERATIONS", 1)
    with pytest.raises(DynexecError, match="logistic fit still moving after 1 Newton steps"):
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


def _bits(rows):
    return [tuple(float(v).hex() for v in astuple(row)) for row in rows]


# (100, 0.2, 2) and (100, 0.5, 2) are among the datasets where full Newton
# steps from the cubic stage's warm start diverge; (25 000, 0.2, 1) is the
# benchmark's size, the one large case the tier-1 budget allows
EQUIVALENCE_CASES = [(count, hard_fraction, seed) for count in (100, 2000) for hard_fraction in (0.0, 0.2, 0.8, 1.0)
                     for seed in (1, 2, 3)] + [(100, 0.5, 2), (25_000, 0.2, 1)]


@pytest.mark.parametrize("count, hard_fraction, seed", EQUIVALENCE_CASES)
def test_fit_matches_the_sample_major_fit_from_zero(count, hard_fraction, seed):
    data = gen_dataset(count, hard_fraction, seed)
    net, reference = train_stages(data), train_stages_reference(data)
    for weights, expected in zip(net.stages, reference.stages):
        assert np.max(np.abs(weights - expected)) <= 1e-12
    expected_rows = sweep_reference(reference, data, DEFAULT_TAUS, sample_major_dists)
    assert _bits(sweep(net, data, DEFAULT_TAUS)) == _bits(expected_rows)


@pytest.mark.parametrize("hard_fraction", [0.2, 0.5])
def test_warm_start_that_full_steps_would_diverge_still_converges(hard_fraction):
    # full Newton steps from the linear optimum leave the basin and end at a singular Hessian
    data = gen_dataset(100, hard_fraction, 2)
    labels = data.labels.astype(np.float64)
    linear = fit_logistic_reference(features_reference(data.xs, data.ys, 2), labels)
    with pytest.raises(np.linalg.LinAlgError):
        fit_logistic_reference(features_reference(data.xs, data.ys, 9), labels,
                               start=np.insert(linear, -1, np.zeros(7)))
    feats = featurize(data.xs, data.ys)
    weights = train_stages(data).stages[1]
    assert np.max(np.abs(_penalised_gradient(feats, labels, weights))) < GRADIENT_TOLERANCE


def test_newton_step_counts_are_pinned(monkeypatch):
    # the cubic stage's warm start from the linear optimum saves three of twelve steps
    counts = []
    fit = earlyexit._fit_logistic

    def counting_fit(*args):
        weights, steps = fit(*args)
        counts.append(steps)
        return weights, steps

    monkeypatch.setattr(earlyexit, "_fit_logistic", counting_fit)
    data = gen_dataset(25_000, 0.2, 1)
    train_stages(data)
    _, from_zero = fit(featurize(data.xs, data.ys), data.labels.astype(np.float64), np.zeros(10))
    assert counts == [8, 9]
    assert from_zero == 12
