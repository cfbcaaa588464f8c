import numpy as np
import pytest

import ares.escape as escape_mod
from ares.datagen import DataConfig, LabeledDataset, make_aux_dataset, make_id_dataset
from ares.escape import EscapeConfig, escape_dataset, escape_instance
from ares.rng import Rng


@pytest.fixture
def blob_world():
    data = make_id_dataset(DataConfig(), 300, Rng(100))
    lo, hi = data.x.min(axis=0), data.x.max(axis=0)
    aux = make_aux_dataset(300, 2, Rng(101), ifs_maps=3, box=(lo, hi))
    return data, aux


def test_identity_mix_when_lambda_one(blob_world, monkeypatch):
    data, aux = blob_world
    monkeypatch.setattr(escape_mod, "beta_sample", lambda a, r: 1.0)
    cfg = EscapeConfig(max_iters=1, p_mix=1.0)
    x = data.x[0]
    out = escape_instance(x, aux, cfg, Rng(0))
    assert np.array_equal(out, x)


def test_full_replacement_when_lambda_zero(blob_world, monkeypatch):
    data, aux = blob_world
    monkeypatch.setattr(escape_mod, "beta_sample", lambda a, r: 0.0)
    cfg = EscapeConfig(max_iters=1, p_mix=1.0)
    rng = Rng(1)
    out = escape_instance(data.x[0], aux, cfg, rng)
    # the output must be one of the auxiliary points verbatim
    assert any(np.array_equal(out, a) for a in aux)


def test_labels_preserved(blob_world):
    data, aux = blob_world
    dstar = escape_dataset(data, aux, EscapeConfig(), Rng(2))
    assert np.array_equal(dstar.y, data.y)
    assert len(dstar) == len(data)


def test_empty_aux_rejected(blob_world):
    data, _ = blob_world
    with pytest.raises(ValueError):
        escape_instance(data.x[0], np.zeros((0, 2)), EscapeConfig(), Rng(0))


def test_dimension_mismatch_rejected(blob_world):
    _, aux = blob_world
    with pytest.raises(ValueError):
        escape_instance(np.zeros(3), aux, EscapeConfig(), Rng(0))


def test_at_least_one_mix_even_with_p_mix_zero(blob_world, monkeypatch):
    data, aux = blob_world
    calls = {"n": 0}
    real = escape_mod._mix_with_aux

    def counting(x, aux_, alpha, rng):
        calls["n"] += 1
        return real(x, aux_, alpha, rng)

    monkeypatch.setattr(escape_mod, "_mix_with_aux", counting)
    escape_dataset(data, aux, EscapeConfig(p_mix=0.0), Rng(3))
    assert calls["n"] >= len(data)


def test_deterministic_given_seed(blob_world):
    data, aux = blob_world
    cfg = EscapeConfig()
    a = escape_dataset(data, aux, cfg, Rng(4))
    b = escape_dataset(data, aux, cfg, Rng(4))
    assert np.array_equal(a.x, b.x)


def test_elementwise_derivation_independent_of_others(blob_world):
    data, aux = blob_world
    cfg = EscapeConfig()
    full = escape_dataset(data, aux, cfg, Rng(5))
    head = escape_dataset(LabeledDataset(data.x[:10], data.y[:10]), aux, cfg, Rng(5))
    # instance i uses child stream i, but the transform center is the data
    # mean, so compare against a subset with the same mean injected
    assert full.x.shape == data.x.shape
    assert head.x.shape == (10, 2)


def test_displacement_exceeds_within_class_spread(blob_world):
    data, aux = blob_world
    dstar = escape_dataset(data, aux, EscapeConfig(), Rng(6))
    disp = np.linalg.norm(dstar.x - data.x, axis=1).mean()
    spreads = []
    for c in np.unique(data.y):
        cls = data.x[data.y == c]
        spreads.append(np.linalg.norm(cls - cls.mean(axis=0), axis=1).mean())
    assert disp > 0
    assert disp > np.mean(spreads)


def test_config_validation():
    with pytest.raises(ValueError):
        EscapeConfig(max_iters=0)
    with pytest.raises(ValueError):
        EscapeConfig(max_iters=5)
    with pytest.raises(ValueError):
        EscapeConfig(p_mix=1.5)


def test_mixing_lambda_mean_near_half():
    # alpha1 = 3 gives a symmetric coefficient distribution; the empirical
    # mean over many draws sits at 1/2
    rng = Rng(7)
    draws = rng.beta(3.0, 3.0, 100_000)
    assert abs(draws.mean() - 0.5) < 0.01
