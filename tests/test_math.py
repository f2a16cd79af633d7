import numpy as np

from scorekit._math import expit


def masked_expit(z):
    """The boolean-mask formulation expit replaced, kept as the reference."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_expit_bit_identical_to_masked_formula():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 745.0, -745.0, 1e308])
    assert np.array_equal(expit(edges), masked_expit(edges), equal_nan=True)
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.normal(scale=rng.choice([0.1, 5.0, 50.0, 800.0]), size=int(rng.integers(1, 3000)))
        assert np.array_equal(expit(z), masked_expit(z))
    z = rng.normal(scale=10.0, size=(3, 4, 5))
    assert np.array_equal(expit(z), masked_expit(z))


def test_expit_scalar_returns_float():
    for z in (0.0, -3.5, 40, np.float64(2.0)):
        value = expit(z)
        assert type(value) is float
        assert value == masked_expit(z)
