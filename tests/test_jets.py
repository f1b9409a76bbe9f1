import numpy as np

from viscmin.jets import gradient_hessian, jet_sqrt


def _densities(v):
    # *, /, - and sqrt, dividing by a value only through its reciprocal;
    # the fifth input is never read
    x, y, z, w, _ = v
    return (jet_sqrt(x * y) * (1.0 / z) - 2.0 * w,
            (x - y) * (x - y) / 3.0 + sum([x * z, w * w]))


def _closed_form(x, y, z, w):
    s = np.sqrt(x * y)
    zero, one = np.zeros_like(x), np.ones_like(x)
    grad = [[0.5 * s / (x * z), 0.5 * s / (y * z), -s / z ** 2, -2.0 * one,
             zero],
            [2.0 * (x - y) / 3.0 + z, -2.0 * (x - y) / 3.0, x, 2.0 * w,
             zero]]
    h1 = {(0, 0): -s / (4.0 * x * x * z), (0, 1): 1.0 / (4.0 * s * z),
          (1, 1): -s / (4.0 * y * y * z), (0, 2): -s / (2.0 * x * z * z),
          (1, 2): -s / (2.0 * y * z * z), (2, 2): 2.0 * s / z ** 3}
    h2 = {(0, 0): 2.0 / 3.0 * one, (0, 1): -2.0 / 3.0 * one,
          (1, 1): 2.0 / 3.0 * one, (0, 2): one, (3, 3): 2.0 * one}
    hess = np.zeros((2, 5, 5) + x.shape)
    for k, entries in enumerate((h1, h2)):
        for (i, j), value in entries.items():
            hess[k, i, j] = hess[k, j, i] = value
    return np.array(grad), hess


def test_gradient_hessian_matches_closed_form():
    rng = np.random.default_rng(3)
    inputs = list(rng.uniform(0.5, 2.0, size=(5, 11)))
    values, grad, hess = gradient_hessian(_densities, inputs)
    # the value slots are the plain evaluation, bit for bit
    plain = np.stack(_densities(inputs))
    assert values.tobytes() == plain.tobytes()
    ref_grad, ref_hess = _closed_form(*inputs[:4])
    assert grad.shape == (2, 5, 11) and hess.shape == (2, 5, 5, 11)
    assert np.all(np.abs(grad - ref_grad) <= 1e-13 * np.abs(ref_grad))
    assert np.all(np.abs(hess - ref_hess) <= 1e-13 * np.abs(ref_hess))
    # the unread input has zero gradient, hessian rows and columns
    assert not grad[:, 4].any()
    assert not hess[:, 4].any() and not hess[:, :, 4].any()
