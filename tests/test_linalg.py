import numpy as np

from zdgame._linalg import det3, det4


def test_det3_against_numpy(rng):
    for _ in range(200):
        m = rng.normal(size=(3, 3))
        mine = det3(tuple(m[0]), tuple(m[1]), tuple(m[2]))
        assert abs(mine - np.linalg.det(m)) < 1e-12 * max(1.0, abs(mine))


def test_det4_against_numpy(rng):
    for _ in range(200):
        m = rng.normal(size=(4, 4))
        mine = det4(tuple(tuple(r) for r in m))
        assert abs(mine - np.linalg.det(m)) < 1e-11 * max(1.0, abs(mine))


def test_det4_singular():
    rows = ((1.0, 2.0, 3.0, 4.0),) * 4
    assert det4(rows) == 0.0


def test_det4_identity():
    eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(4)) for i in range(4))
    assert det4(eye) == 1.0
