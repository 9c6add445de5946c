"""Tiny fixed-size determinants via explicit cofactor expansion.

All expansions are branch-free with a fixed operation order, so repeated
evaluation of the same input is bit-identical across runs and platforms.
Inputs are plain sequences of floats; no pivoting, no numpy.
"""


def det3(r0, r1, r2):
    a, b, c = r0
    d, e, f = r1
    g, h, i = r2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det4(m):
    """Determinant of a 4x4 matrix given as four rows of four floats.

    Laplace expansion along the first two rows: six 2x2 minors from the top
    pair against complementary minors from the bottom pair.
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    t01 = a00 * a11 - a01 * a10
    t02 = a00 * a12 - a02 * a10
    t03 = a00 * a13 - a03 * a10
    t12 = a01 * a12 - a02 * a11
    t13 = a01 * a13 - a03 * a11
    t23 = a02 * a13 - a03 * a12
    b01 = a20 * a31 - a21 * a30
    b02 = a20 * a32 - a22 * a30
    b03 = a20 * a33 - a23 * a30
    b12 = a21 * a32 - a22 * a31
    b13 = a21 * a33 - a23 * a31
    b23 = a22 * a33 - a23 * a32
    return t01 * b23 - t02 * b13 + t03 * b12 + t12 * b03 - t13 * b02 + t23 * b01
