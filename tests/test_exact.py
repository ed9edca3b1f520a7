"""The dense exact matrix oracles of tests/oracles.py on frozen examples."""

from fractions import Fraction

from oracles import (
    determinant,
    invert_exact,
    is_negative_definite,
    leading_minors,
    solve_exact,
    solve_mod2,
)

# Frozen oracles.  E8: the standard eight-vertex tree, all weights -2, branch at
# vertex 5 (1-indexed).  STAR7: central -1 with legs -2, -3, -7.
E8 = [
    [-2, 1, 0, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 1],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 0],
    [0, 0, 0, 0, 1, 0, 0, -2],
]
STAR7 = [
    [-1, 1, 1, 1],
    [1, -2, 0, 0],
    [1, 0, -3, 0],
    [1, 0, 0, -7],
]


def test_determinant_oracles():
    assert determinant(E8) == 1
    assert determinant(STAR7) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([]) == 1


def test_leading_minors_star7():
    # hand-computed: the signs alternate as negative definiteness requires
    assert leading_minors(STAR7) == [-1, 1, -1, 1]


def test_negative_definite():
    assert is_negative_definite(E8)
    assert is_negative_definite(STAR7)
    assert not is_negative_definite([[0]])
    assert not is_negative_definite([[-2, 3], [3, -2]])
    assert not is_negative_definite([[2, 1], [1, 2]])


def test_solve_exact():
    x = solve_exact(STAR7, [1, 0, 0, 0])
    # Q x = e_1, so x is the first column of the inverse
    assert [sum(Fraction(STAR7[i][j]) * x[j] for j in range(4)) for i in range(4)] == [
        1,
        0,
        0,
        0,
    ]
    assert x == [-42, -21, -14, -6]  # unimodular, so the inverse is integral
    inv = invert_exact(STAR7)
    for i in range(4):
        for j in range(4):
            assert sum(STAR7[i][k] * inv[k][j] for k in range(4)) == (i == j)


def test_wu_class_mod2_oracle():
    diag = [1, 0, 1, 1]  # diagonal of STAR7 mod 2
    w = solve_mod2(STAR7, diag)
    assert w == [0, 1, 1, 1]


def test_solve_mod2_inconsistent():
    assert solve_mod2([[1, 1], [1, 1]], [0, 1]) is None
