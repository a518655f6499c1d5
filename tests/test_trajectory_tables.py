"""Published example trajectories: second element, endpoint and branch
counts (the printed middles are elided, so only those are checked), and
the ratio product of the rows whose lambda is quoted."""

import pytest

import gx1cycles as gx

# (family, start, steps, second, end, (k1, k2))
COLLATZ_ROWS = [
    ("collatz", 160, 53, 213, 77, (30, 23)),
    ("collatz", 312, 53, 208, 161, (30, 23)),
    ("collatz", 225, 53, 150, 224, (31, 22)),
    ("collatz", 326, 53, 435, 325, (31, 22)),
    ("collatz", 84, 53, 56, 163, (32, 21)),
    ("collatz", 320, 53, 427, 642, (32, 21)),
    ("collatz", 56, 53, 75, 217, (33, 20)),
    ("collatz", 243, 53, 162, 1007, (33, 20)),
    ("collatz", 36, 17, 24, 37, (10, 7)),
    ("collatz", 46, 17, 61, 47, (10, 7)),
    ("collatz", 78, 29, 52, 77, (17, 12)),
    ("collatz", 88, 29, 117, 87, (17, 12)),
    ("collatz", 50, 41, 67, 49, (24, 17)),
    ("collatz", 448, 41, 597, 449, (24, 17)),
    ("collatz", 332, 94, 443, 336, (55, 39)),
    ("collatz", 742, 94, 989, 745, (55, 39)),
]

THREE_X1_ROWS = [
    ("3x1", 159, 27, 239, 53, (16, 11)),
    ("3x1", 239, 27, 359, 80, (16, 11)),
    ("3x1", 166, 27, 83, 167, (17, 10)),
    ("3x1", 250, 27, 125, 251, (17, 10)),
    ("3x1", 54, 27, 27, 167, (18, 9)),
    ("3x1", 82, 27, 41, 251, (18, 9)),
    ("3x1", 27, 27, 41, 251, (19, 8)),
    ("3x1", 31, 27, 47, 283, (19, 8)),
    ("3x1", 91, 46, 137, 92, (29, 17)),
    ("3x1", 121, 46, 182, 122, (29, 17)),
    ("3x1", 73, 65, 110, 80, (41, 24)),
    ("3x1", 231, 65, 347, 244, (41, 24)),
    ("3x1", -63, 11, -94, -7, (5, 6)),
    ("3x1", -69, 11, -103, -8, (5, 6)),
    ("3x1", -49, 11, -73, -17, (6, 5)),
    ("3x1", -81, 11, -121, -28, (6, 5)),
    ("3x1", -42, 11, -21, -41, (7, 4)),
    ("3x1", -57, 11, -85, -59, (7, 4)),
    ("3x1", -21, 11, -31, -61, (8, 3)),
    ("3x1", -145, 11, -217, -460, (8, 3)),
    ("3x1", -65, 19, -97, -64, (12, 7)),
    ("3x1", -87, 19, -130, -86, (12, 7)),
]

# (family, start, steps) -> the ratio product of its branch counts, as a float
PUBLISHED_LAMBDAS = {
    ("collatz", 225, 53): 0.9979140462573112,
    ("collatz", 326, 53): 0.9979140462573112,
    ("3x1", -42, 11): 1.06787109375,           # 2187/2048
    ("3x1", -57, 11): 1.06787109375,
}


@pytest.mark.parametrize("family,start,steps,second,end,pair",
                         COLLATZ_ROWS + THREE_X1_ROWS)
def test_published_trajectory_rows(family, start, steps, second, end, pair):
    mapping = gx.mapping_from_name(family)
    traj = gx.trajectory(mapping, start, steps)
    assert traj.values[1] == second
    assert traj.values[-1] == end
    assert traj.counts.as_pair() == pair


@pytest.mark.parametrize("family,start,steps", PUBLISHED_LAMBDAS)
def test_published_ratio_products(family, start, steps):
    mapping = gx.mapping_from_name(family)
    traj = gx.trajectory(mapping, start, steps)
    lam = gx.lambda_exact(mapping, traj.counts.counts)
    assert float(lam) == PUBLISHED_LAMBDAS[family, start, steps]
