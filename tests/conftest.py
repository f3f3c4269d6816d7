from fractions import Fraction

import pytest

import cantorsalem as cs

# Shared fixture parameters: base 25, residues {2,4,8,10}, target dimension
# 2/5, master seed 42.  Every expensive object is session-scoped; tests must
# treat them as read-only.

FIXTURE_M = 25
FIXTURE_ELEMENTS = (2, 4, 8, 10)
FIXTURE_T = Fraction(2, 5)
FIXTURE_SEED = 42


def make_fixture_schedule(n_max: int = 8) -> cs.Schedule:
    X = cs.ResidueSet.from_elements(FIXTURE_M, FIXTURE_ELEMENTS)
    return cs.schedule_a(FIXTURE_M, X, FIXTURE_T, n_max)


@pytest.fixture(scope="session")
def fixture_schedule():
    return make_fixture_schedule()


@pytest.fixture(scope="session")
def fixture_tree(fixture_schedule):
    return cs.build_tree(fixture_schedule, FIXTURE_SEED, 4)


@pytest.fixture(scope="session")
def halves_tree():
    # depth-1 tree, base 4, surviving digits exactly {0, 2}: translation
    # pinned to zero so coefficient values are reproducible in closed form
    sched = cs.custom_schedule(4, cs.ResidueSet.from_elements(4, (0, 2)), 1)
    return cs.MeasureTree(sched, 0, 1, [[0]])


@pytest.fixture(scope="session")
def uniform_tree():
    # full tree: every digit survives, so every level is Lebesgue on its grid
    sched = cs.custom_schedule(4, cs.ResidueSet.from_elements(4, (0, 1, 2, 3)), 3)
    return cs.build_tree(sched, 7, 3)


@pytest.fixture(scope="session")
def bad_tree():
    # consecutive residues mod 10 with translation pinned to zero: the
    # canonical progression-carrying negative control
    sched = cs.custom_schedule(10, cs.ResidueSet.from_elements(10, (0, 1, 2)), 1)
    return cs.MeasureTree(sched, 0, 1, [[0]])


@pytest.fixture(scope="session")
def b_tree():
    return cs.build_tree(cs.schedule_b(12), FIXTURE_SEED, 12)
