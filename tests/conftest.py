import random

import pytest
from hypothesis import settings

from branchgroups.presets import (
    ggs_preset,
    grigorchuk_preset,
    gupta_sidki_preset,
    preset_from_dict,
)
from branchgroups.quotients import StabChain, compose, perm_inverse

# Property tests replay the same examples on every run.
settings.register_profile("replay", derandomize=True, deadline=None)
settings.load_profile("replay")


@pytest.fixture(scope="session")
def grig():
    return grigorchuk_preset()


@pytest.fixture(scope="session")
def gs():
    return gupta_sidki_preset()


@pytest.fixture(scope="session")
def ggs5():
    return ggs_preset(5, (1, 0, 0, 1))


# a = (1 0)(1, a): adds 1 to a vertex read as a binary number, first digit
# least significant.  Infinite order, no rules.
ADDING_MACHINE = {
    "name": "adding-machine",
    "degree": 2,
    "generators": [{"name": "a", "root_perm": [1, 0], "sections": ["1", "a"]}],
    "contracting": True,
}


@pytest.fixture(scope="session")
def adding_machine():
    return preset_from_dict(ADDING_MACHINE)


# g1 = (1 0)(1, g2), ..., g8 = (1 0)(1, g9), g9 = (1 0): g1 adds 1 to the
# first nine digits read as a binary number, first digit least significant,
# so g1 has order 512, and the letters of the nine generators number 1,013.
CHAIN = {
    "degree": 2,
    "generators": [{"name": f"g{i}", "root_perm": [1, 0], "sections": ["", f"g{i + 1}" if i < 9 else ""]}
                   for i in range(1, 10)],
    "rules": [{"lhs": f"g{i}^{2 ** (10 - i)}", "rhs": "1"} for i in range(1, 10)],
}


# a = (a a, a a) fixes every vertex, but its sections a^(2^t) are new at
# every level, so no state repeats along any path and the fixed-tree walk
# stops at the level cap; c swaps the root's children.
DOUBLING = {
    "degree": 2,
    "generators": [
        {"name": "a", "root_perm": [0, 1], "sections": ["a a", "a a"]},
        {"name": "c", "root_perm": [1, 0], "sections": ["", ""]},
    ],
}


# A random degree-3 automaton on which `elem order b` and, before it walked
# conjugates, `wm conjbound --gens a --level 3` ran far past their budgets.
RANDOM_DEGREE_3 = {
    "degree": 3,
    "generators": [
        {"name": "a", "root_perm": [2, 1, 0], "sections": ["c", "b", "a"]},
        {"name": "b", "root_perm": [1, 0, 2], "sections": ["a", "b", "a"]},
        {"name": "c", "root_perm": [1, 2, 0], "sections": ["", "", "b"]},
    ],
}


# The Hanoi towers group H^(3): regular branch over its commutator subgroup,
# with elements of infinite order ("a b") and root group S3, not a p-group.
HANOI = {
    "name": "hanoi",
    "degree": 3,
    "generators": [
        {"name": "a", "root_perm": [1, 0, 2], "sections": ["1", "1", "a"]},
        {"name": "b", "root_perm": [2, 1, 0], "sections": ["1", "b", "1"]},
        {"name": "c", "root_perm": [0, 2, 1], "sections": ["c", "1", "1"]},
    ],
    "rules": [{"lhs": f"{x}^2", "rhs": "1"} for x in "abc"],
    "branching": ["a^-1 b^-1 a b", "b^-1 c^-1 b c", "a^-1 c^-1 a c"],
}


@pytest.fixture(scope="session")
def hanoi():
    return preset_from_dict(HANOI)


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_word(preset, rng, max_len=20):
    names = list(preset.gen_names)
    from branchgroups.words import Word

    letters = [(g, 1) for g in names]
    factors = tuple(rng.choice(letters) for _ in range(rng.randrange(max_len + 1)))
    return Word(preset, factors)


def normal_closure(seed, group_gens, npoints):
    """The normal closure of the permutations seed inside <group_gens>, grown
    conjugate by conjugate on a stabilizer chain: an oracle independent of
    the engines' own closure."""
    ncl = StabChain(npoints, seed)
    frontier = list(ncl.gens)
    conjugators = [(h, perm_inverse(h)) for h in group_gens]
    while frontier:
        nxt = []
        for h, h_inv in conjugators:
            for g in frontier:
                c = compose(h, compose(g, h_inv))
                if ncl.add(c):
                    nxt.append(c)
        frontier = nxt
    return ncl
