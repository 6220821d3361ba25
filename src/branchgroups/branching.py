"""Checked branch data of the shipped presets: |G_n| by the branch recursion.

Let K_m be the level-m image of the normal closure of a preset's branching
words, and K' its preimage in G, so that St_G(m) <= K' and |G:K'| =
|G_m : K_m|.  A lift table holds, for each nontrivial Schreier generator
gamma(i, s) = r_i s r_{i.s}^-1 of K' (over the breadth-first coset
representatives r_i) and each first-level vertex x, a word of K' in St(1)
whose section at x is gamma and whose other first-level sections are 1.
Then psi, which sends an element of St(1) to its first-level sections, maps
L = psi^-1(K'^d) onto K'^d with L <= K', and St_G(m + 1) <= L, so for
n >= m + 1

    |G_n| = |G:K'| |K':L| (|G_{n-1}| / |G:K'|)^d

(Grigorchuk's computation of |G:St(n)| through K: de la Harpe, Topics in
Geometric Group Theory, 2000, ch. VIII; Bartholdi, Grigorchuk and Sunic,
Branch groups, Handbook of Algebra 3, 2003).  `quotients.quotient_order`
trusts the data: above level m it applies the recursion to |G_m| from the
engine.  `check` re-derives all of it exactly, the level-(m + 1) step
against the engine too; `group validate` and a test run it, not every
start.  Only the shipped constructors set `GroupPreset.branch_key`, so a
preset read from a definition stays on the engine whatever its name.

Each entry is the first word of one `subgroups.enumerate_reduced_words`
walk, within 100,000 words, that lies in St(1) and K' and has exactly one
nontrivial first-level section, equal to gamma: the walk took 22,141 words
on Grigorchuk, 68,280 on Gupta-Sidki and 3,866 on ggs:3:1,0.
"""

from __future__ import annotations

from .presets import GroupPreset, ValidationIssue
from .quotients import compose, full_level_group, image_subgroup, perm_inverse, word_perm
from .words import Word


class BranchData:
    """m, |G:K'|, |K':L| and the lift table: gamma's text -> its entries at x = 0..d-1."""

    def __init__(self, m: int, index: int, lift_index: int, lifts: dict[str, tuple[str, ...]]):
        self.m, self.index, self.lift_index, self.lifts = m, index, lift_index, lifts

    def order(self, d: int, top: int, n: int) -> int:
        """|G_n| for n >= m, from top = |G_m|."""
        for _ in range(n - self.m):
            top = self.index * self.lift_index * (top // self.index) ** d
        return top


def check(preset: GroupPreset) -> tuple[dict, list[ValidationIssue]]:
    """The preset's branch data, re-derived: m, |G:K'|, |K':L| and the
    number of lift entries, and the first issue found as a list of at most one."""
    data, d = BRANCH_DATA[preset.branch_key], preset.degree
    m, gens = data.m, [Word.generator(preset, g) for g in preset.gen_names]
    perms = [word_perm(g, m) for g in gens]
    kernel = image_subgroup([Word(preset, w) for w in preset.branching_generators], m)
    for h in kernel.gens:  # grows while it is walked: K_m, closed under conjugation by G_m
        for s in perms:
            kernel.add(compose(s, compose(h, perm_inverse(s))))
    inside = lambda w: kernel.contains(word_perm(w, m))  # noqa: E731
    reps, gammas = [Word.identity(preset)], []
    for r in reps:  # grows while it is walked: the coset table of G/K', breadth first
        for s in gens:
            j = next((j for j, t in enumerate(reps) if inside(r * s * t.inverse())), None)
            if j is None:
                reps.append(r * s)
            elif (g := r * s * reps[j].inverse()) not in gammas and not g.is_identity():
                gammas.append(g)
    full = full_level_group(preset, m + 1)
    below = full.order(m)  # |G_m|
    index = below // kernel.order()
    lift_index, rest = divmod(full.order(), index * (below // index) ** d)
    summary = {"m": m, "index": index, "lift_index": lift_index, "entries": d * len(gammas)}
    if rest or (index, lift_index) != (data.index, data.lift_index):
        why = f"shipped {data.index} and {data.lift_index}, derived {index} and {lift_index} remainder {rest}"
        return summary, [ValidationIssue("bad-branch-index", "|G:K'| and |K':L|", why)]
    if sorted(data.lifts) != sorted(map(str, gammas)) or any(len(e) != d for e in data.lifts.values()):
        why = f"the keys are not the Schreier generators {', '.join(map(str, gammas))}, with {d} entries each"
        return summary, [ValidationIssue("bad-lift-table", "lift table", why)]
    for gamma in gammas:
        for x, text in enumerate(data.lifts[str(gamma)]):
            w = Word.from_str(preset, text)
            why = _fault(w, x, gamma) or (None if inside(w) else f"its level-{m} image is outside K_{m}")
            if why:
                return summary, [ValidationIssue("bad-lift", f"lift entry {x} of {gamma}", f"{text}: {why}")]
    return summary, []


def _fault(w: Word, x: int, gamma: Word) -> str | None:
    """Why w is no lift of gamma at x by the word problem, or None."""
    if not w.fixes_level(1):
        return "it moves a first-level vertex"
    for y in range(w.preset.degree):
        target = gamma if y == x else Word.identity(w.preset)
        if not (w.section((y,)) * target.inverse()).is_identity():
            return f"its section at {y} is not {target}"
    return None


BRANCH_DATA = {
    "grigorchuk": BranchData(3, 16, 4, {
        "b a b a": ("a d a b a d a b", "d a b a d a b a"),
        "a b a b": ("b a d a b a d a", "a b a d a b a d"),
        "c a b a d": ("a b a b a d a b a c a", "b a b a d a b a c"),
        "d a b a c": ("a c a b a d a b a b a", "c a b a d a b a b"),
        "a c a b a d a": ("b a b a b a d a b a c a b", "a b a b a b a d a b a c a b a"),
        "a d a b a c a": ("b a c a b a d a b a b a b", "a b a c a b a d a b a b a b a"),
        "c a c a c a c a": ("a b a c a b a c a b a c a b a c", "a c a b a c a b a c a b a c a b"),
        "c a d a d a c a": ("a d a b a d a b", "d a b a d a b a"),
        "a c a c a c a c": ("a b a c a b a c a b a c a b a c", "a c a b a c a b a c a b a c a b"),
        "a c a d a d a c": ("b a d a b a d a", "a b a d a b a d"),
    }),
    "gupta-sidki": BranchData(2, 9, 9, {
        "b a b^2 a^2": (
            "a b a b a b^2 a b^2 a b^2 a b", "b a b a b a b a b^2 a b^2 a b",
            "b a b a b^2 a b^2 a b^2 a b a"),
        "a b a b^2 a": (
            "b a b a b a b^2 a b^2 a b^2 a", "a b a b a b a b^2 a b^2 a b^2",
            "a^2 b a b a b a b^2 a b^2 a b^2 a^2"),
        "b^2 a b a^2": (
            "a b a b a b a b a b^2 a^2 b a^2 b^2", "a^2 b a b a b a b a b^2 a^2 b a^2 b^2 a^2",
            "b a b a b a b a b^2 a^2 b a^2 b^2 a"),
        "a^2 b a b^2": (
            "a^2 b^2 a b a b a b a b^2 a b^2 a^2", "b^2 a b a b a b a b^2 a b^2 a",
            "a b^2 a b a b a b a b^2 a b^2"),
        "a b^2 a b a": (
            "b a b a b a b a b a b^2 a^2 b a^2 b", "a b a b a b a b a b a b^2 a^2 b a^2 b a^2",
            "a^2 b a b a b a b a b a b^2 a^2 b a^2 b a"),
        "a^2 b^2 a b": (
            "b^2 a b a b a b a b a b^2 a^2 b a^2", "a b^2 a b a b a b a b a b^2 a^2 b a",
            "a^2 b^2 a b a b a b a b a b^2 a^2 b"),
    }),
    "ggs:3:1,0": BranchData(2, 9, 9, {
        "b a b^2 a^2": (
            "a b a^2 b a b^2 a^2 b^2", "a^2 b a^2 b a b^2 a^2 b^2 a^2",
            "b a^2 b a b^2 a^2 b^2 a"),
        "a b a b^2 a": (
            "b a b a^2 b a b^2 a^2 b", "a b a b a^2 b a b^2 a^2 b a^2",
            "a^2 b a b a^2 b a b^2 a^2 b a"),
        "b^2 a b a^2": (
            "a b^2 a^2 b a b a^2 b^2", "a^2 b^2 a^2 b a b a^2 b^2 a^2",
            "b^2 a^2 b a b a^2 b^2 a"),
        "a^2 b a b^2": ("b^2 a b a^2 b a b^2 a^2", "a b^2 a b a^2 b a b^2 a", "a^2 b^2 a b a^2 b a b^2"),
        "a b^2 a b a": (
            "b a b^2 a^2 b a b a^2 b", "a b a b^2 a^2 b a b a^2 b a^2",
            "a^2 b a b^2 a^2 b a b a^2 b a"),
        "a^2 b^2 a b": ("b^2 a b^2 a^2 b a b a^2", "a b^2 a b^2 a^2 b a b a", "a^2 b^2 a b^2 a^2 b a b"),
    }),
}
