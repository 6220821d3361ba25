"""Self-similar group presets: wreath recursions, reduction rules, branching data.

A preset bundles everything needed to compute in one group: the tree degree,
one wreath recursion per generator (root permutation + d section words), a
finite set of length-non-increasing reduction rules, and a seed generating
set for the designated branching subgroup.  Reduction applies the rules in
one stack pass; the reduced word is canonical when the rules are confluent,
as every shipped preset's are.

Words are stored as tuples of (generator name, exponent) factors; a reduced
word holds the preset's canonical letter objects, so memo tables share them
instead of copying one tuple per factor.  The text
syntax is whitespace-separated factors with optional ^-exponents
("a b a^-1"); a single run of one-letter generator names may also be written
without spaces ("abab").

A preset read from a definition dict or file is checked by
`validate_preset` as it loads and refused with every issue listed; the
shipped presets are built directly and skip the check.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt

from .tree import MAX_DEGREE

Factor = tuple[str, int]
Factors = tuple[Factor, ...]

_MAX_REDUCTION_PASSES = 1000


class PresetError(ValueError):
    """Raised for malformed presets or words."""


class GeneratorRecursion:
    """One generator: its root permutation and its d section words."""

    def __init__(self, name: str, root_perm: tuple[int, ...], sections: tuple[Factors, ...]):
        self.name = name
        self.root_perm = root_perm
        self.sections = sections


class ValidationIssue:
    def __init__(self, code: str, location: str, message: str):
        self.code = code
        self.location = location
        self.message = message


class GroupPreset:
    unknown_keys: tuple[str, ...] = ()  # of the definition dict it was read from

    def __init__(
        self,
        degree: int,
        generators: tuple[GeneratorRecursion, ...],
        reduction_rules: tuple[tuple[Factors, Factors], ...],
        branching_generators: tuple[Factors, ...],
        contracting_certified: bool = False,  # recorded in the fingerprint; no budget trusts it
        name: str = "",
    ):
        self.degree = degree
        self.generators = generators
        self.reduction_rules = reduction_rules
        self.branching_generators = branching_generators
        self.contracting_certified = contracting_certified
        self.name = name

    # -- derived tables ---------------------------------------------------

    @cached_property
    def gen_map(self) -> dict[str, GeneratorRecursion]:
        return {g.name: g for g in self.generators}

    @cached_property
    def gen_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    @cached_property
    def gen_order(self) -> dict[str, int]:
        """Orders declared by rules of the form x^k -> 1."""
        orders: dict[str, int] = {}
        for lhs, rhs in self.reduction_rules:
            if rhs == () and len(lhs) == 1 and lhs[0][1] > 1:
                orders[lhs[0][0]] = lhs[0][1]
        return orders

    @cached_property
    def letters(self) -> "_LetterTable":
        """Canonical letters: letters[(g, e)] is the one object every reduced
        word holds for g^(e mod the declared order of g), None when that
        power is trivial."""
        return _LetterTable({name: self.gen_order.get(name, 0) for name in self.gen_names})

    @cached_property
    def pair_table(self) -> dict[tuple[Factor, Factor], Factors]:
        """Rules whose left side is a product of two factors; right-hand
        sides in canonical letters."""
        table: dict[tuple[Factor, Factor], Factors] = {}
        for lhs, rhs in self.reduction_rules:
            if len(lhs) == 2:
                table[(lhs[0], lhs[1])] = tuple(f for f in map(self.letters.__getitem__, rhs) if f)
        return table

    @cached_property
    def inverse_perms(self) -> dict[str, tuple[int, ...]]:
        inv = {}
        for g in self.generators:
            p = [0] * self.degree
            for i, x in enumerate(g.root_perm):
                p[x] = i
            inv[g.name] = tuple(p)
        return inv

    @cached_property
    def is_p_preset(self) -> bool:
        """Prime degree p and every root permutation x -> x + c: each level quotient is a p-group."""
        p = self.degree
        return p > 1 and all(p % k for k in range(2, isqrt(p) + 1)) and all(
            g.root_perm == tuple((x + g.root_perm[0]) % p for x in range(p)) for g in self.generators)

    # Mutable memo tables, shared by the element engine.  The section cache
    # is the node table (`words.Node`); the order memo is keyed by its nodes.
    @cached_property
    def _section_cache(self) -> dict:
        return {}

    @cached_property
    def _order_cache(self) -> dict:
        return {}

    @cached_property
    def _letter_cache(self) -> dict:
        return {}

    @cached_property
    def _perm_cache(self) -> dict:
        return {}

    # Level k's vertices in lexicographic order at index k, grown by
    # `words.portrait_factors` to the deepest portrait asked; every portrait
    # shares these tuples as its decoration keys.
    @cached_property
    def _level_vertices(self) -> list:
        return []

    # -- word handling ----------------------------------------------------

    def reduce(self, factors) -> Factors:
        """Reduced form of a factor sequence under the preset's rules."""
        pending = [f for f in map(self.letters.__getitem__, factors) if f]
        pending.reverse()
        return self._rewrite([], pending, ())

    def product(self, u: Factors, v: Factors) -> Factors:
        """Reduced form of u·v for reduced u and v.

        Only the junction is rewritten: once a factor of v is pushed
        unchanged, the rest of v follows as it is.
        """
        return self._rewrite(list(u), [], v)

    def _rewrite(self, out: list, pending: list, tail: Factors) -> Factors:
        """One stack pass of the rules over pending, then tail, onto out.

        out is a reduced stack and pending a stack of letters still to push
        (next one last); tail is a reduced word that follows them.  All hold
        canonical letters, so an incoming letter is pushed as the object it
        is unless it merges with the top of out: a shared generator's
        exponents add up, and their canonical letter (taken mod the declared
        order) replaces both.  The letter is then tried against the pair
        table with the top; a rule's right-hand side goes back on pending.
        out is irreducible after every step, so on a confluent rule set the
        result is the canonical form.  Once a factor of tail is pushed
        unchanged with nothing pending, the rest of tail is appended as it is.
        """
        letters = self.letters
        table = self.pair_table
        limit = _MAX_REDUCTION_PASSES * (len(out) + len(pending) + len(tail) + 1)
        rewrites = 0
        i, n = 0, len(tail)
        top = out[-1] if out else None  # kept equal to out[-1] on every push and pop
        while True:
            if pending:
                f = pending.pop()
                fresh = False
            elif i < n:
                f = tail[i]
                i += 1
                fresh = True
            else:
                return tuple(out)
            if top is not None and top[0] == f[0]:
                f = letters[(f[0], top[1] + f[1])]
                out.pop()
                top = out[-1] if out else None
                if f is None:
                    continue
                fresh = False
            if table and top is not None:
                rhs = table.get((top, f))
                if rhs is not None:
                    rewrites += 1
                    if rewrites > limit:
                        raise PresetError("reduction did not terminate (non-terminating rules?)")
                    out.pop()
                    top = out[-1] if out else None
                    pending.extend(reversed(rhs))
                    continue
            out.append(f)
            top = f
            if fresh:
                out.extend(tail[i:])
                return tuple(out)

    def parse_word(self, text: str) -> Factors:
        """Parse the word syntax into reduced factors."""
        return self.reduce(_tokenize(text, self.gen_map))

    @staticmethod
    def format_factors(factors: Factors) -> str:
        if not factors:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in factors)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "degree": self.degree,
            "generators": [
                {
                    "name": g.name,
                    "root_perm": list(g.root_perm),
                    "sections": [self.format_factors(s) for s in g.sections],
                }
                for g in self.generators
            ],
            "rules": [
                {"lhs": self.format_factors(l), "rhs": self.format_factors(r)}
                for l, r in self.reduction_rules
            ],
            "branching": [self.format_factors(w) for w in self.branching_generators],
            "contracting": self.contracting_certified,
        }

    def fingerprint(self) -> str:
        import hashlib
        import json
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _LetterTable(dict):
    """(g, e) -> the one (g, e mod o) object, o the declared order of g (0
    for none), or None when that power is trivial.  A miss checks that g is
    a generator and fills the entry."""

    def __init__(self, mods: dict[str, int]):
        super().__init__()
        self.mods = mods

    def __missing__(self, factor: Factor) -> Factor | None:
        g, e = factor
        if e:
            try:
                o = self.mods[g]
            except KeyError:
                raise PresetError(f"unknown generator {g!r}") from None
            if o:
                e %= o
        letter = self.setdefault((g, e), (g, e)) if e else None
        self[factor] = letter
        return letter


def _tokenize(text: str, names, strict: bool = True) -> Factors:
    """Unreduced factors of the word syntax over a set of generator names.
    Unless strict, an unknown name is kept as a factor for
    `validate_preset` to report."""
    factors: list[Factor] = []
    for token in str(text).replace("*", " ").split():
        name, _, exp = token.partition("^")
        try:
            e = int(exp) if exp else 1
        except ValueError:
            raise PresetError(f"bad exponent in token {token!r}") from None
        if name in names:
            factors.append((name, e))
        elif name and all(c in names for c in name):
            # run of one-letter generators, e.g. "abab"
            for c in name[:-1]:
                factors.append((c, 1))
            factors.append((name[-1], e))
        elif name in ("1", ""):
            continue
        elif strict:
            raise PresetError(f"unknown generator in token {token!r}")
        else:
            factors.append((name, e))
    return tuple(factors)


def preset_from_dict(data: dict) -> GroupPreset:
    """The preset a definition dict describes; PresetError lists every issue
    `validate_preset` finds, so a malformed preset never computes."""
    preset = _preset_from_dict(data)
    issues = validate_preset(preset)
    if issues:
        found = "; ".join(f"{i.code} at {i.location}: {i.message}" for i in issues)
        raise PresetError(f"invalid preset: {found}")
    return preset


# The keys `GroupPreset.to_dict` writes, and the fingerprint `group show` adds.
_DEFINITION_KEYS = (
    "branching", "contracting", "degree", "fingerprint", "generators", "name", "rules",
)
# The `meta` object of `group show --format json`, ignored so that its output loads back too.
_IGNORED_KEYS = ("meta",)


# Each definition field's JSON type, and a list's item type.
_FIELD_TYPES = {"degree": (int, None), "name": (str, None), "lhs": (str, None), "rhs": (str, None),
                "contracting": (bool, None), "generators": (list, dict), "rules": (list, dict),
                "root_perm": (list, int), "sections": (list, str), "branching": (list, str)}


def _field(obj: dict, key: str, *default):
    """obj[key], or the default when the key is absent; PresetError unless it has the field's JSON type."""
    value = obj.get(key, *default) if default else obj[key]
    kind, item = _FIELD_TYPES[key]
    if type(value) is not kind or item and any(type(x) is not item for x in value):
        raise PresetError(f"malformed group definition: {key!r} is not a {kind.__name__}"
                          + (f" of {item.__name__}" if item else ""))
    return value


def _preset_from_dict(data: dict) -> GroupPreset:
    """The preset a definition dict describes, unchecked; any other
    top-level key is kept for `validate_preset` to report.  A missing
    field, or one of the wrong JSON type, raises PresetError."""
    try:
        degree, specs = _field(data, "degree"), _field(data, "generators")
        names = {_field(g, "name") for g in specs}
        gens = tuple(GeneratorRecursion(g["name"], tuple(_field(g, "root_perm")),
                                        tuple(_tokenize(s, names, False) for s in _field(g, "sections")))
                     for g in specs)
        rules = tuple((_tokenize(_field(r, "lhs"), names, False), _tokenize(_field(r, "rhs"), names, False))
                      for r in _field(data, "rules", []))
        branching = tuple(_tokenize(w, names, False) for w in _field(data, "branching", []))
        contracting, name = _field(data, "contracting", False), _field(data, "name", "")
    except (KeyError, TypeError) as exc:
        raise PresetError(f"malformed group definition: {exc}") from exc
    preset = GroupPreset(degree, gens, rules, branching, contracting, name)
    preset.unknown_keys = tuple(str(k) for k in data if k not in _DEFINITION_KEYS + _IGNORED_KEYS)
    return preset


def load_preset(path) -> GroupPreset:
    import json
    with open(path, encoding="utf-8") as fh:
        return preset_from_dict(json.load(fh))


def save_preset(preset: GroupPreset, path) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(preset.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- shipped presets ------------------------------------------------------


def grigorchuk_preset() -> GroupPreset:
    """The first Grigorchuk group on the binary tree."""
    w = lambda *names: tuple((n, 1) for n in names)  # noqa: E731
    gens = (
        GeneratorRecursion("a", (1, 0), (w(), w())),
        GeneratorRecursion("b", (0, 1), (w("a"), w("c"))),
        GeneratorRecursion("c", (0, 1), (w("a"), w("d"))),
        GeneratorRecursion("d", (0, 1), (w(), w("b"))),
    )
    rules = tuple((((x, 2),), ()) for x in "abcd")
    pair_rules = tuple(
        (w(x, y), w(z))
        for x, y, z in [
            ("b", "c", "d"),
            ("c", "b", "d"),
            ("b", "d", "c"),
            ("d", "b", "c"),
            ("c", "d", "b"),
            ("d", "c", "b"),
        ]
    )
    return GroupPreset(
        degree=2,
        generators=gens,
        reduction_rules=rules + pair_rules,
        branching_generators=(w("a", "b", "a", "b"),),
        contracting_certified=True,
        name="grigorchuk",
    )


def ggs_preset(d: int, E) -> GroupPreset:
    """The GGS group on the d-regular tree with defining vector E."""
    if not 2 <= d <= MAX_DEGREE:
        raise PresetError(f"GGS degree must be in 2..{MAX_DEGREE}, got {d}")
    E = tuple(int(e) % d for e in E)
    if len(E) != d - 1:
        raise PresetError(f"defining vector must have length {d - 1}, got {len(E)}")
    cycle = tuple((i + 1) % d for i in range(d))
    b_sections = tuple(
        ((("a", e),) if e else ()) for e in E
    ) + ((("b", 1),),)
    gens = (
        GeneratorRecursion("a", cycle, tuple(() for _ in range(d))),
        GeneratorRecursion("b", tuple(range(d)), b_sections),
    )
    rules = (((("a", d),), ()), ((("b", d),), ()))
    commutator = (("a", -1), ("b", -1), ("a", 1), ("b", 1))
    return GroupPreset(
        degree=d,
        generators=gens,
        reduction_rules=rules,
        branching_generators=(commutator,),
        contracting_certified=True,  # a bounded automaton group is contracting
        name=f"ggs-{d}-" + ",".join(str(e) for e in E),
    )


def gupta_sidki_preset() -> GroupPreset:
    """The Gupta-Sidki 3-group: GGS with d=3, E=(1,-1)."""
    return ggs_preset(3, (1, -1))


def builtin_preset(name: str) -> GroupPreset:
    """Look up a shipped preset by name."""
    if name == "grigorchuk":
        return grigorchuk_preset()
    if name in ("gupta-sidki", "gupta_sidki"):
        return gupta_sidki_preset()
    if name.startswith("ggs:"):
        # ggs:d:e1,e2,...
        try:
            _, d, vec = name.split(":")
            return ggs_preset(int(d), [int(x) for x in vec.split(",")])
        except (ValueError, PresetError) as exc:
            raise PresetError(f"bad GGS preset spec {name!r}: {exc}") from exc
    raise PresetError(f"unknown preset {name!r}")


# -- validation -----------------------------------------------------------


def validate_preset(preset: GroupPreset) -> list[ValidationIssue]:
    """Check all structural invariants; returns one issue per violation."""
    keys = ", ".join(_DEFINITION_KEYS)
    issues = [
        ValidationIssue("unknown-key", "top level", f"{k!r} is not one of {keys}")
        for k in preset.unknown_keys
    ]
    d = preset.degree
    if d < 2:
        issues.append(ValidationIssue("invalid-degree", "degree", f"degree {d} < 2"))
        return issues
    if d > MAX_DEGREE:
        why = f"degree {d} > {MAX_DEGREE}: vertices are one digit per letter"
        issues.append(ValidationIssue("unsupported-degree", "degree", why))
    names = [g.name for g in preset.generators]
    if len(set(names)) != len(names):
        issues.append(
            ValidationIssue("duplicate-name", "generators", "generator names not distinct")
        )
    known = set(names)

    def check_word(factors, where):
        for g, _ in factors:
            if g not in known:
                issues.append(
                    ValidationIssue("unknown-symbol", where, f"undeclared generator {g!r}")
                )

    for g in preset.generators:
        if sorted(g.root_perm) != list(range(d)):
            issues.append(
                ValidationIssue(
                    "not-a-permutation",
                    f"generator {g.name}",
                    f"root_perm {g.root_perm} is not a bijection of 0..{d - 1}",
                )
            )
        if len(g.sections) != d:
            issues.append(
                ValidationIssue(
                    "wrong-section-count",
                    f"generator {g.name}",
                    f"expected {d} sections, got {len(g.sections)}",
                )
            )
        for i, s in enumerate(g.sections):
            check_word(s, f"generator {g.name}, section {i}")
    for i, (lhs, rhs) in enumerate(preset.reduction_rules):
        check_word(lhs, f"rule {i} lhs")
        check_word(rhs, f"rule {i} rhs")
        llen = sum(abs(e) for _, e in lhs)
        rlen = sum(abs(e) for _, e in rhs)
        if rlen > llen:
            issues.append(
                ValidationIssue(
                    "length-increasing-rule", f"rule {i}", f"|rhs|={rlen} > |lhs|={llen}"
                )
            )
        if not (len(lhs) == 1 or len(lhs) == 2):
            issues.append(
                ValidationIssue(
                    "unsupported-rule", f"rule {i}", "rule lhs must have 1 or 2 factors"
                )
            )
    for i, wrd in enumerate(preset.branching_generators):
        check_word(wrd, f"branching generator {i}")
    return issues
