"""Self-similar group presets: wreath recursions, reduction rules, branching data.

A preset bundles everything needed to compute in one group: the tree degree,
one wreath recursion per generator (root permutation + d section words), a
finite set of length-non-increasing reduction rules, and a seed generating
set for the designated branching subgroup.  Reduction applies the rules in
one stack pass; the reduced word is canonical when the rules are confluent,
as every shipped preset's are.

A reduced word is a sequence of letter codes, one per canonical letter
g^e (e mod the declared order of g): `bytes` numbered 1..L in (name,
exponent) order when every generator has a declared order and L < 256,
else a tuple of ints coded from g's index and a zigzag of e (`_Letters`).
Either way a code is a function of the definition alone, so a code word
means the same on every instance of a preset.  An action table with one
row per top letter, indexed by the incoming letter (lists, or for tuples
dicts filled on first read), says whether a letter is pushed or, with
the top letter, replaced by others.  Definitions and text hold (name,
exponent) factors: `reduce` encodes them, `decode` gives them back.  The
text syntax is whitespace-separated factors with optional ^-exponents
("a b a^-1"); a single run of one-letter generator names may also be
written without spaces ("abab").

A preset read from a definition dict or file is checked by
`validate_preset` as it loads and refused with every issue listed; the
shipped presets are built directly and skip the check.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from math import isqrt

from .tree import MAX_DEGREE

Factor = tuple[str, int]
Factors = tuple[Factor, ...]
Codes = bytes | tuple[int, ...]  # a word of letter codes

_MAX_REDUCTION_PASSES = 1000
RULE_BUDGET = 500  # sections the word problem may walk to check one rule
RULE_LETTERS = 50_000  # and their letters in all


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
    branch_key: str | None = None  # set by the shipped constructors only: a key of `branching.BRANCH_DATA`

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
        # Mutable memo tables, shared by the element engine.  The section cache
        # is the node table (`words.Node`); the order memo is keyed by its nodes.
        self._section_cache: dict = {}
        self._order_cache: dict = {}
        self._letter_cache: dict = {}
        self._perm_cache: dict = {}
        # Level k's vertices in lexicographic order at index k, grown by
        # `words.portrait_factors` to the deepest portrait asked; every portrait
        # shares these tuples as its decoration keys.
        self._level_vertices: list = []

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
        return {lhs[0][0]: lhs[0][1] for lhs, rhs in self.reduction_rules if _power_rule(lhs, rhs)}

    # The letter codes (see the module docstring), built on first use.
    @cached_property
    def _word_type(self) -> type:
        orders = self.gen_order
        closed = all(g in orders for g in self.gen_names) and sum(orders[g] - 1 for g in self.gen_names) < 256
        return bytes if closed else tuple

    @cached_property
    def _letter_of(self) -> list | _Letters:  # code -> (g, e), code 0 being none
        if self._word_type is tuple:
            return _Letters(self.gen_names)
        return [None] + sorted((g, e) for g in self.gen_names for e in range(1, self.gen_order[g]))

    @cached_property
    def _code_of(self) -> dict:  # (g, e) -> code, filled for every factor met
        return {f: c for c, f in enumerate(self._letter_of) if c} if self._word_type is bytes else {}

    @cached_property
    def _action(self) -> list | defaultdict:
        """Row top, entry incoming: None to push the incoming letter, else
        the letters that replace both, reversed; top 0 is the empty stack.
        Full lists for `bytes` words, else dicts that `_rewrite` fills."""
        if self._word_type is bytes:
            n = len(self._letter_of)
            rows = [[self._merge(t, f) for f in range(n)] for t in range(n)]
        else:
            rows = defaultdict(dict)
        for lhs, rhs in self.reduction_rules:
            if len(lhs) == 2 and lhs[0][0] != lhs[1][0] and all(g in self.gen_map for g, _ in lhs):
                t, f = map(self._encode, lhs)
                if (self._letter_of[t], self._letter_of[f]) == lhs:  # else no reduced word holds it
                    rows[t][f] = tuple(c for c in map(self._encode, reversed(rhs)) if c)
        return rows

    @cached_property
    def is_p_preset(self) -> bool:
        """Prime degree p and every root permutation x -> x + c: each level quotient is a p-group."""
        p = self.degree
        return p > 1 and all(p % k for k in range(2, isqrt(p) + 1)) and all(
            g.root_perm == tuple((x + g.root_perm[0]) % p for x in range(p)) for g in self.generators)

    # -- word handling ----------------------------------------------------

    def _encode(self, factor: Factor) -> int:
        """The code of g^e's canonical letter for factor = (g, e), 0 when it is trivial."""
        code = self._code_of.get(factor)
        if code is None:
            g, e = factor
            if e and g not in self.gen_map:
                raise PresetError(f"unknown generator {g!r}")
            e = e % o if (o := self.gen_order.get(g)) else e
            if not e:
                code = 0
            elif self._word_type is bytes:
                code = self._code_of[g, e]
            else:  # see `_Letters`
                code = 1 + self.gen_names.index(g) + len(self.gen_names) * (2 * e - 2 if e > 0 else -2 * e - 1)
            self._code_of[factor] = code
        return code

    def _merge(self, top: int, f: int) -> tuple[int, ...] | None:
        """The action of letter f on top letter top without pair rules:
        powers of one generator merge into one letter or none."""
        if top and f:
            (g, e), (h, k) = self._letter_of[top], self._letter_of[f]
            if g == h:
                c = self._encode((g, e + k))
                return (c,) if c else ()
        return None

    def decode(self, word: Codes) -> Factors:
        """The (name, exponent) factors of a code word."""
        return tuple(map(self._letter_of.__getitem__, word))

    def reduce(self, factors) -> Codes:
        """Reduced form of a sequence of (name, exponent) factors or of letter codes."""
        if factors and type(factors[0]) is not int:
            try:
                factors = [c for c in map(self._code_of.__getitem__, factors) if c]
            except KeyError:
                factors = [c for c in map(self._encode, factors) if c]
        return self._word_type(self._rewrite([], factors))

    def product(self, u: Codes, v: Codes) -> Codes:
        """Reduced form of u·v for reduced u and v.  Only the junction is
        rewritten: once a letter of v lies on top, the rest of v follows."""
        out = list(u)
        for i, f in enumerate(v):
            self._rewrite(out, (f,))
            if out and out[-1] == f:
                return self._word_type(out) + v[i + 1:]
        return self._word_type(out)

    def _rewrite(self, out: list, word) -> list:
        """One stack pass of the rules over word onto out, a reduced stack;
        returns out.  An incoming letter is looked up in the top letter's
        row of the action table: it is pushed, or the top is popped and the
        letters replacing both come in next.  out stays irreducible, so on a
        confluent rule set the result is the canonical form."""
        action = self._action
        limit = _MAX_REDUCTION_PASSES * (len(out) + len(word) + 1)
        top = out[-1] if out else 0
        row = action[top]
        pending = []
        for f in word:
            while True:
                try:
                    act = row[f]
                except KeyError:
                    act = row[f] = self._merge(top, f)
                if act is None:
                    out.append(f)
                    top = f
                    row = action[f]
                else:
                    limit -= 1
                    if limit < 0:
                        raise PresetError("reduction did not terminate (non-terminating rules?)")
                    out.pop()
                    top = out[-1] if out else 0
                    row = action[top]
                    pending += act
                if not pending:
                    break
                f = pending.pop()
        return out

    def parse_word(self, text: str) -> Codes:
        """Parse the word syntax into a reduced code word."""
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


class _Letters(dict):
    """The letters of a tuple preset by code, computed on first read.  With
    n generators, g^e has code 1 + i + n * z for g the i-th generator and z
    the zigzag 2e - 2 (e > 0) or -2e - 1 (e < 0) of e, so that a code word
    means the same letters on every preset with these generators."""

    def __init__(self, names: tuple[str, ...]):
        super().__init__({0: None})
        self.names = names

    def __missing__(self, code: int) -> Factor:
        q, i = divmod(code - 1, len(self.names))
        letter = self[code] = self.names[i], (q >> 1) + 1 if q & 1 == 0 else ~(q >> 1)
        return letter


def _power_rule(lhs: Factors, rhs: Factors) -> bool:
    """Whether a rule reads g^k -> 1 with k >= 2, the one-factor form `reduce` applies."""
    return rhs == () and len(lhs) == 1 and lhs[0][1] > 1


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
    preset = GroupPreset(
        degree=2,
        generators=gens,
        reduction_rules=rules + pair_rules,
        branching_generators=(w("a", "b", "a", "b"),),
        contracting_certified=True,
        name="grigorchuk",
    )
    preset.branch_key = "grigorchuk"
    return preset


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
    preset = GroupPreset(
        degree=d,
        generators=gens,
        reduction_rules=rules,
        branching_generators=(commutator,),
        contracting_certified=True,  # a bounded automaton group is contracting
        name=f"ggs-{d}-" + ",".join(str(e) for e in E),
    )
    preset.branch_key = {(3, (1, 2)): "gupta-sidki", (3, (1, 0)): "ggs:3:1,0"}.get((d, E))
    return preset


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


def _never_applied(preset: GroupPreset, i: int, lhs: Factors, rhs: Factors, kept: dict) -> str | None:
    """Why `reduce` never applies rule i, lhs -> rhs, or None if it can.
    kept maps each generator to its last power rule, the one `gen_order`
    keeps; pair rules are matched on canonical letters only."""
    if not (len(lhs) == 1 or len(lhs) == 2):
        return "rule lhs must have 1 or 2 factors"
    (g, _), *rest = lhs
    if not rest:
        if not _power_rule(lhs, rhs):
            return "a one-factor rule must read g^k -> 1 with k >= 2"
        return None if kept[g] == i else f"rule {kept[g]} also gives the order of {g}; only the last is kept"
    if rest[0][0] == g:
        return f"both factors are powers of {g}, which merge before pair rules are read"
    for g, e in lhs:
        if g in preset.gen_map and preset._letter_of[preset._encode((g, e))] != (g, e):
            o = preset.gen_order.get(g)
            return f"{g}^{e} is no letter of a reduced word: its exponent must be " + (
                f"in 1..{o - 1}, as {g} has order {o}" if o else "nonzero")
    return None


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
    rules = preset.reduction_rules
    kept = {lhs[0][0]: i for i, (lhs, rhs) in enumerate(rules) if _power_rule(lhs, rhs)}  # the last wins
    for i, (lhs, rhs) in enumerate(rules):
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
        why = _never_applied(preset, i, lhs, rhs, kept)
        if why:
            issues.append(ValidationIssue("unsupported-rule", f"rule {i}", why))
    for i, wrd in enumerate(preset.branching_generators):
        check_word(wrd, f"branching generator {i}")
    return issues or _false_rules(preset)


def _false_rules(preset: GroupPreset) -> list[ValidationIssue]:
    """Each rule lhs -> rhs as a claim: lhs rhs^-1 is trivial in the shadow
    preset, the definition without rules or branching, decided by the word
    problem within RULE_BUDGET sections of RULE_LETTERS letters in all."""
    from .subgroups import first_moved_vertex  # subgroups imports this module
    from .tree import LEVEL_CAP, format_vertex
    from .words import BudgetExhausted, Word, is_identity_factors
    data = preset.to_dict()
    del data["rules"], data["branching"]
    shadow, issues = _preset_from_dict(data), []
    for i, (lhs, rhs) in enumerate(preset.reduction_rules):
        w = Word(shadow, lhs + tuple((g, -e) for g, e in reversed(rhs)))
        try:
            if is_identity_factors(shadow, w.factors, RULE_BUDGET, letters=RULE_LETTERS):
                continue
        except BudgetExhausted:
            why = f"lhs rhs^-1 not decided within {RULE_BUDGET} sections of {RULE_LETTERS} letters in all"
            issues.append(ValidationIssue("unchecked-rule", f"rule {i}", why))
            continue
        n = next((n for n in range(1, LEVEL_CAP + 1) if not w.fixes_level(n)), None)
        moved = format_vertex(first_moved_vertex((w,), n)) if n else f"one below level {LEVEL_CAP}"
        issues.append(ValidationIssue("false-rule", f"rule {i}", f"lhs rhs^-1 = {w} moves vertex {moved}"))
    return issues
