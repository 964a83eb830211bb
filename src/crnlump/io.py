"""Text formats: native reaction lists, BioNetGen ``.net`` import,
partition files, and initial-condition files.

Native format, one reaction per line::

    # comment
    species: A B C D E          (optional; otherwise first-appearance order)
    A + B -> C , 2
    C + D -> 2C + D , 5
    E -> 0 , 1                  (0 denotes the empty side)
    init: A = 1/2               (optional initial concentrations)

Rates and initial values are parsed exactly: integers, fractions
(``3/7``), decimals (``0.1`` becomes 1/10) and scientific notation are
all turned into rationals, never floats.  Species names may contain
parentheses with nested commas (as BioNetGen complex patterns do);
separators are only recognized at bracket depth zero.

:func:`parse_crn` reads a text in whole-text passes.  Pass 1 goes line
by line with string methods only: it cuts each reaction line at its
first ``->`` and its last ``,`` and keeps the stripped sides and the rate
text; ``_strip_comment`` runs only when the text holds a ``#``.  A line
without both separators, or with a ``:`` before its first arrow (as a
header or ``init:`` line has), goes through the stripped-line rules, and
the first line refused there ends the pass.
Pass 2 reads every distinct side at once: the sides with the same number
of ``+`` are joined, split on ``+`` and regrouped, and each distinct term
is parsed once.  Bracket depth adds up over concatenation, so a side's
depth is the sum of its terms'.  The bracket-counting scans run only
where a check fails: they cut again each line with an unbalanced side
(its first arrow or last comma was inside brackets), and they split a
side with a ``+`` inside brackets.  Each distinct rate text is parsed
once, and the reactant rule is applied to reactant sides only.  The
first line with a fault then reports the first of its faults, in the
order a line is read: its reactants' syntax, its rate's, its products',
the rate's sign, the reactant rule; an undeclared species is reported
after every line fault, at the first side that names it.
:func:`parse_crn` and :func:`import_bngl_net` build the network's
integer reaction list (:func:`crnlump.core.scaled_reactions`) directly,
marked elementary, since both refuse every other reaction, and
:func:`serialize_crn` prints from it.

The ``.net`` importer understands the fully enumerated
parameters/species/reactions blocks written by BioNetGen 2.2.x and
rejects anything fancier (rate expressions other than products of
numbers and parameter names, non-sequential indices) with an error
naming the line.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, groupby
from operator import methodcaller
from typing import Iterable

from .core import (
    CRN,
    InitialCondition,
    Pairs,
    ParseError,
    Partition,
    PartitionError,
    Species,
    _check_initial_condition,
    _format_side,
    _reaction_problems,
    _scale_rates,
    _scaled_rows,
    _side_key,
    format_rational,
    scaled_reactions,
)

__all__ = [
    "parse_crn",
    "serialize_crn",
    "import_bngl_net",
    "parse_partition",
    "parse_initial_conditions",
    "partition_from_initial_conditions",
    "parse_rational",
    "format_rational",
]

_COEFF_RE = re.compile(r"^(\d+)\s*(\S.*)$")
_SPACE_RE = re.compile(r"\s")
_PLUSES = methodcaller("count", "+")
_EXPONENT_RE = re.compile(r"[\d.]e([-+]?\d+(?:_\d+)*)$", re.IGNORECASE)


def _within_digit_limit(value: Fraction, line: int | None) -> Fraction:
    """``value``, unless its numerator or denominator has more decimal
    digits than ``sys.get_int_max_str_digits()`` allows (0: no limit),
    which Python would refuse to print back."""
    limit = sys.get_int_max_str_digits()
    for n in (abs(value.numerator), value.denominator):
        # 8**limit < 10**limit, so the cheap bit test clears most values.
        if limit and n.bit_length() > 3 * limit and n >= 10**limit:
            raise ParseError(f"number has more than {limit} digits", line)
    return value


def _literal(text: str, line: int | None) -> Fraction:
    """``Fraction(text)``; an exponent beyond three times the digit limit
    is refused before ``10**exponent`` is expanded, since no nonzero
    value with it fits (mantissa and decimals are each within the limit)."""
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT_RE.search(text)
    if limit and exponent and abs(int(exponent.group(1))) > 3 * limit:
        raise ParseError(f"number has more than {limit} digits", line)
    return Fraction(text)


def parse_rational(text: str, line: int | None = None) -> Fraction:
    """Exact rational from an integer, fraction, decimal, or scientific literal.

    Raises :class:`ParseError` on a malformed literal and on one whose
    numerator or denominator has more digits than
    ``sys.get_int_max_str_digits()`` allows.
    """
    text = text.strip()
    try:
        value = _literal(text, line)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}", line) from None
    return _within_digit_limit(value, line)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _lines(text: str) -> Iterable[str]:
    """The lines of ``text`` without their comments."""
    lines = text.splitlines()
    return map(_strip_comment, lines) if "#" in text else lines


def _depth(text: str) -> int:
    """Bracket depth at the end of ``text``: openers minus closers, so a
    stray closer makes it negative."""
    return (
        text.count("(") + text.count("[") + text.count("{")
        - text.count(")") - text.count("]") - text.count("}")
    )


def _find_top(text: str, sep: str, start: int = 0) -> int:
    """Index of the first ``sep`` at bracket depth zero in ``text[start:]``
    (depth counted from ``start``), or -1.  Each character is counted once."""
    depth = 0
    scanned = start
    cut = text.find(sep, start)
    while cut >= 0:
        depth += _depth(text[scanned:cut])
        if depth == 0:
            return cut
        scanned = cut
        cut = text.find(sep, cut + 1)
    return -1


def _rfind_top(text: str, sep: str) -> int:
    """Index of the last ``sep`` at bracket depth zero, or -1: there the
    rest of the text has the depth of the whole.  Finds the rate's comma
    without splitting at the bracketed commas of product names."""
    whole = _depth(text)
    rest = 0
    scanned = len(text)
    cut = text.rfind(sep)
    while cut >= 0:
        rest += _depth(text[cut:scanned])
        if rest == whole:
            return cut
        scanned = cut
        cut = text.rfind(sep, 0, cut)
    return -1


def _split_top(text: str, sep: str) -> list[str]:
    """Split on a single-character separator at bracket depth zero."""
    parts = text.split(sep)
    if not any(map(_depth, parts[:-1])):
        # Each separator follows balanced parts, so each is at depth zero.
        return parts
    parts = []
    start = 0
    cut = _find_top(text, sep)
    while cut >= 0:
        parts.append(text[start:cut])
        start = cut + 1
        cut = _find_top(text, sep, start)
    parts.append(text[start:])
    return parts


def _parse_term(term: str) -> tuple[tuple[str, int] | None, str | None]:
    """A stripped term of a reaction side as ``((name, multiplicity),
    None)``, or ``(None, what is wrong with it)``."""
    if not term:
        return None, "empty term in reaction side"
    match = _COEFF_RE.match(term)
    if match and not match.group(2)[0].isdigit():
        mult, name = int(match.group(1)), match.group(2).strip()
    else:
        mult, name = 1, term
    if _SPACE_RE.search(name):
        return None, f"species name contains whitespace: {name!r}"
    if name[0].isdigit():
        return None, f"species name may not start with a digit: {name!r}"
    return (name, mult), None


def _cut(line: str, lineno: int) -> tuple[str, str, str]:
    """The stripped reactant and product texts and the rate text of the
    stripped reaction line ``line``, cut by the bracket-counting scans at
    its first ``->`` and its last ``,`` at depth zero.  Raises
    :class:`ParseError` when either is missing; without the comma, a fault
    of the reactant text comes first."""
    arrow = _find_top(line, "->")
    if arrow < 0:
        raise ParseError(f"expected a reaction line, got {line!r}", lineno)
    left, rest = line[:arrow].strip(), line[arrow + 2 :]
    comma = _rfind_top(rest, ",")
    if comma < 0:
        fault = _Sides({left}).faults.get(left)
        raise ParseError(fault or "missing rate (expected 'products , rate')", lineno)
    return left, rest[:comma].strip(), rest[comma + 1 :]


def _regroup(texts: list[str], items: Iterable, width: int) -> Iterable[tuple[str, tuple]]:
    """Each text of ``texts`` with the tuple of its ``width`` items, taken
    in turn from ``items``."""
    return zip(texts, zip(*[iter(items)] * width))


class _Sides:
    """The distinct stripped side texts of one network text, read at once.

    The texts with the same number of ``+`` are joined, split on ``+`` and
    regrouped in one go, and each distinct term is parsed once: ``terms``
    maps it to its bracket depth and what is wrong with it (None when
    nothing), and ``pairs`` maps each balanced term without fault to its
    ``(name, multiplicity)`` pair.  A text whose terms are all such goes
    into ``groups`` as ``(terms per side, texts, their terms)``.  Any other
    text is read on its own, into ``odd`` with its terms or into ``faults``
    with what is wrong with it: None when it is not balanced, so that its
    line was cut in the wrong place."""

    def __init__(self, texts: set[str]) -> None:
        self.terms: dict[str, tuple[int, str | None]] = {}
        self.pairs: dict[str, tuple[str, int]] = {}
        self.groups: list[tuple[int, list[str], list[str]]] = []
        self.odd: dict[str, tuple[str, ...]] = {}
        self.faults: dict[str, str | None] = {}
        if "0" in texts:
            self.odd["0"] = ()
        if "" in texts:
            self.faults[""] = "empty reaction side"
        texts = texts.difference(self.odd, self.faults)
        ordered = sorted(texts, key=_PLUSES)
        found = list(map(str.strip, "+".join(ordered).split("+")))
        self._parse(found)
        start = 0
        for pluses, group in groupby(ordered, _PLUSES):
            group = list(group)
            width = pluses + 1
            end = start + width * len(group)
            part = found[start:end]
            start = end
            if all(map(self.pairs.__contains__, part)):
                self.groups.append((width, group, part))
            else:
                for text, terms in _regroup(group, part, width):
                    self._read_one(text, terms)

    def _parse(self, found: Iterable[str]) -> None:
        """Parse each term of ``found`` not met before."""
        for term in set(found).difference(self.terms):
            depth = _depth(term)
            pair, fault = _parse_term(term)
            self.terms[term] = (depth, fault)
            if pair is not None and not depth:
                self.pairs[term] = pair

    def _read_one(self, text: str, terms: tuple[str, ...]) -> None:
        """Read the side text ``text`` from ``terms``, its terms between
        every ``+``.  Bracket depth adds up over concatenation, so the text
        is balanced exactly when its terms' depths sum to zero; a ``+``
        inside brackets is then found by the bracket-counting split."""
        depths = [self.terms[term][0] for term in terms]
        if sum(depths):
            self.faults[text] = None
            return
        if any(depths[:-1]):
            terms = tuple(map(str.strip, _split_top(text, "+")))
            self._parse(terms)
        fault = next(filter(None, (self.terms[term][1] for term in terms)), None)
        if fault is None:
            self.odd[text] = terms
        else:
            self.faults[text] = fault

    def terms_of(self) -> dict[str, tuple[str, ...]]:
        """Each side text read without fault, to its terms."""
        terms_of = dict(self.odd)
        for width, group, found in self.groups:
            terms_of.update(_regroup(group, found, width))
        return terms_of

    def rule_faults(self, reactants: set[str]) -> dict[str, str]:
        """What each side text of ``reactants`` breaks of the reactant
        rule.  One or two terms of multiplicity one make one or two
        molecules, so only a side with more terms or with another
        multiplicity is counted."""
        pairs = self.pairs
        heavy = {term for term, (_, m) in pairs.items() if m != 1}
        suspects = dict(self.odd)
        for width, group, found in self.groups:
            if width > 2 or not heavy.isdisjoint(found):
                suspects.update(_regroup(group, found, width))
        faults = {}
        for text in reactants.intersection(suspects):
            problems = _reaction_problems(molecules=sum([pairs[t][1] for t in suspects[text]]))
            if problems:
                faults[text] = problems[0]
        return faults

    def keys(self, ids: dict[str, int]) -> dict[str, Pairs]:
        """Each side text read without fault, to its species ids and
        multiplicities as :func:`crnlump.core._side_key` orders them."""
        # A term met only between the '+' inside another's brackets may
        # name no species.
        pairs = {term: (ids.get(name), m) for term, (name, m) in self.pairs.items()}
        keys = {}
        for width, group, found in self.groups:
            for text, side in _regroup(group, map(pairs.__getitem__, found), width):
                keys[text] = _side_key(side)
        for text, terms in self.odd.items():
            keys[text] = _side_key([pairs[term] for term in terms])
        return keys


def _appearance_order(
    sides: _Sides,
    linenos: list[int],
    lefts: list[str],
    rights: list[str],
    init_rows: dict[str, tuple[int, Fraction]],
) -> list[str]:
    """The species names of a text without a header, in order of first
    appearance: those of its sides, the reactants before the products,
    line by line, and those of its init lines."""
    terms_of = sides.terms_of()
    order: dict[str, None] = {}

    def note(start: int, end: int) -> None:
        for text in dict.fromkeys(chain.from_iterable(zip(lefts[start:end], rights[start:end]))):
            for term in terms_of[text]:
                order[sides.pairs[term][0]] = None

    start = 0
    for name, (lineno, _) in init_rows.items():
        end = bisect_left(linenos, lineno, start)
        note(start, end)
        order[name] = None
        start = end
    note(start, len(linenos))
    return list(order)


def _require_declared(
    declared: set[str],
    sides: _Sides,
    linenos: list[int],
    lefts: list[str],
    rights: list[str],
    init_rows: dict[str, tuple[int, Fraction]],
) -> None:
    """Raise :class:`ParseError` at the first side, in order of first
    appearance, that names a species not in ``declared``, then at the
    first such init line."""
    missing = {term for term, (name, _) in sides.pairs.items() if name not in declared}
    if missing:
        terms_of = sides.terms_of()
        for lineno, left, products in zip(linenos, lefts, rights):
            for side in (left, products):
                for term in terms_of[side]:
                    if term in missing:
                        raise ParseError(f"undeclared species {sides.pairs[term][0]}", lineno)
    for name, (lineno, _) in init_rows.items():
        if name not in declared:
            raise ParseError(f"undeclared species {name}", lineno)


def _directive(
    line: str,
    lineno: int,
    header: list[str] | None,
    init_rows: dict[str, tuple[int, Fraction]],
) -> list[str] | None:
    """Read the stripped ``species:`` or ``init:`` line ``line``: returns
    the header, and adds an init line's value to ``init_rows``."""
    if line.startswith("species:"):
        if header is not None:
            raise ParseError("duplicate species: header", lineno)
        header = line[len("species:"):].split()
        if len(set(header)) != len(header):
            raise ParseError("duplicate name in species: header", lineno)
        return header
    body = line[len("init:"):]
    if "=" not in body:
        raise ParseError("expected 'init: NAME = VALUE'", lineno)
    name, _, value_text = body.partition("=")
    name = name.strip()
    if not name:
        raise ParseError("missing species name in init line", lineno)
    value = parse_rational(value_text, lineno)
    if value < 0:
        raise ParseError("initial concentration must be nonnegative", lineno)
    if name in init_rows:
        raise ParseError(f"second initial value for {name}", lineno)
    init_rows[name] = (lineno, value)
    return header


def parse_crn(text: str) -> tuple[CRN, InitialCondition | None]:
    """Parse the native format; returns the network and its initial
    condition when ``init:`` lines are present.

    Raises :class:`ParseError` with a line number on syntax errors and on
    semantic ones (rate not positive, more than two reactant molecules,
    species missing from an explicit ``species:`` header, a second
    ``init:`` line for one species).
    """
    header: list[str] | None = None
    init_rows: dict[str, tuple[int, Fraction]] = {}
    # Pass 1: each reaction line's number, and its reactant, product and
    # rate texts cut at its first '->' and its last ','.  A line without
    # both, or whose reactant text holds a ':' (as a header or an init
    # line does), goes through the stripped-line rules.  The first line
    # refused there ends the pass.
    linenos: list[int] = []
    lefts: list[str] = []
    rights: list[str] = []
    rates: list[str] = []
    stop: ParseError | None = None
    for lineno, line in enumerate(_lines(text), start=1):
        left, _, rest = line.partition("->")
        products, comma, rate = rest.rpartition(",")
        if comma and ":" not in left:
            left, products = left.strip(), products.strip()
        else:
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith(("species:", "init:")):
                    header = _directive(line, lineno, header, init_rows)
                    continue
                left, products, rate = _cut(line, lineno)
            except ParseError as err:
                stop = err
                break
        linenos.append(lineno)
        lefts.append(left)
        rights.append(products)
        rates.append(rate)

    # Pass 2: every distinct side at once.  An unbalanced side shows that
    # the first arrow or the last comma of its line is inside brackets:
    # the scans cut each such line again, and the sides are read again.
    sides = _Sides(set(lefts).union(rights))
    cut_wrong = {side for side, fault in sides.faults.items() if fault is None}
    if cut_wrong:
        lines = list(_lines(text))
        for i, (lineno, left, products) in enumerate(zip(linenos, lefts, rights)):
            if left in cut_wrong or products in cut_wrong:
                try:
                    lefts[i], rights[i], rates[i] = _cut(lines[lineno - 1].strip(), lineno)
                except ParseError as err:
                    stop = err
                    del linenos[i:], lefts[i:], rights[i:], rates[i:]
                    break
        sides = _Sides(set(lefts).union(rights))

    # Each distinct rate text is parsed once.
    values: dict[str, Fraction] = {}
    rate_faults: dict[str, str] = {}
    sign_faults: dict[str, str] = {}
    for rate in set(rates):
        try:
            values[rate] = value = parse_rational(rate)
        except ParseError as err:
            rate_faults[rate] = str(err)
            continue
        problems = _reaction_problems(rate=value)
        if problems:
            sign_faults[rate] = problems[0]
    rule_faults = sides.rule_faults(set(lefts))

    # The first line with a fault reports the first of its faults: its
    # reactants' syntax, its rate's, its products', its rate's sign, the
    # reactant rule.  A line refused in pass 1 comes after every row.
    faults = sides.faults
    if faults or rate_faults or sign_faults or rule_faults:
        for lineno, left, products, rate in zip(linenos, lefts, rights, rates):
            fault = (
                faults.get(left)
                or rate_faults.get(rate)
                or faults.get(products)
                or sign_faults.get(rate)
                or rule_faults.get(left)
            )
            if fault:
                raise ParseError(fault, lineno)
    if stop is not None:
        raise stop

    if header is None:
        names = _appearance_order(sides, linenos, lefts, rights, init_rows)
    else:
        names = header
        _require_declared(set(header), sides, linenos, lefts, rights, init_rows)
    ids = {name: i for i, name in enumerate(names)}
    keys = sides.keys(ids)
    # Freed before the rows are built, which keeps the parse's peak lower.
    del sides
    scale, scaled = _scale_rates(list(values.values()))
    scaled_of = dict(zip(values, scaled))
    rows = tuple(
        zip(
            map(keys.__getitem__, lefts),
            map(keys.__getitem__, rights),
            map(scaled_of.__getitem__, rates),
        )
    )
    species = tuple(Species(i, name) for i, name in enumerate(names))
    crn = CRN._from_scaled(species, scale, rows, elementary=True)
    inits = None
    if init_rows:
        inits = InitialCondition.from_map(
            crn, {name: value for name, (_, value) in init_rows.items()}
        )
    return crn, inits


def serialize_crn(crn: CRN, inits: InitialCondition | None = None) -> str:
    """Canonical text for a network: species header, reaction lines in
    sorted order, then init lines.  Deterministic; reparses to an equal
    network (reaction order modulo the sort).  Raises :class:`ValueError`
    unless ``inits`` is over the species of ``crn``, and :class:`CRNError`
    when a rate or value has too many digits to print.  Reads the integer
    reaction list, and formats each distinct side and rate once."""
    if inits is not None:
        _check_initial_condition(crn, inits)
    names = [sp.name for sp in crn.species]
    lines = [("species: " + " ".join(names)).rstrip()]
    scale, rows = scaled_reactions(crn)
    sides: dict[Pairs, tuple[tuple[tuple[str, int], ...], str]] = {}
    rates: dict[int, str] = {}
    body = []
    for reactants, products, value in rows:
        for pairs in (reactants, products):
            if pairs not in sides:
                named = tuple(sorted((names[sid], m) for sid, m in pairs))
                sides[pairs] = (named, _format_side(named))
        if value not in rates:
            rates[value] = format_rational(Fraction(value, scale))
        (lhs, lhs_text), (rhs, rhs_text) = sides[reactants], sides[products]
        body.append((lhs, rhs, f"{lhs_text} -> {rhs_text} , {rates[value]}"))
    body.sort()
    lines.extend(text for _, _, text in body)
    if inits is not None:
        for sp in crn.species:
            value = inits.get(sp)
            if value:
                lines.append(f"init: {sp.name} = {format_rational(value)}")
    return "\n".join(lines) + "\n"


def _net_blocks(text: str) -> dict[str, list[tuple[int, str]]]:
    blocks: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("begin "):
            current = line[len("begin "):].strip()
            blocks.setdefault(current, [])
            continue
        if line.startswith("end "):
            current = None
            continue
        if current is not None:
            blocks[current].append((lineno, line))
    return blocks


def _net_rate(expr: str, params: dict[str, Fraction], lineno: int) -> Fraction:
    value = Fraction(1)
    for token in expr.split("*"):
        token = token.strip()
        if not token:
            raise ParseError("empty factor in rate expression", lineno)
        if token in params:
            value *= params[token]
            continue
        try:
            value *= _literal(token, lineno)
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"unsupported rate expression token {token!r}", lineno
            ) from None
    return _within_digit_limit(value, lineno)


def _net_indices(field: str, n_species: int, lineno: int) -> list[int]:
    if field.strip() == "0":
        return []
    indices = []
    for token in field.split(","):
        try:
            idx = int(token)
        except ValueError:
            raise ParseError(f"bad species index {token!r}", lineno) from None
        if not 1 <= idx <= n_species:
            raise ParseError(f"dangling species index {idx}", lineno)
        indices.append(idx - 1)
    return indices


def import_bngl_net(text: str) -> tuple[CRN, InitialCondition]:
    """Import a fully enumerated BioNetGen ``.net`` file.

    Species are named by their pattern strings verbatim and initial
    concentrations come from the species block.  Rate expressions may be
    numeric literals, parameter names, or products of those.

    Raises :class:`ParseError` with a line number on malformed lines and,
    as :func:`parse_crn` does, on reactions with no or more than two
    reactant molecules; also on a species pattern listed twice.
    """
    blocks = _net_blocks(text)
    if "species" not in blocks or "reactions" not in blocks:
        raise ParseError("missing 'begin species' or 'begin reactions' block")

    params: dict[str, Fraction] = {}
    for lineno, line in blocks.get("parameters", []):
        tokens = line.split()
        if len(tokens) == 3 and tokens[0].isdigit():
            tokens = tokens[1:]
        if len(tokens) != 2:
            raise ParseError(f"bad parameter line {line!r}", lineno)
        name, value_text = tokens
        params[name] = parse_rational(value_text, lineno)

    names: dict[str, None] = {}
    concentrations: list[Fraction] = []
    for position, (lineno, line) in enumerate(blocks["species"]):
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"bad species line {line!r}", lineno)
        idx_text, pattern, value_text = tokens
        try:
            idx = int(idx_text)
        except ValueError:
            raise ParseError(f"bad species index {idx_text!r}", lineno) from None
        if idx != position + 1:
            raise ParseError(f"non-sequential species index {idx}", lineno)
        if pattern in names:
            raise ParseError(f"duplicate species pattern {pattern!r}", lineno)
        if value_text in params:
            value = params[value_text]
        else:
            value = parse_rational(value_text, lineno)
        names[pattern] = None
        concentrations.append(value)

    species = tuple(Species(i, name) for i, name in enumerate(names))
    rows = []
    for lineno, line in blocks["reactions"]:
        tokens = line.split()
        if len(tokens) < 4:
            raise ParseError(f"bad reaction line {line!r}", lineno)
        _, reactants_field, products_field, rate_expr = tokens[:4]
        rate = _net_rate(rate_expr, params, lineno)
        # The rate is checked before the reactant field is read.
        problems = _reaction_problems(rate=rate)
        if not problems:
            reactant_ids = _net_indices(reactants_field, len(species), lineno)
            problems = _reaction_problems(molecules=len(reactant_ids))
        if problems:
            raise ParseError(problems[0], lineno)
        product_ids = _net_indices(products_field, len(species), lineno)
        lhs, rhs = (tuple((i, 1) for i in ids) for ids in (reactant_ids, product_ids))
        rows.append((lhs, rate, rhs))
    crn = CRN._from_scaled(species, *_scaled_rows(rows, species), elementary=True)
    inits = InitialCondition.from_map(
        crn, {species[i]: concentrations[i] for i in range(len(species))}
    )
    return crn, inits


def parse_partition(text: str, crn: CRN) -> Partition:
    """One comma-separated block per line; unmentioned species form one
    implicit final block.  An empty file is the one-block partition."""
    blocks: list[list[Species]] = []
    mentioned: set[Species] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        members = []
        for token in _split_top(line, ","):
            name = token.strip()
            if not name:
                raise ParseError("empty species name in partition block", lineno)
            try:
                sp = crn.by_name(name)
            except KeyError:
                raise PartitionError(f"unknown species {name}") from None
            if sp in mentioned:
                raise PartitionError(f"species {name} occurs in two blocks")
            mentioned.add(sp)
            members.append(sp)
        blocks.append(members)
    rest = [sp for sp in crn.species if sp not in mentioned]
    if rest:
        blocks.append(rest)
    return Partition(crn.species, blocks)


def parse_initial_conditions(text: str, crn: CRN) -> InitialCondition:
    """Lines of ``NAME = VALUE`` (an ``init:`` prefix is allowed), at most
    one per species; unmentioned species start at zero."""
    values: dict[str, Fraction] = {}
    known = {sp.name for sp in crn.species}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("init:"):
            line = line[len("init:"):].strip()
        if "=" not in line:
            raise ParseError("expected 'NAME = VALUE'", lineno)
        name, _, value_text = line.partition("=")
        name = name.strip()
        value = parse_rational(value_text, lineno)
        if value < 0:
            raise ParseError("initial concentration must be nonnegative", lineno)
        if name not in known:
            raise ParseError(f"unknown species {name}", lineno)
        if name in values:
            raise ParseError(f"second initial value for {name}", lineno)
        values[name] = value
    return InitialCondition.from_map(crn, values)


def partition_from_initial_conditions(v0: InitialCondition) -> Partition:
    """Blocks are the preimages of equal initial values (exact equality)."""
    groups: dict[Fraction, list[Species]] = {}
    for sp in v0.species:
        groups.setdefault(v0.get(sp), []).append(sp)
    return Partition(v0.species, groups.values())
