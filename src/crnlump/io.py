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

:func:`parse_crn` has two readers.  The bulk reader reads a clean text
in whole-text passes.  Pass 1 cuts each reaction line at its first
``->`` and its last ``,`` with string methods only (``_strip_comment``
runs only when the text holds a ``#``); header and ``init:`` lines go
through ``_directive``.  Pass 2 reads every distinct side at once: the
sides with the same number of ``+`` are joined, split on ``+`` and
regrouped, and each distinct term and rate text is parsed once.  When
every term has bracket depth zero, every side does, so each cut and
split was made at depth zero, where the bracket-counting scans make it.
The bulk reader gives up at the first thing that is off: a term with a
fault or a nonzero depth, a rate that does not parse or is not positive,
an undeclared name, a line that is neither a reaction nor a header or
``init:`` line.  The line reader then reads the text again, one stripped
line at a time, cutting and splitting with the bracket-counting scans,
and raises each fault as it meets it.  The error order is its reading
order: a line's reactants' syntax, its rate's, its products', the rate's
sign; after every line, an undeclared species at the first side that
names one, then at the first ``init:`` line that does.  So a faulty
text, and one with a first ``->`` or last ``,`` of a line or a ``+`` of
a side inside brackets, takes the line reader; the texts
:func:`serialize_crn` writes for names without such separators take the
bulk reader.
:func:`parse_crn` and :func:`import_bngl_net` build the network's
integer reaction list (:func:`crnlump.core.scaled_reactions`) directly,
and :func:`serialize_crn` prints from it.  Both read any reactant side,
an inflow's empty one (``0``) and one of three or more molecules
included, and refuse only a rate that is not positive: only forward
bisimulation needs elementary reactions, and :mod:`crnlump.bisim`
checks that itself.

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
    _lift,
    _scale_rates,
    _scaled_rows,
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


def _parse_term(term: str, line: int | None) -> tuple[str, int]:
    """A stripped term of a reaction side as ``(name, multiplicity)``."""
    if not term:
        raise ParseError("empty term in reaction side", line)
    match = _COEFF_RE.match(term)
    if match and not match.group(2)[0].isdigit():
        mult, name = int(match.group(1)), match.group(2).strip()
    else:
        mult, name = 1, term
    if _SPACE_RE.search(name):
        raise ParseError(f"species name contains whitespace: {name!r}", line)
    if name[0].isdigit():
        raise ParseError(f"species name may not start with a digit: {name!r}", line)
    return name, mult


def _appearance_order(
    pairs_of: dict[str, Iterable[tuple[str, int]]],
    linenos: list[int],
    lefts: list[str],
    rights: list[str],
    init_rows: dict[str, tuple[int, Fraction]],
) -> list[str]:
    """The species names of a text without a header, in order of first
    appearance: those of its sides (``pairs_of`` maps each side text to
    its pairs), the reactants before the products, line by line, and
    those of its init lines."""
    order: dict[str, None] = {}

    def note(start: int, end: int) -> None:
        for text in dict.fromkeys(chain.from_iterable(zip(lefts[start:end], rights[start:end]))):
            for name, _ in pairs_of[text]:
                order[name] = None

    start = 0
    for name, (lineno, _) in init_rows.items():
        end = bisect_left(linenos, lineno, start)
        note(start, end)
        order[name] = None
        start = end
    note(start, len(linenos))
    return list(order)


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


def _read_lines(text: str) -> tuple:
    """Read ``text`` line by line, cutting and splitting with the
    bracket-counting scans, and raise each fault where it is met."""
    header: list[str] | None = None
    init_rows: dict[str, tuple[int, Fraction]] = {}
    linenos: list[int] = []
    lefts: list[str] = []
    rights: list[str] = []
    rates: list[str] = []
    # Each distinct side text's pairs and first line, in order of first
    # appearance, and each distinct rate text's value.
    pairs_of: dict[str, tuple[tuple[str, int], ...]] = {}
    first_line: dict[str, int] = {}
    values: dict[str, Fraction] = {}

    def side(raw: str, lineno: int) -> str:
        text = raw.strip()
        if text not in pairs_of:
            if not text:
                raise ParseError("empty reaction side", lineno)
            terms = () if text == "0" else _split_top(text, "+")
            pairs_of[text] = tuple(_parse_term(term.strip(), lineno) for term in terms)
            first_line[text] = lineno
        return text

    for lineno, line in enumerate(_lines(text), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(("species:", "init:")):
            header = _directive(line, lineno, header, init_rows)
            continue
        arrow = _find_top(line, "->")
        if arrow < 0:
            raise ParseError(f"expected a reaction line, got {line!r}", lineno)
        left = side(line[:arrow], lineno)
        rest = line[arrow + 2 :]
        comma = _rfind_top(rest, ",")
        if comma < 0:
            raise ParseError("missing rate (expected 'products , rate')", lineno)
        rate = rest[comma + 1 :]
        if rate not in values:
            values[rate] = parse_rational(rate, lineno)
        right = side(rest[:comma], lineno)
        if values[rate] <= 0:
            raise ParseError("rate must be positive", lineno)
        linenos.append(lineno)
        lefts.append(left)
        rights.append(right)
        rates.append(rate)

    if header is None:
        header = _appearance_order(pairs_of, linenos, lefts, rights, init_rows)
    ids = {name: i for i, name in enumerate(header)}
    for text, lineno in first_line.items():
        for name, _ in pairs_of[text]:
            if name not in ids:
                raise ParseError(f"undeclared species {name}", lineno)
    for name, (lineno, _) in init_rows.items():
        if name not in ids:
            raise ParseError(f"undeclared species {name}", lineno)
    every = list(range(len(header)))
    keys = {
        text: _lift([(ids[name], m) for name, m in pairs], every)
        for text, pairs in pairs_of.items()
    }
    return header, keys, lefts, rights, rates, values, init_rows


def _read_clean(text: str) -> tuple | None:
    """Read ``text`` in whole-text passes, or return None at the first
    thing that is off."""
    header: list[str] | None = None
    init_rows: dict[str, tuple[int, Fraction]] = {}
    linenos: list[int] = []
    lefts: list[str] = []
    rights: list[str] = []
    rates: list[str] = []
    for lineno, line in enumerate(_lines(text), start=1):
        left, _, rest = line.partition("->")
        products, comma, rate = rest.rpartition(",")
        if comma and ":" not in left:
            linenos.append(lineno)
            lefts.append(left.strip())
            rights.append(products.strip())
            rates.append(rate)
            continue
        line = line.strip()
        if not line:
            continue
        if not line.startswith(("species:", "init:")):
            return None
        try:
            header = _directive(line, lineno, header, init_rows)
        except ParseError:
            return None

    values: dict[str, Fraction] = {}
    for rate in set(rates):
        try:
            values[rate] = value = parse_rational(rate)
        except ParseError:
            return None
        if value <= 0:
            return None

    texts = set(lefts).union(rights)
    texts.discard("0")
    if "" in texts:
        return None
    # Each group: its texts' number of terms, the texts, and their terms.
    groups: list[tuple[int, list[str], list[str]]] = []
    pairs: dict[str, tuple[str, int]] = {}
    for pluses, group in groupby(sorted(texts, key=_PLUSES), _PLUSES):
        group = list(group)
        found = list(map(str.strip, "+".join(group).split("+")))
        for term in set(found).difference(pairs):
            if _depth(term):
                return None
            try:
                pairs[term] = _parse_term(term, None)
            except ParseError:
                return None
        groups.append((pluses + 1, group, found))

    if header is None:
        pairs_of: dict[str, tuple] = {"0": ()}
        for width, group, found in groups:
            pairs_of.update(zip(group, zip(*[iter(map(pairs.__getitem__, found))] * width)))
        header = _appearance_order(pairs_of, linenos, lefts, rights, init_rows)
        del pairs_of
    ids = {name: i for i, name in enumerate(header)}
    if not init_rows.keys() <= ids.keys():
        return None
    try:
        id_pairs = {term: (ids[name], m) for term, (name, m) in pairs.items()}
    except KeyError:
        return None
    keys: dict[str, Pairs] = {"0": ()}
    every = list(range(len(header)))
    for width, group, found in groups:
        for side, terms in zip(group, zip(*[iter(map(id_pairs.__getitem__, found))] * width)):
            keys[side] = _lift(terms, every)
    return header, keys, lefts, rights, rates, values, init_rows


def parse_crn(text: str) -> tuple[CRN, InitialCondition | None]:
    """Parse the native format; returns the network and its initial
    condition when ``init:`` lines are present.

    Raises :class:`ParseError` with a line number on syntax errors and on
    semantic ones (rate not positive, species missing from an explicit
    ``species:`` header, a second ``init:`` line for one species).  A
    reactant side may be empty (``0``) or hold any number of molecules.
    """
    # Each reader gives the species names in id order, each distinct side
    # text's key, each reaction line's reactant, product and rate texts,
    # each distinct rate text's value and the init lines.  Its other tables
    # are freed before the rows are built, which keeps the parse's peak lower.
    names, keys, lefts, rights, rates, values, init_rows = _read_clean(text) or _read_lines(text)
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
    crn = CRN._from_scaled(species, scale, rows)
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
                sides[pairs] = _format_side(pairs, names)
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

    Raises :class:`ParseError` with a line number on malformed lines, on
    a species pattern listed twice and, as :func:`parse_crn` does, on a
    rate that is not positive.  A reaction line's rate is read and
    checked first, then its reactant indices (``0`` for none, or any
    number of them), then its product indices.
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
        if rate <= 0:
            raise ParseError("rate must be positive", lineno)
        lhs, rhs = (
            tuple((i, 1) for i in _net_indices(field, len(species), lineno))
            for field in (reactants_field, products_field)
        )
        rows.append((lhs, rate, rhs))
    crn = CRN._from_scaled(species, *_scaled_rows(rows, species))
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
    """Blocks are the preimages of equal initial values (exact equality).
    A value is grouped by its ``(numerator, denominator)``, which hashes
    faster than the ``Fraction``.  Raises :class:`CRNError` for a
    species without a value."""
    groups: dict[tuple[int, int], list[Species]] = {}
    for sp in v0.species:
        groups.setdefault(v0.get(sp).as_integer_ratio(), []).append(sp)
    return Partition._from_blocks(v0.species, groups.values())
