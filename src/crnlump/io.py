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
separators are only recognized at bracket depth zero.  A reaction line
is cut at its first ``->`` and its last ``,``; only when the text before
the cut is unbalanced do the bracket-counting scans look for the
separator at depth zero.  Each distinct reaction side and number literal
is parsed and checked for balance once per text.  :func:`parse_crn` and
:func:`import_bngl_net` build the network's integer reaction list
(:func:`crnlump.core.scaled_reactions`) directly, and :func:`serialize_crn`
prints from it; no :class:`Reaction` object is built unless something
reads ``CRN.reactions``.

The ``.net`` importer understands the fully enumerated
parameters/species/reactions blocks written by BioNetGen 2.2.x and
rejects anything fancier (rate expressions other than products of
numbers and parameter names, non-sequential indices) with an error
naming the line.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .core import (
    CRN,
    Pairs,
    ParseError,
    Partition,
    PartitionError,
    Species,
    _crn_from_rows,
    _format_side,
    _scale_rates,
    _side_key,
    format_rational,
    scaled_reactions,
)
from .sim import InitialCondition, _check_initial_condition

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


def _parse_side(text: str, line: int) -> list[tuple[str, int]]:
    """A stripped reaction side as (name, multiplicity) pairs; '0' is the
    empty side."""
    if text == "0":
        return []
    if not text:
        raise ParseError("empty reaction side", line)
    pairs = []
    for raw in _split_top(text, "+"):
        term = raw.strip()
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
        pairs.append((name, mult))
    return pairs


def parse_crn(text: str) -> tuple[CRN, InitialCondition | None]:
    """Parse the native format; returns the network and its initial
    condition when ``init:`` lines are present.

    Raises :class:`ParseError` with a line number on syntax errors and on
    semantic ones (rate not positive, more than two reactant molecules,
    species missing from an explicit ``species:`` header, a second
    ``init:`` line for one species).
    """
    header: list[str] | None = None
    reaction_rows: list[tuple[int, int, int]] = []
    init_rows: dict[str, tuple[int, Fraction]] = {}
    order: list[str] = []
    seen: set[str] = set()
    # Distinct stripped side texts in order of first appearance, as
    # (pairs, molecule count, first line).  ``side_index`` maps each of
    # them, and each raw text that was cut out as a side, to its index.
    # Only a balanced text is parsed into a side, so a raw text found there
    # is balanced and was cut at the separator at depth zero.
    side_index: dict[str, int] = {}
    sides: list[tuple[list[tuple[str, int]], int, int]] = []
    # Distinct number texts map to their values; distinct rate texts to
    # their index in ``rates`` and whether the rate is positive.
    numbers: dict[str, Fraction] = {}
    rate_index: dict[str, tuple[int, bool]] = {}
    rates: list[Fraction] = []

    def note(name: str) -> None:
        if name not in seen:
            seen.add(name)
            order.append(name)

    def side(raw: str, lineno: int) -> int:
        """The index in ``sides`` of the balanced side text ``raw``, parsed
        and its names noted the first time its stripped text appears."""
        text = raw.strip()
        index = side_index.get(text)
        if index is None:
            pairs = _parse_side(text, lineno)
            index = side_index[text] = len(sides)
            sides.append((pairs, sum(m for _, m in pairs), lineno))
            for name, _ in pairs:
                note(name)
        side_index[raw] = index
        return index

    def number(raw: str, lineno: int) -> Fraction:
        value = numbers.get(raw)
        if value is None:
            value = numbers[raw] = parse_rational(raw, lineno)
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("species:"):
            if header is not None:
                raise ParseError("duplicate species: header", lineno)
            header = line[len("species:"):].split()
            if len(set(header)) != len(header):
                raise ParseError("duplicate name in species: header", lineno)
            continue
        if line.startswith("init:"):
            body = line[len("init:"):]
            if "=" not in body:
                raise ParseError("expected 'init: NAME = VALUE'", lineno)
            name, _, value_text = body.partition("=")
            name = name.strip()
            if not name:
                raise ParseError("missing species name in init line", lineno)
            value = number(value_text, lineno)
            if value < 0:
                raise ParseError("initial concentration must be nonnegative", lineno)
            if name in init_rows:
                raise ParseError(f"second initial value for {name}", lineno)
            init_rows[name] = (lineno, value)
            note(name)
            continue
        # The first arrow is at depth zero exactly when the text before it
        # is balanced, and the last comma exactly when the products are;
        # otherwise the bracket-counting scans find the separator.
        left, arrow, rest = line.partition("->")
        lhs = side_index.get(left) if arrow else None
        if lhs is None:
            cut = -1
            if arrow:
                cut = _find_top(line, "->") if _depth(left) else len(left)
            if cut < 0:
                raise ParseError(f"expected a reaction line, got {line!r}", lineno)
            lhs = side(line[:cut], lineno)
            rest = line[cut + 2 :]
        products, comma, rate_text = rest.rpartition(",")
        rhs = side_index.get(products) if comma else None
        if rhs is None:
            cut = -1
            if comma:
                cut = _rfind_top(rest, ",") if _depth(products) else len(products)
            if cut < 0:
                raise ParseError("missing rate (expected 'products , rate')", lineno)
            products, rate_text = rest[:cut], rest[cut + 1 :]
        entry = rate_index.get(rate_text)
        if entry is None:
            value = number(rate_text, lineno)
            entry = rate_index[rate_text] = (len(rates), value > 0)
            rates.append(value)
        if rhs is None:
            rhs = side(products, lineno)
        rate, positive = entry
        if not positive:
            raise ParseError("rate must be positive", lineno)
        total = sides[lhs][1]
        if total == 0:
            raise ParseError("reactants must contain at least one species", lineno)
        if total > 2:
            raise ParseError("reactants exceed multiplicity 2", lineno)
        reaction_rows.append((lhs, rate, rhs))

    names = header if header is not None else order
    if header is not None:
        declared = set(header)
        # Sides are in first-appearance order, left before right, so the
        # first one naming an undeclared species is on the first reaction
        # line that does.
        for pairs, _, lineno in sides:
            for name, _ in pairs:
                if name not in declared:
                    raise ParseError(f"undeclared species {name}", lineno)
        for name, (lineno, _) in init_rows.items():
            if name not in declared:
                raise ParseError(f"undeclared species {name}", lineno)

    species = tuple(Species(i, name) for i, name in enumerate(names))
    ids = {name: i for i, name in enumerate(names)}
    keys = [_side_key([(ids[n], m) for n, m in pairs]) for pairs, _, _ in sides]
    scale, scaled = _scale_rates(rates)
    rows = tuple((keys[lhs], keys[rhs], scaled[rate]) for lhs, rate, rhs in reaction_rows)
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
        if rate <= 0:
            raise ParseError("rate must be positive", lineno)
        reactant_ids = _net_indices(reactants_field, len(species), lineno)
        if not reactant_ids:
            raise ParseError("reactants must contain at least one species", lineno)
        if len(reactant_ids) > 2:
            raise ParseError("reactants exceed multiplicity 2", lineno)
        product_ids = _net_indices(products_field, len(species), lineno)
        lhs, rhs = (tuple((i, 1) for i in ids) for ids in (reactant_ids, product_ids))
        rows.append((lhs, rate, rhs))
    crn = _crn_from_rows(species, rows)
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
