"""Concrete textual syntax: parser, pretty-printer and lint diagnostics.

Formula grammar; OP and AOP are binary operators, loosest first:

    formula  := unary (OP unary)*                OP: "->" (right associative),
                                                 "\\/", "/\\"
    unary    := "!" unary | "[" action "]" unary | "<" action ">" unary
              | "true" | atom | "(" formula ")"
    atom     := "dir(" art "," art "," DIR ")"   dir(b1,b2,d): b1 lies in
              | "at(" art "," NAME ")"           direction d of b2 -- the
              | "touch(" art "," art ")"         argument order is easy to
              | "cfg(" art "," NAME ")"          transpose, watch out
              | "orient(" art "," DIR ")"

    action   := prim (AOP prim)*                 AOP: ";", "&" (concurrent
                                                 execution), "|" (choice)
    prim     := ("move(" art "," DIR ")" | "thrill(" art ")" | "(" action ")") "*"?
    art      := "D" | "W" | "R" | "L"
    DIR      := "N" | "NE" | "E" | "SE" | "S" | "SW" | "W" | "NW"

Each syntax is read by one precedence-climbing loop over its operator table
(`_FORMULA_OPERATORS`, `_ACTION_OPERATORS`), and `prim` reads the `*`; the
printer takes its action levels from the same table. A leaf written without
blanks is one token, read with one split. Implication,
disjunction and the diamond are sugar and never appear in a stored tree.
Nesting is limited to MAX_DEPTH levels, read off each node's height and the
constructs the parser enters, so every walk over a parsed tree stays well
inside Python's recursion limit. Lexicon files hold entries
`sign NAME := <formula> .` and an optional leading `format: 1` marker.

Tokens may be separated by blanks (space, tab, CR and LF) and by comments,
each running from `#` to the end of its line. Any other character outside
a token is a digit of an INT, or an error. One split by one regex, `_LEAF_RE`,
reads each token as its text, whose offset is found only for an error or a
sign's name.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import partial
from operator import attrgetter

from .core import (
    LEAF_FIELDS,
    TOP,
    Action,
    And,
    Articulator,
    At,
    Atom,
    AtomF,
    Atomic,
    AtomicAction,
    Box,
    Choice,
    Concurrent,
    Config,
    Direction,
    Formula,
    Handedness,
    Move,
    Not,
    Orient,
    RelDir,
    Seq,
    Star,
    Thrill,
    Top,
    Touch,
    diamond,
    ground_atom,
    implies,
    iter_atoms,
    or_,
)
from .errors import (
    AliasCollision,
    Diagnostic,
    DuplicateSign,
    ParseError,
    Record,
    SourceSpan,
    UnknownArticulator,
    UnknownDirection,
)

# --- Tokens ------------------------------------------------------------------

_ATOM_HEADS = ("dir", "at", "touch", "cfg", "orient")
_ACTION_HEADS = ("move", "thrill")
_IDENT = "[A-Za-z_][A-Za-z0-9_]*"

# One `split` by one pattern reads every token: per token, the text skipped
# in front of it, the blanks and `#` comments in front of it, and its text,
# which is all a token is; the end of input is the empty token. The blanks
# read any run in one linear pass and are never read again: a run of blanks
# is one character class, each later repetition starts at a `#` and must
# reach the end of its line, so no tail of a comment is read as tokens, and
# the empty token always follows, so the engine never backtracks into them.
#
# A leaf without blanks, such as `move(D,SE)`, is one token. It holds no
# blank and no comment, so splitting its text at `(`, `,` and `)`
# (`_LEAF_PUNCTUATION`) spells the tokens that reading it with blanks gives. A
# character that no token starts with is skipped, one at a time, behind an
# empty token: a digit of an INT, joined with the digits it touches (any
# that pass str.isdigit, such as "²"), or an error: a lone `/` or `\` is
# stray and anything else unexpected.
_BLANKS = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_LEAF = rf"(?:{'|'.join(_ATOM_HEADS + _ACTION_HEADS)})\({_IDENT}(?:,{_IDENT})*\)"
_LEAF_RE = re.compile(rf"({_BLANKS})([()\[\]<>!|&;*.,]|{_LEAF}|{_IDENT}|:=?|->|/\\|\\/|[0-9]+|)")
_LEAF_PUNCTUATION = re.compile("([(),])")


def _line_breaks(text: str) -> list[int]:
    """-1, then the offset of each line break: line k starts after entry k-1."""
    return [-1, *(m.start() for m in re.finditer("\n", text))]


def _span(breaks: list[int], offset: int, length: int = 1) -> SourceSpan:
    """The 1-based line and column of `offset`, given the text's line breaks."""
    line = bisect_left(breaks, offset)
    return SourceSpan(line, offset - breaks[line - 1], length)


def _tokenize(text: str) -> list[str]:
    """The pieces of `_LEAF_RE.split(text)`, three per token (skipped text,
    blanks, token) and an empty last one, with each skipped character a
    digit, joined into an INT token."""
    parts = _LEAF_RE.split(text)
    if not any(parts[::3]):
        return parts
    found, offset, end = [], 0, 0  # the pieces of the tokens found, and where the last ends
    for i, piece in enumerate(parts):
        if i % 3 == 0 and piece in ("/", "\\"):
            expected = frozenset({"/\\", "\\/"})
            raise ParseError(f"stray {piece!r}", _span(_line_breaks(text), offset), expected)
        if i % 3 == 0 and piece and not piece.isdigit():
            raise ParseError(f"unexpected character {piece!r}", _span(_line_breaks(text), offset))
        if piece and i % 3 != 1:  # a digit or a token, not the empty token before a digit
            if offset == end and piece.isdigit() and found and found[-1].isdigit():
                found[-1] += piece  # the digit extends the INT before it
            else:
                found += ("", text[end:offset], piece)
            end = offset + len(piece)
        offset += len(piece)
    return found + ["", text[end:], "", ""]


#: Deepest nesting a formula may have. Each parenthesis, `!`, modality,
#: implication arrow and action parenthesis the parser enters counts one
#: level, and no node it builds may be higher (`core._Tree`), so long flat
#: `/\` and `;` chains count too.
MAX_DEPTH = 100

_ARTICULATORS = {a.value: a for a in Articulator}
_DIRECTIONS = {d.name: d for d in Direction}
#: Each leaf head and its node type, whose fields `LEAF_FIELDS` gives.
_LEAVES = {"dir": RelDir, "at": At, "touch": Touch, "cfg": Config, "orient": Orient,
           "move": Move, "thrill": Thrill}
#: The words of each leaf field, with the noun and error class of a word not
#: among them; a `place` or `label` field, absent here, takes any name.
_WORDS = {field: (_DIRECTIONS, "direction", UnknownDirection) if field == "direction"
          else (_ARTICULATORS, "articulator", UnknownArticulator)
          for fields in LEAF_FIELDS.values() for field in fields if field not in ("place", "label")}
# The binary operators of each syntax: token -> (binding power, builder).
# Power 0 is `->`, right associative, which opens one nesting level.
_FORMULA_OPERATORS = {"->": (0, implies), "\\/": (1, or_), "/\\": (2, And)}
_ACTION_OPERATORS = {";": (1, Seq), "&": (2, Concurrent), "|": (3, Choice)}


def _split_leaf(text: str, heads: tuple[str, ...]):
    """The leaf that a blank-free `head(word,...)` names, read with one split,
    or None where reading its tokens is needed: another head or shape, a
    word that is no IDENT or no table holds, or arguments its type refuses."""
    head, _, rest = text.partition("(")
    node = _LEAVES[head] if head in heads and rest[-1:] == ")" else None
    words = rest[:-1].split(",")
    if node is None or len(words) != len(LEAF_FIELDS[node]):
        return None
    args = {field: word if field not in _WORDS else _WORDS[field][0].get(word)
            for field, word in zip(LEAF_FIELDS[node], words)}
    if None in args.values() or not all(w.isascii() and w.isidentifier() for w in words):
        return None
    try:
        return node(*map(args.__getitem__, node.__match_args__))
    except ValueError:
        return None


class _Parser:
    """Where a rule reads the tokens that a leaf token spells, `_spell` puts
    them in its place, so errors and spans are those of reading by token.
    A token's offset is found only where its span is read."""

    def __init__(self, text: str):
        self.text = text
        self.parts = _tokenize(text)
        # Every caller checks the current token before consuming it, and no
        # rule consumes the end of input, so reading never runs past it.
        self.tokens = self.parts[2::3]
        self.i = 0  # the index of the first token not consumed yet
        self.cur = self.tokens[0]
        self.depth = 0  # nested constructs currently open
        self.breaks: list[int] | None = None  # _line_breaks(text), found on first use
        self.seen = (0, 0)  # a piece of `parts`, and the offset it starts at
        self.atoms, self.actions = {}, {}  # the node of each leaf token read, by text

    # -- token plumbing --

    def span(self, index: int) -> SourceSpan:
        """The span of a token, measured on from the last one measured; a
        comment on the last line leaves the end of input at its "#"."""
        word, text, end = self.tokens[index], self.text, 3 * index + 2
        piece, offset = self.seen if self.seen[0] <= end else (0, 0)
        offset += len("".join(self.parts[piece:end]))
        self.seen = (end, offset)
        if not word and (comment := text.find("#", text.rfind("\n") + 1)) >= 0:
            offset = comment
        if self.breaks is None:
            self.breaks = _line_breaks(text)
        return _span(self.breaks, offset, len(word) or 1)

    def _advance(self) -> int:
        """Consume the current token; its index."""
        self.i += 1
        self.cur = self.tokens[self.i]
        return self.i - 1

    def _spell(self) -> None:
        """Replace a current leaf token by the tokens its text spells."""
        word, i = self.cur, self.i
        if "(" in word[1:]:
            spelled = _LEAF_PUNCTUATION.split(word)[:-1]  # the last piece, after ")", is empty
            self.parts[3 * i + 2:3 * i + 3] = [p for token in spelled for p in ("", "", token)][2:]
            self.tokens[i:i + 1] = spelled
            self.cur = spelled[0]

    def _unexpected(self, *expected: str) -> ParseError:
        self._spell()
        message = f"unexpected {self.cur or 'end of input'!r}"
        return ParseError(message, self.span(self.i), frozenset(expected))

    def _expect(self, word: str) -> int:
        """Consume the current token, which must be `word`; its index."""
        if self.cur != word:
            return self._take(word, word.__eq__)
        self.i += 1
        self.cur = self.tokens[self.i]
        return self.i - 1

    def _take(self, what: str, test=str.isidentifier) -> int:
        """Consume the current token, which must pass `test` (only an IDENT is an identifier)."""
        if not test(self.cur):
            self._spell()  # a leaf's first token may be the one expected
            if not test(self.cur):
                raise self._unexpected(what)
        return self._advance()

    def _enter(self) -> None:
        """Open a nested construct at the current token and consume it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self._too_deep(self.i)
        self.i += 1
        self.cur = self.tokens[self.i]

    def _node(self, node, index: int):
        """A built node, refused at token `index` if it is higher than MAX_DEPTH."""
        if node._height > MAX_DEPTH:
            raise self._too_deep(index)
        return node

    def _too_deep(self, index: int) -> ParseError:
        return ParseError(f"formula nests deeper than {MAX_DEPTH} levels", self.span(index))

    # -- operators --

    def _climb(self, operand, operators: dict, floor: int = 0, node=None):
        """Precedence climbing (Pratt 1973, "Top down operator precedence"):
        `node`, else a first `operand()`, joined to further `operand()`s by
        the `operators` whose power is at least `floor`. A right operand
        costs a frame of its own only where a tighter operator follows it."""
        if node is None:
            node = operand()
        operator = operators.get(self.cur)
        while operator is not None and operator[0] >= floor:
            power, build = operator
            at = self.i
            if not power:  # `->`: the rest of the formula is its right operand
                self._enter()
                right = self._climb(operand, operators)
                self.depth -= 1
                return self._node(build(node, right), at)
            self.i += 1
            self.cur = self.tokens[self.i]
            right = operand()
            operator = operators.get(self.cur)
            if operator is not None and operator[0] > power:  # it takes `right` as its left
                right = self._climb(operand, operators, power + 1, right)
                operator = operators.get(self.cur)
            node = self._node(build(node, right), at)
        return node

    def formula(self) -> Formula:
        return self._climb(self.unary, _FORMULA_OPERATORS)

    # -- operands --

    def unary(self) -> Formula:
        tok, at = self.cur, self.i
        node = self.atoms.get(tok)
        if node is not None:
            self.i += 1
            self.cur = self.tokens[self.i]
            return node
        if tok == "!":
            self._enter()
            body = self.unary()
            self.depth -= 1
            return self._node(Not(body), at)
        if tok == "[" or tok == "<":
            self._enter()
            action = self._climb(self.prim, _ACTION_OPERATORS)
            self._expect("]" if tok == "[" else ">")
            body = self.unary()
            self.depth -= 1
            return self._node((Box if tok == "[" else diamond)(action, body), at)
        if tok == "(":
            self._enter()
            node = self._climb(self.unary, _FORMULA_OPERATORS)
            self._expect(")")
            self.depth -= 1
            return node
        if tok == "true":
            self._advance()
            return TOP
        if tok.partition("(")[0] in _ATOM_HEADS:
            return self._leaf(self.atoms, AtomF, _ATOM_HEADS, self.atom)
        raise self._unexpected("!", "[", "<", "(", "true", *_ATOM_HEADS)

    def prim(self) -> Action:
        """A primitive action, with the `*` that may follow it."""
        tok = self.cur
        node = self.actions.get(tok)
        if node is not None:
            self._advance()
        elif tok == "(":
            self._enter()
            node = self._climb(self.prim, _ACTION_OPERATORS)
            self._expect(")")
            self.depth -= 1
        elif tok.partition("(")[0] in _ACTION_HEADS:
            node = self._leaf(self.actions, Atomic, _ACTION_HEADS, self.atomic_action)
        else:
            raise self._unexpected(*_ACTION_HEADS, "(")
        if self.cur == "*":
            node = self._node(Star(node), self._advance())
        return node

    # -- leaves --

    def _leaf(self, nodes: dict, wrap, heads: tuple[str, ...], read):
        """The `wrap`ped leaf that the current token starts: a leaf token is
        read with one split, kept in `nodes` by its text; `read` reads a
        leaf by its tokens."""
        text = self.cur
        leaf = _split_leaf(text, heads)
        if leaf is None:  # reading its tokens reports the fault
            self._spell()
            return wrap(read())
        nodes[text] = node = wrap(leaf)
        self._advance()
        return node

    def atom(self) -> Atom:
        return self._leaf_from_tokens(_ATOM_HEADS, "atom", "atom")

    def atomic_action(self) -> AtomicAction:
        return self._leaf_from_tokens(_ACTION_HEADS, "move or thrill", "action")

    def _leaf_from_tokens(self, heads: tuple[str, ...], what: str, noun: str):
        at = self._take(what)
        self._expect("(")
        head = self.tokens[at]
        if head not in heads:
            raise ParseError(f"unknown {noun} {head!r}", self.span(at), frozenset(heads))
        node = _LEAVES[head]
        args = {}
        for i, field in enumerate(LEAF_FIELDS[node]):
            if i:
                self._expect(",")
            args[field] = self._argument(field)
        close = self._expect(")")
        try:
            # Positional: a node built from keywords is filled before its table is read.
            return node(*map(args.__getitem__, node.__match_args__))
        except ValueError as exc:  # dir and touch need two distinct articulators
            raise ParseError(str(exc), self.span(close)) from None

    def _argument(self, field: str):
        if field not in _WORDS:
            return self.tokens[self._take("name")]
        table, what, error = _WORDS[field]
        at = self._take(what)
        word = self.tokens[at]
        if word not in table:
            raise error(f"unknown {what} {word!r}", self.span(at), frozenset(table))
        return table[word]


def _parse_all(text: str, rule):
    """Parse the whole text with one rule of the grammar."""
    parser = _Parser(text)
    node = rule(parser)
    if parser.cur:
        parser._spell()
        message = f"trailing input {parser.cur!r}"
        raise ParseError(message, parser.span(parser.i), frozenset({"end of input"}))
    return node


def parse_formula(text: str) -> Formula:
    """Parse one formula; the result is fully desugared."""
    return _parse_all(text, _Parser.formula)


def parse_action(text: str) -> Action:
    return _parse_all(text, lambda parser: parser._climb(parser.prim, _ACTION_OPERATORS))


def parse_atom(text: str) -> Atom:
    return _split_leaf(text, _ATOM_HEADS) or _parse_all(text, _Parser.atom)


def parse_atomic_action(text: str) -> AtomicAction:
    return _split_leaf(text, _ACTION_HEADS) or _parse_all(text, _Parser.atomic_action)


# --- Lexicon files -----------------------------------------------------------


class LexiconEntry(Record):
    __slots__ = ("name", "formula", "span")


class LexiconFile(Record):
    """Ordered sign lexicon. Formulas are desugared but not grounded;
    grounding happens at verification time with the run's handedness."""

    __slots__ = ("entries",)

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def get(self, name: str) -> Formula | None:
        for e in self.entries:
            if e.name == name:
                return e.formula
        return None

    def canonical_text(self) -> str:
        texts: dict = {}
        return "\n".join(f"sign {e.name} := {_print_formula(e.formula, _F_AND, texts)} ."
                         for e in self.entries)


def parse_lexicon(text: str) -> LexiconFile:
    return _parse_all(text, _lexicon)


def _lexicon(p: _Parser, duplicates: dict[str, list[SourceSpan]] | None = None) -> LexiconFile:
    """The first definition of each sign. A later one raises DuplicateSign,
    or, given `duplicates`, is read and its span listed after the first's."""
    if p.cur == "format":
        p._advance()
        p._expect(":")
        at = p._take("format version", str.isdigit)
        if p.tokens[at] != "1":
            raise ParseError(f"unsupported format version {p.tokens[at]}", p.span(at))
    entries: dict[str, LexiconEntry] = {}
    while p.cur:
        p._expect("sign")
        at = p._take("sign name")
        name, span = p.tokens[at], p.span(at)
        if name in entries:
            first = entries[name].span
            if duplicates is None:
                raise DuplicateSign(name, first, span)
            duplicates.setdefault(name, [first]).append(span)
        p._expect(":=")
        formula = p.formula()
        p._expect(".")
        entries.setdefault(name, LexiconEntry(name, formula, span))
    return LexiconFile(tuple(entries.values()))


# --- Pretty printing ---------------------------------------------------------

# Formula precedence levels: a conjunction chain may appear bare only at the
# top; everything to the right of /\ or under !/[] must be unary-tight.
_F_AND, _F_UNARY = 0, 1
# Action levels, loosest to tightest: each binary operator's binding power
# in `_ACTION_OPERATORS`, then star, then primitive.
_BINARY = {build: (f" {token} ", power) for token, (power, build) in _ACTION_OPERATORS.items()}
_A_STAR = max(power for _, power in _BINARY.values()) + 1
_A_PRIM = _A_STAR + 1
# Printing spells an articulator by its letter, a direction by its compass
# name and a place or label as it is: "dir(%s,%s,%s)" % (subject._value_, ...).
# A member's `_value_` and `_name_` are plain attributes; `Enum`'s `value`
# and `name` are properties written in Python.
_SPELLING = {"direction": "._name_", "place": "", "label": ""}


def _leaf_printer(heads: tuple[str, ...], what: str):
    """The printer of the leaf types of `heads`, by a template and field
    getter per type; it refuses any other value as not `what`."""
    printers = {
        node: (f"{head}({','.join(['%s'] * len(fields))})",
               attrgetter(*(f + _SPELLING.get(f, "._value_") for f in fields)))
        for head in heads
        for node in (_LEAVES[head],)
        for fields in (LEAF_FIELDS[node],)
    }

    def print_leaf(leaf) -> str:
        printer = printers.get(type(leaf))
        if printer is None:
            raise TypeError(f"not {what}: {leaf!r}")
        template, spell = printer
        return template % spell(leaf)

    return print_leaf


print_atom = _leaf_printer(_ATOM_HEADS, "an atom")
print_atomic_action = _leaf_printer(_ACTION_HEADS, "an atomic action")


def _print_action(action: Action, min_level: int) -> str:
    kind = type(action)
    if kind is Atomic:
        return print_atomic_action(action.action)
    if kind is Star:
        text, level = f"{_print_action(action.body, _A_PRIM)}*", _A_STAR
    elif kind in _BINARY:  # the right operand binds one level tighter
        operator, level = _BINARY[kind]
        left, right = _print_action(action.left, level), _print_action(action.right, level + 1)
        text = f"{left}{operator}{right}"
    else:
        raise TypeError(f"not an action node: {action!r}")
    return f"({text})" if level < min_level else text


def print_action(action: Action) -> str:
    return _print_action(action, 0)  # below every level: no parentheses around the whole


def _print_formula(formula: Formula, min_level: int, texts: dict) -> str:
    """The formula's text at `min_level`. `texts` holds each subformula's
    text once printed, without the parentheses that a tighter level adds."""
    text = texts.get(formula)
    if text is None:
        kind = type(formula)  # the commonest nodes first
        if kind is And:
            left = _print_formula(formula.left, _F_AND, texts)
            text = f"{left} /\\ {_print_formula(formula.right, _F_UNARY, texts)}"
        elif kind is Not:
            text = f"!{_print_formula(formula.body, _F_UNARY, texts)}"
        elif kind is Box:
            action = print_action(formula.action)
            text = f"[{action}] {_print_formula(formula.body, _F_UNARY, texts)}"
        elif kind is AtomF:
            text = print_atom(formula.atom)
        elif kind is Top:
            text = "true"
        else:
            raise TypeError(f"not a formula node: {formula!r}")
        texts[formula] = text
    return f"({text})" if min_level > _F_AND and type(formula) is And else text


def print_formula(formula: Formula) -> str:
    """Canonical text that re-parses to an identical tree. Sugar is not
    reintroduced."""
    return _print_formula(formula, _F_AND, {})


# --- Lint --------------------------------------------------------------------


def lint_lexicon(text: str) -> tuple[LexiconFile | None, list[Diagnostic]]:
    """Parse a lexicon and collect diagnostics. A lexicon that `parse_lexicon`
    refuses yields no lexicon and errors: if its only faults are signs defined
    again, one at each first and each later definition, else its first fault's.
    Warnings, for the first definition of each sign, flag atoms that planar
    tracking can never decide and pairwise atoms whose two articulators are
    one hand for a signer of either handedness, which `check` refuses."""
    duplicates: dict[str, list[SourceSpan]] = {}
    try:
        lexicon = _parse_all(text, partial(_lexicon, duplicates=duplicates))
    except ParseError as exc:
        if not duplicates:
            return None, [Diagnostic(exc.code, "error", str(exc.args[0]), span=exc.span)]
        name, spans = next(iter(duplicates.items()))  # the first fault alone
        duplicates, lexicon = {name: spans[:2]}, LexiconFile(())
    issues: list[Diagnostic] = []
    for name, (first, *later) in duplicates.items():
        message = f"duplicate sign {name!r}"
        issues.append(Diagnostic("duplicate-sign", "error", f"{message}, first defined here",
                                 span=first))
        issues += (Diagnostic("duplicate-sign", "error", message, span=span) for span in later)
    for entry in lexicon.entries:
        atoms = dict.fromkeys(iter_atoms(entry.formula))
        orient = next((atom for atom in atoms if isinstance(atom, Orient)), None)
        if orient is not None:
            message = (f"sign {entry.name!r} uses {print_atom(orient)}: orientation is "
                       "undecidable from planar tracking and stays unknown unless the "
                       "input carries orientation labels")
            issues.append(Diagnostic("undecidable-orientation", "warning", message, span=entry.span))
        for atom in atoms:
            for handedness in Handedness:
                try:
                    ground_atom(atom, handedness)
                except AliasCollision as exc:
                    message = (f"sign {entry.name!r} uses {print_atom(atom)}: {exc}; "
                               "check refuses this lexicon for such a signer")
                    issues.append(Diagnostic(exc.code, "warning", message, span=entry.span))
    return (None if duplicates else lexicon), issues
