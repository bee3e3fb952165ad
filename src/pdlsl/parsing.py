"""Concrete textual syntax: parser, pretty-printer and lint diagnostics.

Formula grammar (low to high precedence):

    formula  := impl
    impl     := or ("->" impl)?                  right associative
    or       := and ("\\/" and)*
    and      := unary ("/\\" unary)*
    unary    := "!" unary | "[" action "]" unary | "<" action ">" unary
              | "true" | atom | "(" formula ")"
    atom     := "dir(" art "," art "," DIR ")"   dir(b1,b2,d): b1 lies in
              | "at(" art "," NAME ")"           direction d of b2 -- the
              | "touch(" art "," art ")"         argument order is easy to
              | "cfg(" art "," NAME ")"          transpose, watch out
              | "orient(" art "," DIR ")"

    action   := seq
    seq      := par (";" par)*
    par      := choice ("&" choice)*             "&" is concurrent execution
    choice   := star ("|" star)*                 "|" is nondeterministic choice
    star     := prim "*"?
    prim     := "move(" art "," DIR ")" | "thrill(" art ")" | "(" action ")"

    art      := "D" | "W" | "R" | "L"
    DIR      := "N" | "NE" | "E" | "SE" | "S" | "SW" | "W" | "NW"

Implication, disjunction and the diamond are sugar and never appear in a
stored tree. Nesting is limited to MAX_DEPTH levels, read off each node's
height and the constructs the parser enters, so every walk over a parsed
tree stays well inside Python's recursion limit. Lexicon files hold entries
`sign NAME := <formula> .` and an optional leading `format: 1` marker.

Tokens may be separated by blanks (space, tab, CR and LF) and by comments,
each running from `#` to the end of its line. Any other character outside
a token is a digit of an INT, or an error.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import partial
from itertools import chain
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

__all__ = [
    "SourceSpan",
    "LexiconEntry",
    "LexiconFile",
    "MAX_DEPTH",
    "parse_formula",
    "parse_action",
    "parse_atom",
    "parse_atomic_action",
    "parse_lexicon",
    "lint_lexicon",
    "print_formula",
    "print_action",
    "print_atom",
    "print_atomic_action",
]


# --- Tokens ------------------------------------------------------------------

_ATOM_HEADS = ("dir", "at", "touch", "cfg", "orient")
_ACTION_HEADS = ("move", "thrill")
_IDENT = "[A-Za-z_][A-Za-z0-9_]*"

# Between tokens, the tokenizer skips blanks (space, tab, CR and LF) and `#`
# comments, each running to the end of its line. One match reads the blanks
# and comments in front of a token together with the token, and the `\Z`
# branch reads those at the end of input. The prefix reads any run of them in
# one linear pass and is never read again: a run of blanks is one character
# class, each later repetition starts at a `#` and must reach the end of its
# line, so no tail of a comment is read as tokens, and one of the branches
# after the prefix always matches, so the engine never backtracks into it.
#
# An ATOM or ACTION token is a leaf without spaces, such as `move(D,SE)`;
# `_TOKEN_RE`, which lacks the two, spells its text and tokenizes a lone
# leaf. A word is an IDENT. One unnamed group reads the two-character
# operators and any other character, and `_PUNCTUATION` gives its kind. A
# character outside it is a digit of an INT token, or an error: a lone `/`
# or `\` is stray and anything else unexpected. Digits that pass
# str.isdigit and touch are joined into one INT, so digits such as "²" make
# INT tokens too.
_BLANKS = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"


def _token_re(leaves: str) -> re.Pattern:
    return re.compile(rf"{_BLANKS}(?:{leaves}(?P<IDENT>{_IDENT})|(:=|->|/\\|\\/|.)|\Z)")


_LEAF_RE = _token_re("".join(rf"(?P<{kind}>(?:{'|'.join(heads)})\({_IDENT}(?:,{_IDENT})*\))|"
                             for kind, heads in (("ATOM", _ATOM_HEADS), ("ACTION", _ACTION_HEADS))))
_TOKEN_RE = _token_re("")
_PUNCTUATION = {
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", "/\\": "ANDOP", ":=": "ASSIGN", ".": "DOT",
    "->": "ARROW", "[": "LBRACKET", "]": "RBRACKET", "!": "BANG", "|": "PIPE", "&": "AMP",
    ";": "SEMI", "*": "STAR", "<": "LANGLE", ">": "RANGLE", "\\/": "OROP", ":": "COLON",
}

# A token is a plain tuple (kind, text, offset, length); its SourceSpan is
# built only when one is read, by _span.
_Token = tuple[str, str, int, int]


def _line_breaks(text: str) -> list[int]:
    """-1, then the offset of each line break: line k starts after entry k-1."""
    return [-1, *(m.start() for m in re.finditer("\n", text))]


def _span(breaks: list[int], offset: int, length: int = 1) -> SourceSpan:
    """The 1-based line and column of `offset`, given the text's line breaks."""
    line = bisect_left(breaks, offset)
    return SourceSpan(line, offset - breaks[line - 1], length)


def _tokenize(text: str, pattern: re.Pattern = _LEAF_RE) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    punctuation = _PUNCTUATION.get
    digits_end = -1  # end of the last INT token, which a next digit extends
    for m in pattern.finditer(text):
        index = m.lastindex
        if index is None:  # the end of input
            break
        word = m[index]
        start = m.start(index)
        kind = m.lastgroup or punctuation(word)
        if kind is not None:
            append((kind, word, start, len(word)))
        elif word in "/\\":
            expected = frozenset({"/\\", "\\/"})
            raise ParseError(f"stray {word!r}", _span(_line_breaks(text), start), expected)
        elif not word.isdigit():
            raise ParseError(f"unexpected character {word!r}", _span(_line_breaks(text), start))
        else:
            if start == digits_end:  # the digit extends the INT before it
                _, run, start, _ = tokens.pop()
                word = run + word
            append(("INT", word, start, len(word)))
            digits_end = start + len(word)
    # A comment on the last line leaves the end of input at its "#".
    comment = text.find("#", text.rfind("\n") + 1)
    append(("EOF", "", len(text) if comment < 0 else comment, 1))
    return tokens


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


class _Parser:
    """Where a rule reads the tokens that a leaf token spells, `_spell` puts
    them in its place, so errors and spans are those of reading by token."""

    def __init__(self, text: str, pattern: re.Pattern = _LEAF_RE):
        self.text = text
        # Every caller checks the current token's kind before consuming it,
        # and no rule consumes EOF, so reading never runs past the end.
        self._tokens = iter(_tokenize(text, pattern))
        self._next = self._tokens.__next__
        self.cur = self._next()  # the first token not consumed yet
        self.depth = 0  # nested constructs currently open
        self.breaks: list[int] | None = None  # _line_breaks(text), found on first use
        self.leaf_nodes: dict[str, Atom | AtomicAction] = {}  # the node of each leaf token read

    # -- token plumbing --

    def span(self, tok: _Token) -> SourceSpan:
        if self.breaks is None:
            self.breaks = _line_breaks(self.text)
        return _span(self.breaks, tok[2], tok[3])

    def _advance(self) -> _Token:
        tok = self.cur
        self.cur = self._next()
        return tok

    def _spell(self) -> None:
        """Replace a current leaf token by the tokens its text spells. They
        hold no leaf token, so they are read before the next base token."""
        kind, text, offset, _ = self.cur
        if kind in ("ATOM", "ACTION"):
            spelled = [(token_kind, word, offset + start, length)
                       for token_kind, word, start, length in _tokenize(text, _TOKEN_RE)]
            self.cur = spelled[0]
            self._next = chain(spelled[1:-1], self._tokens).__next__  # not its EOF

    def _unexpected(self, *expected: str) -> ParseError:
        self._spell()
        tok = self.cur
        message = f"unexpected {tok[1] or 'end of input'!r}"
        return ParseError(message, self.span(tok), frozenset(expected))

    def _expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.cur
        if tok[0] != kind:
            self._spell()  # a leaf's first token may be the one expected
            tok = self.cur
            if tok[0] != kind:
                raise self._unexpected(what or kind)
        self.cur = self._next()
        return tok

    def _at_word(self, *words: str) -> bool:
        return self.cur[0] == "IDENT" and self.cur[1] in words

    def _enter(self) -> _Token:
        """Open a nested construct at the current token and consume it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self._too_deep(self.cur)
        return self._advance()

    def _node(self, node, tok: _Token):
        """A built node, refused at `tok` if it is higher than MAX_DEPTH."""
        if node._height > MAX_DEPTH:
            raise self._too_deep(tok)
        return node

    def _too_deep(self, tok: _Token) -> ParseError:
        return ParseError(f"formula nests deeper than {MAX_DEPTH} levels", self.span(tok))

    # -- formulas --

    def formula(self) -> Formula:
        left = _or_level(self)
        if self.cur[0] == "ARROW":
            tok = self._enter()
            right = self.formula()
            self.depth -= 1
            return self._node(implies(left, right), tok)
        return left

    def unary(self) -> Formula:
        tok = self.cur
        kind = tok[0]
        if kind == "BANG":
            self._enter()
            body = self.unary()
            self.depth -= 1
            return self._node(Not(body), tok)
        if kind == "LBRACKET":
            self._enter()
            action = _action(self)
            self._expect("RBRACKET", "]")
            body = self.unary()
            self.depth -= 1
            return self._node(Box(action, body), tok)
        if kind == "LANGLE":
            self._enter()
            action = _action(self)
            self._expect("RANGLE", ">")
            body = self.unary()
            self.depth -= 1
            return self._node(diamond(action, body), tok)
        if kind == "LPAREN":
            self._enter()
            node = self.formula()
            self._expect("RPAREN", ")")
            self.depth -= 1
            return node
        if self._at_word("true"):
            self._advance()
            return TOP
        if kind == "ATOM" or self._at_word(*_ATOM_HEADS):
            return AtomF(self.atom())
        raise self._unexpected("!", "[", "<", "(", "true", *_ATOM_HEADS)

    def atom(self) -> Atom:
        return self._leaf(_ATOM_HEADS, "atom", "atom")

    # -- actions --

    def star_level(self) -> Action:
        node = self.prim()
        if self.cur[0] == "STAR":
            tok = self._advance()
            node = self._node(Star(node), tok)
        return node

    def prim(self) -> Action:
        if self.cur[0] == "LPAREN":
            self._enter()
            node = _action(self)
            self._expect("RPAREN", ")")
            self.depth -= 1
            return node
        if self.cur[0] == "ACTION" or self._at_word(*_ACTION_HEADS):
            return Atomic(self.atomic_action())
        raise self._unexpected(*_ACTION_HEADS, "(")

    def atomic_action(self) -> AtomicAction:
        return self._leaf(_ACTION_HEADS, "move or thrill", "action")

    # -- leaves --

    def _leaf(self, heads: tuple[str, ...], what: str, noun: str):
        kind, text, _, _ = self.cur
        if kind not in ("ATOM", "ACTION"):
            return self._leaf_from_tokens(heads, what, noun)
        if text in self.leaf_nodes:
            self._advance()
            return self.leaf_nodes[text]
        self._spell()  # built from the tokens it spells, once per text
        node = self.leaf_nodes[text] = self._leaf_from_tokens(heads, what, noun)
        self._next = self._tokens.__next__  # a built leaf has read them all
        return node

    def _leaf_from_tokens(self, heads: tuple[str, ...], what: str, noun: str):
        head_tok = self._expect("IDENT", what)
        self._expect("LPAREN", "(")
        head = head_tok[1]
        if head not in heads:
            raise ParseError(f"unknown {noun} {head!r}", self.span(head_tok), frozenset(heads))
        node = _LEAVES[head]
        args = {}
        for i, field in enumerate(LEAF_FIELDS[node]):
            if i:
                self._expect("COMMA", ",")
            args[field] = self._argument(field)
        close = self._expect("RPAREN", ")")
        try:
            # Positional: a node built from keywords is filled before its table is read.
            return node(*map(args.__getitem__, node.__match_args__))
        except ValueError as exc:  # dir and touch need two distinct articulators
            raise ParseError(str(exc), self.span(close)) from None

    def _argument(self, field: str):
        if field in ("place", "label"):
            return self._expect("IDENT", "name")[1]
        what, table, error = (
            ("direction", _DIRECTIONS, UnknownDirection) if field == "direction"
            else ("articulator", _ARTICULATORS, UnknownArticulator)
        )
        tok = self._expect("IDENT", what)
        word = tok[1]
        if word not in table:
            raise error(f"unknown {what} {word!r}", self.span(tok), frozenset(table))
        return table[word]


def _chain(operand, kind: str, build, parser: _Parser):
    """A left-associative chain of `operand(parser)`s joined by `kind` tokens."""
    node = operand(parser)
    while parser.cur[0] == kind:
        tok = parser._advance()
        node = parser._node(build(node, operand(parser)), tok)
    return node


# The left-associative levels, loosest first. They are partials rather than
# methods, so that a level costs one Python frame and nesting to MAX_DEPTH
# stays far inside the interpreter's recursion limit.
_and_level = partial(_chain, _Parser.unary, "ANDOP", And)
_or_level = partial(_chain, _and_level, "OROP", or_)
_choice_level = partial(_chain, _Parser.star_level, "PIPE", Choice)
_par_level = partial(_chain, _choice_level, "AMP", Concurrent)
_action = partial(_chain, _par_level, "SEMI", Seq)


def _parse_all(text: str, rule, pattern: re.Pattern = _LEAF_RE):
    """Parse the whole text with one rule of the grammar."""
    parser = _Parser(text, pattern)
    node = rule(parser)
    if parser.cur[0] != "EOF":
        parser._spell()
        tok = parser.cur
        raise ParseError(f"trailing input {tok[1]!r}", parser.span(tok), frozenset({"end of input"}))
    return node


def parse_formula(text: str) -> Formula:
    """Parse one formula; the result is fully desugared."""
    return _parse_all(text, _Parser.formula)


def parse_action(text: str) -> Action:
    return _parse_all(text, _action)


def parse_atom(text: str) -> Atom:
    return _parse_all(text, _Parser.atom, _TOKEN_RE)


def parse_atomic_action(text: str) -> AtomicAction:
    return _parse_all(text, _Parser.atomic_action, _TOKEN_RE)


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
    if p._at_word("format"):
        p._advance()
        p._expect("COLON", ":")
        version = p._expect("INT", "format version")
        if version[1] != "1":
            raise ParseError(f"unsupported format version {version[1]}", p.span(version))
    entries: dict[str, LexiconEntry] = {}
    while p.cur[0] != "EOF":
        if not p._at_word("sign"):
            raise p._unexpected("sign")
        p._advance()
        name_tok = p._expect("IDENT", "sign name")
        name, span = name_tok[1], p.span(name_tok)
        if name in entries:
            first = entries[name].span
            if duplicates is None:
                raise DuplicateSign(name, first, span)
            duplicates.setdefault(name, [first]).append(span)
        p._expect("ASSIGN", ":=")
        formula = p.formula()
        p._expect("DOT", ".")
        entries.setdefault(name, LexiconEntry(name, formula, span))
    return LexiconFile(tuple(entries.values()))


# --- Pretty printing ---------------------------------------------------------

# Formula precedence levels: a conjunction chain may appear bare only at the
# top; everything to the right of /\ or under !/[] must be unary-tight.
_F_AND, _F_UNARY = 0, 1
# Action levels, loosest to tightest: ";", "&", "|", star, primitive.
_A_SEQ, _A_PAR, _A_CHOICE, _A_STAR, _A_PRIM = 0, 1, 2, 3, 4
_BINARY = {Seq: (" ; ", _A_SEQ), Concurrent: (" & ", _A_PAR), Choice: (" | ", _A_CHOICE)}
# Printing spells an articulator by its letter, a direction by its compass
# name and a place or label as it is: "dir(%s,%s,%s)" % (subject._value_, ...).
# A member's `_value_` and `_name_` are plain attributes; `Enum`'s `value`
# and `name` are properties written in Python.
_SPELLING = {"direction": "._name_", "place": "", "label": ""}


def _printers(heads: tuple[str, ...]) -> dict[type, tuple[str, attrgetter]]:
    """The template and field getter of the leaf type of each head."""
    return {
        node: (f"{head}({','.join(['%s'] * len(fields))})",
               attrgetter(*(f + _SPELLING.get(f, "._value_") for f in fields)))
        for head in heads
        for node in (_LEAVES[head],)
        for fields in (LEAF_FIELDS[node],)
    }


_ATOM_PRINTERS = _printers(_ATOM_HEADS)
_ACTION_PRINTERS = _printers(_ACTION_HEADS)


def print_atomic_action(action: AtomicAction) -> str:
    printer = _ACTION_PRINTERS.get(type(action))
    if printer is None:
        raise TypeError(f"not an atomic action: {action!r}")
    template, spell = printer
    return template % spell(action)


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
    return _print_action(action, _A_SEQ)


def print_atom(atom: Atom) -> str:
    printer = _ATOM_PRINTERS.get(type(atom))
    if printer is None:
        raise TypeError(f"not an atom: {atom!r}")
    template, spell = printer
    return template % spell(atom)


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
