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
stored tree. Nesting is limited to MAX_DEPTH levels, so every walk over a
parsed tree stays well inside Python's recursion limit. Lexicon files hold
entries `sign NAME := <formula> .` with `#` line comments and an optional
leading `format: 1` marker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
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
    implies,
    iter_atoms,
    or_,
)
from .errors import (
    DuplicateSign,
    ParseError,
    SourceSpan,
    UnknownArticulator,
    UnknownDirection,
)

__all__ = [
    "SourceSpan",
    "LexiconEntry",
    "LexiconFile",
    "LintIssue",
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

_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
    "<": "LANGLE", ">": "RANGLE", ",": "COMMA", ";": "SEMI",
    "&": "AMP", "|": "PIPE", "*": "STAR", "!": "BANG",
    ".": "DOT", ":": "COLON",
}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(line, col)
        two = text[i : i + 2]
        if two == "->":
            tokens.append(_Token("ARROW", two, SourceSpan(line, col, 2)))
            i += 2
            col += 2
            continue
        if two == ":=":
            tokens.append(_Token("ASSIGN", two, SourceSpan(line, col, 2)))
            i += 2
            col += 2
            continue
        if two == "/\\":
            tokens.append(_Token("ANDOP", two, SourceSpan(line, col, 2)))
            i += 2
            col += 2
            continue
        if two == "\\/":
            tokens.append(_Token("OROP", two, SourceSpan(line, col, 2)))
            i += 2
            col += 2
            continue
        if ch in "/\\":
            raise ParseError(f"stray {ch!r}", span, frozenset({"/\\", "\\/"}))
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, span))
            i += 1
            col += 1
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(_Token("IDENT", word, SourceSpan(line, col, len(word))))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            word = text[i:j]
            tokens.append(_Token("INT", word, SourceSpan(line, col, len(word))))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", span)
    tokens.append(_Token("EOF", "", SourceSpan(line, col)))
    return tokens


#: Deepest nesting a formula may have. Each parenthesis, `!`, modality,
#: implication arrow and action parenthesis the parser enters counts one
#: level, and so does each level of the tree it builds, so long flat `/\`
#: and `;` chains count too. Leaves have height 0.
MAX_DEPTH = 100

_ARTICULATORS = {a.value: a for a in Articulator}
_DIRECTIONS = {d.name: d for d in Direction}
_ATOM_HEADS = ("dir", "at", "touch", "cfg", "orient")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # nested constructs currently open

    # -- token plumbing --

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def _expect(self, kind: str, what: str | None = None) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"unexpected {self.cur.text or 'end of input'!r}",
                self.cur.span,
                frozenset({what or kind}),
            )
        return self._advance()

    def _expect_word(self, word: str) -> _Token:
        if self.cur.kind != "IDENT" or self.cur.text != word:
            raise ParseError(
                f"unexpected {self.cur.text or 'end of input'!r}",
                self.cur.span,
                frozenset({word}),
            )
        return self._advance()

    def _at_word(self, *words: str) -> bool:
        return self.cur.kind == "IDENT" and self.cur.text in words

    def _enter(self) -> _Token:
        """Open a nested construct at the current token and consume it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self._too_deep(self.cur)
        return self._advance()

    def _node(self, node, height: int, tok: _Token):
        """A built node with its height, refused past MAX_DEPTH at `tok`."""
        if height > MAX_DEPTH:
            raise self._too_deep(tok)
        return node, height

    def _too_deep(self, tok: _Token) -> ParseError:
        return ParseError(f"formula nests deeper than {MAX_DEPTH} levels", tok.span)

    def _articulator(self) -> Articulator:
        tok = self._expect("IDENT", "articulator")
        art = _ARTICULATORS.get(tok.text)
        if art is None:
            raise UnknownArticulator(
                f"unknown articulator {tok.text!r}", tok.span, frozenset(_ARTICULATORS)
            )
        return art

    def _direction(self) -> Direction:
        tok = self._expect("IDENT", "direction")
        d = _DIRECTIONS.get(tok.text)
        if d is None:
            raise UnknownDirection(
                f"unknown direction {tok.text!r}", tok.span, frozenset(_DIRECTIONS)
            )
        return d

    def _name(self) -> str:
        return self._expect("IDENT", "name").text

    # -- formulas --
    # Each level returns the node it parsed together with the node's height.

    def formula(self) -> tuple[Formula, int]:
        left, height = self.or_level()
        if self.cur.kind == "ARROW":
            tok = self._enter()
            right, right_height = self.formula()
            self.depth -= 1
            return self._node(implies(left, right), max(height, right_height + 1) + 2, tok)
        return left, height

    def or_level(self) -> tuple[Formula, int]:
        node, height = self.and_level()
        while self.cur.kind == "OROP":
            tok = self._advance()
            right, right_height = self.and_level()
            node, height = self._node(or_(node, right), max(height, right_height) + 3, tok)
        return node, height

    def and_level(self) -> tuple[Formula, int]:
        node, height = self.unary()
        while self.cur.kind == "ANDOP":
            tok = self._advance()
            right, right_height = self.unary()
            node, height = self._node(And(node, right), max(height, right_height) + 1, tok)
        return node, height

    def unary(self) -> tuple[Formula, int]:
        tok = self.cur
        if tok.kind == "BANG":
            self._enter()
            body, height = self.unary()
            self.depth -= 1
            return self._node(Not(body), height + 1, tok)
        if tok.kind == "LBRACKET":
            self._enter()
            action, action_height = self.action()
            self._expect("RBRACKET", "]")
            body, height = self.unary()
            self.depth -= 1
            return self._node(Box(action, body), max(action_height, height) + 1, tok)
        if tok.kind == "LANGLE":
            self._enter()
            action, action_height = self.action()
            self._expect("RANGLE", ">")
            body, height = self.unary()
            self.depth -= 1
            return self._node(diamond(action, body), max(action_height, height + 1) + 2, tok)
        if tok.kind == "LPAREN":
            self._enter()
            node, height = self.formula()
            self._expect("RPAREN", ")")
            self.depth -= 1
            return node, height
        if self._at_word("true"):
            self._advance()
            return TOP, 0
        if self._at_word(*_ATOM_HEADS):
            return AtomF(self.atom()), 0
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}",
            tok.span,
            frozenset({"!", "[", "<", "(", "true", *_ATOM_HEADS}),
        )

    def atom(self) -> Atom:
        head = self._expect("IDENT", "atom").text
        self._expect("LPAREN", "(")
        if head == "dir":
            subject = self._articulator()
            self._expect("COMMA", ",")
            anchor = self._articulator()
            self._expect("COMMA", ",")
            direction = self._direction()
            self._close_args()
            try:
                return RelDir(subject, direction, anchor)
            except ValueError as exc:
                raise ParseError(str(exc), self.tokens[self.pos - 1].span) from None
        if head == "at":
            art = self._articulator()
            self._expect("COMMA", ",")
            place = self._name()
            self._close_args()
            return At(art, place)
        if head == "touch":
            a = self._articulator()
            self._expect("COMMA", ",")
            b = self._articulator()
            self._close_args()
            try:
                return Touch(a, b)
            except ValueError as exc:
                raise ParseError(str(exc), self.tokens[self.pos - 1].span) from None
        if head == "cfg":
            art = self._articulator()
            self._expect("COMMA", ",")
            label = self._name()
            self._close_args()
            return Config(art, label)
        if head == "orient":
            art = self._articulator()
            self._expect("COMMA", ",")
            direction = self._direction()
            self._close_args()
            return Orient(art, direction)
        raise ParseError(
            f"unknown atom {head!r}", self.tokens[self.pos - 2].span, frozenset(_ATOM_HEADS)
        )

    def _close_args(self) -> None:
        self._expect("RPAREN", ")")

    # -- actions --

    def action(self) -> tuple[Action, int]:
        node, height = self.par_level()
        while self.cur.kind == "SEMI":
            tok = self._advance()
            right, right_height = self.par_level()
            node, height = self._node(Seq(node, right), max(height, right_height) + 1, tok)
        return node, height

    def par_level(self) -> tuple[Action, int]:
        node, height = self.choice_level()
        while self.cur.kind == "AMP":
            tok = self._advance()
            right, right_height = self.choice_level()
            node, height = self._node(Concurrent(node, right), max(height, right_height) + 1, tok)
        return node, height

    def choice_level(self) -> tuple[Action, int]:
        node, height = self.star_level()
        while self.cur.kind == "PIPE":
            tok = self._advance()
            right, right_height = self.star_level()
            node, height = self._node(Choice(node, right), max(height, right_height) + 1, tok)
        return node, height

    def star_level(self) -> tuple[Action, int]:
        node, height = self.prim()
        if self.cur.kind == "STAR":
            tok = self._advance()
            node, height = self._node(Star(node), height + 1, tok)
        return node, height

    def prim(self) -> tuple[Action, int]:
        tok = self.cur
        if tok.kind == "LPAREN":
            self._enter()
            node, height = self.action()
            self._expect("RPAREN", ")")
            self.depth -= 1
            return node, height
        if self._at_word("move", "thrill"):
            return Atomic(self.atomic_action()), 0
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}",
            tok.span,
            frozenset({"move", "thrill", "("}),
        )

    def atomic_action(self) -> AtomicAction:
        head = self._expect("IDENT", "move or thrill").text
        self._expect("LPAREN", "(")
        if head == "move":
            art = self._articulator()
            self._expect("COMMA", ",")
            direction = self._direction()
            self._close_args()
            return Move(art, direction)
        if head == "thrill":
            art = self._articulator()
            self._close_args()
            return Thrill(art)
        raise ParseError(
            f"unknown action {head!r}",
            self.tokens[self.pos - 2].span,
            frozenset({"move", "thrill"}),
        )

    def _expect_eof(self) -> None:
        if self.cur.kind != "EOF":
            raise ParseError(
                f"trailing input {self.cur.text!r}", self.cur.span, frozenset({"end of input"})
            )


def parse_formula(text: str) -> Formula:
    """Parse one formula; the result is fully desugared."""
    p = _Parser(text)
    node, _ = p.formula()
    p._expect_eof()
    return node


def parse_action(text: str) -> Action:
    p = _Parser(text)
    node, _ = p.action()
    p._expect_eof()
    return node


def parse_atom(text: str) -> Atom:
    p = _Parser(text)
    node = p.atom()
    p._expect_eof()
    return node


def parse_atomic_action(text: str) -> AtomicAction:
    p = _Parser(text)
    node = p.atomic_action()
    p._expect_eof()
    return node


# --- Lexicon files -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    name: str
    formula: Formula
    span: SourceSpan


@dataclass(frozen=True, slots=True)
class LexiconFile:
    """Ordered sign lexicon. Formulas are desugared but not grounded;
    grounding happens at verification time with the run's handedness."""

    entries: tuple[LexiconEntry, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def get(self, name: str) -> Formula | None:
        for e in self.entries:
            if e.name == name:
                return e.formula
        return None

    def config_labels(self) -> frozenset[str]:
        labels: set[str] = set()
        for e in self.entries:
            for atom in iter_atoms(e.formula):
                if isinstance(atom, Config):
                    labels.add(atom.label)
        return frozenset(labels)

    def canonical_text(self) -> str:
        return "\n".join(f"sign {e.name} := {print_formula(e.formula)} ." for e in self.entries)


def parse_lexicon(text: str) -> LexiconFile:
    p = _Parser(text)
    if p._at_word("format"):
        p._advance()
        p._expect("COLON", ":")
        version = p._expect("INT", "format version")
        if version.text != "1":
            raise ParseError(f"unsupported format version {version.text}", version.span)
    entries: list[LexiconEntry] = []
    spans: dict[str, SourceSpan] = {}
    while p.cur.kind != "EOF":
        p._expect_word("sign")
        name_tok = p._expect("IDENT", "sign name")
        if name_tok.text in spans:
            raise DuplicateSign(name_tok.text, spans[name_tok.text], name_tok.span)
        p._expect("ASSIGN", ":=")
        formula, _ = p.formula()
        p._expect("DOT", ".")
        entries.append(LexiconEntry(name_tok.text, formula, name_tok.span))
        spans[name_tok.text] = name_tok.span
    return LexiconFile(tuple(entries))


# --- Pretty printing ---------------------------------------------------------

# Formula precedence levels: a conjunction chain may appear bare only at the
# top; everything to the right of /\ or under !/[] must be unary-tight.
_F_AND, _F_UNARY = 0, 1
# Action levels, loosest to tightest: ";", "&", "|", star, primitive.
_A_SEQ, _A_PAR, _A_CHOICE, _A_STAR, _A_PRIM = 0, 1, 2, 3, 4


def print_atomic_action(action: AtomicAction) -> str:
    match action:
        case Move(articulator=b, direction=d):
            return f"move({b.value},{d.name})"
        case Thrill(articulator=b):
            return f"thrill({b.value})"
    raise TypeError(f"not an atomic action: {action!r}")


def _print_action(action: Action, min_level: int) -> str:
    match action:
        case Atomic(a):
            return print_atomic_action(a)
        case Seq(l, r):
            text = f"{_print_action(l, _A_SEQ)} ; {_print_action(r, _A_PAR)}"
            level = _A_SEQ
        case Concurrent(l, r):
            text = f"{_print_action(l, _A_PAR)} & {_print_action(r, _A_CHOICE)}"
            level = _A_PAR
        case Choice(l, r):
            text = f"{_print_action(l, _A_CHOICE)} | {_print_action(r, _A_STAR)}"
            level = _A_CHOICE
        case Star(body):
            text = f"{_print_action(body, _A_PRIM)}*"
            level = _A_STAR
        case _:
            raise TypeError(f"not an action node: {action!r}")
    return f"({text})" if level < min_level else text


def print_action(action: Action) -> str:
    return _print_action(action, _A_SEQ)


def print_atom(atom: Atom) -> str:
    match atom:
        case RelDir(subject=s, direction=d, anchor=a):
            return f"dir({s.value},{a.value},{d.name})"
        case At(articulator=b, place=p):
            return f"at({b.value},{p})"
        case Touch(a=a, b=b):
            return f"touch({a.value},{b.value})"
        case Config(articulator=b, label=c):
            return f"cfg({b.value},{c})"
        case Orient(articulator=b, direction=d):
            return f"orient({b.value},{d.name})"
    raise TypeError(f"not an atom: {atom!r}")


def _print_formula(formula: Formula, min_level: int) -> str:
    match formula:
        case Top():
            return "true"
        case AtomF(atom):
            return print_atom(atom)
        case Not(body):
            return f"!{_print_formula(body, _F_UNARY)}"
        case Box(action, body):
            return f"[{print_action(action)}] {_print_formula(body, _F_UNARY)}"
        case And(l, r):
            text = f"{_print_formula(l, _F_AND)} /\\ {_print_formula(r, _F_UNARY)}"
            return f"({text})" if min_level > _F_AND else text
    raise TypeError(f"not a formula node: {formula!r}")


def print_formula(formula: Formula) -> str:
    """Canonical text that re-parses to an identical tree. Sugar is not
    reintroduced."""
    return _print_formula(formula, _F_AND)


# --- Lint --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LintIssue:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


def lint_lexicon(text: str) -> tuple[LexiconFile | None, list[LintIssue]]:
    """Parse a lexicon and collect diagnostics. Parse failures yield a
    single error issue and no lexicon; warnings flag atoms that planar
    tracking can never decide."""
    try:
        lexicon = parse_lexicon(text)
    except DuplicateSign as exc:
        return None, [
            LintIssue("error", f"duplicate sign {exc.name!r}, first defined here", exc.first),
            LintIssue("error", f"duplicate sign {exc.name!r}", exc.second),
        ]
    except ParseError as exc:
        return None, [LintIssue("error", str(exc.args[0]), exc.span)]
    issues: list[LintIssue] = []
    for entry in lexicon.entries:
        for atom in iter_atoms(entry.formula):
            if isinstance(atom, Orient):
                issues.append(
                    LintIssue(
                        "warning",
                        f"sign {entry.name!r} uses {print_atom(atom)}: orientation is "
                        "undecidable from planar tracking and stays unknown unless the "
                        "input carries orientation labels",
                        entry.span,
                    )
                )
                break
    return lexicon, issues
