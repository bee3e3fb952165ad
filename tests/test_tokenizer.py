"""The offset tokenizer against the span-per-token tokenizer it replaced.

`_reference_tokenize` is the earlier `parsing._tokenize`, kept verbatim
apart from its names: it builds a SourceSpan for every token. The current
tokenizer keeps offsets and builds spans on demand, and must give the same
kinds, texts and spans, or raise the same error at the same place. With
`leaves` set it gives a leaf written without spaces as one token, which
must spell exactly the tokens the reference gives in its place.
"""

import re
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from pdlsl import ParseError, SourceSpan
from pdlsl import parsing

_REFERENCE_TOKENS = (
    ("NEWLINE", r"\n"), ("SPACE", r"[ \t\r]+"), ("COMMENT", r"\#[^\n]*"),
    ("ARROW", "->"), ("ASSIGN", ":="), ("ANDOP", r"/\\"), ("OROP", r"\\/"), ("STRAY", r"[/\\]"),
    ("LPAREN", r"\("), ("RPAREN", r"\)"), ("LBRACKET", r"\["), ("RBRACKET", r"\]"),
    ("LANGLE", "<"), ("RANGLE", ">"), ("COMMA", ","), ("SEMI", ";"), ("AMP", "&"),
    ("PIPE", r"\|"), ("STAR", r"\*"), ("BANG", "!"), ("DOT", r"\."), ("COLON", ":"),
    ("IDENT", "[A-Za-z_][A-Za-z0-9_]*"), ("OTHER", "."),
)
_REFERENCE_RE = re.compile(
    "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _REFERENCE_TOKENS)
)
_REFERENCE_SKIPPED = frozenset({"NEWLINE", "SPACE", "COMMENT"})


class _ReferenceToken(NamedTuple):
    kind: str
    text: str
    span: SourceSpan


def _reference_tokenize(text: str) -> list[_ReferenceToken]:
    tokens: list[_ReferenceToken] = []
    line, line_start, pos, n = 1, 0, 0, len(text)
    match = _REFERENCE_RE.match
    while pos < n:
        m = match(text, pos)
        kind, end, col = m.lastgroup, m.end(), pos - line_start + 1
        if kind == "OTHER" and text[pos].isdigit():
            while end < n and text[end].isdigit():
                end += 1
            kind = "INT"
        elif kind == "OTHER":
            raise ParseError(f"unexpected character {text[pos]!r}", SourceSpan(line, col))
        elif kind == "STRAY":
            expected = frozenset({"/\\", "\\/"})
            raise ParseError(f"stray {text[pos]!r}", SourceSpan(line, col), expected)
        elif kind == "NEWLINE":
            line, line_start = line + 1, end
        if kind not in _REFERENCE_SKIPPED:
            tokens.append(_ReferenceToken(kind, text[pos:end], SourceSpan(line, col, end - pos)))
        pos = end
    # A comment on the last line leaves the end of input at its "#".
    comment = text.find("#", line_start)
    end_col = (n if comment < 0 else comment) - line_start + 1
    tokens.append(_ReferenceToken("EOF", "", SourceSpan(line, end_col)))
    return tokens


def _outcome(tokenize, materialize, text):
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        return type(exc), exc.args[0], exc.span, exc.expected
    return materialize(text, tokens)


def _reference(text):
    return _outcome(_reference_tokenize, lambda _, tokens: [tuple(t) for t in tokens], text)


def _materialize(text, tokens):
    breaks = parsing._line_breaks(text)
    return [(kind, word, parsing._span(breaks, offset, length))
            for kind, word, offset, length in tokens]


def _current(text):
    return _outcome(parsing._tokenize, _materialize, text)


def _spelled_leaves(text):
    """The tokens with leaf tokens, each leaf token replaced by the tokens
    of its own text, moved to its place."""
    tokens = []
    for kind, word, offset, length in parsing._tokenize(text, leaves=True):
        if kind in ("ATOM", "ACTION"):
            tokens += [(k, w, offset + o, n) for k, w, o, n in parsing._tokenize(word)[:-1]]
        else:
            tokens.append((kind, word, offset, length))
    return tokens


def _leafy(text):
    return _outcome(_spelled_leaves, _materialize, text)


# Every token kind, line ends (LF, CRLF), tabs, digit runs with non-ASCII
# digits, comments, stray slashes and characters no token starts with.
_FRAGMENTS = (
    "sign", "touch", "R", "L", "x_1", "_", "->", ":=", ":", "/\\", "\\/", "/", "\\",
    "(", ")", "[", "]", "<", ">", ",", ";", "&", "|", "*", "!", ".", "-", "=",
    " ", "  ", "\t", "\n", "\r\n", "\r", "# note", "# note\n", "#",
    "1", "42", "²", "٣", "7²", "@", "é", "\f", " ",
    "touch(R,L)", "move(D,SE)", "at(R,x_1)", "thrill(W)", "dir(", "cfg(L,", "orient(R)",
)

_texts = st.tuples(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40),
    st.sampled_from(("", "\n", "# trailing", "# trailing\n", "  ", "\r\n")),
).map(lambda parts: "".join(parts[0]) + parts[1])


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_texts)
def test_tokenizer_matches_reference(text):
    assert _current(text) == _reference(text)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_texts)
def test_leaf_tokens_spell_the_reference_tokens(text):
    assert _leafy(text) == _reference(text)


def test_tokenizer_matches_reference_on_named_cases(route_lexicon_text):
    cases = [
        "", "\n", "#", "# only a comment", "a\n# last line comment",
        "format: 1\nsign X := touch(R,L) .\r\n",
        "12²٣ 3", "x /\\/ y", "x \\/\\ y", "a\tb\r\nc -> d", "a\n\n  @",
        "sign A := true . # done", "sign A :=\n  - 1",
        route_lexicon_text,
    ]
    for text in cases:
        assert _current(text) == _reference(text) == _leafy(text), text
    # The cases reach both errors and both kinds of end of input.
    outcomes = [_current(text) for text in cases]
    assert any(isinstance(o, tuple) and "stray" in o[1] for o in outcomes)
    assert any(isinstance(o, tuple) and "unexpected" in o[1] for o in outcomes)
    kinds = [kind for kind, *_ in parsing._tokenize(route_lexicon_text, leaves=True)]
    assert kinds.count("ATOM") == 10 and kinds.count("ACTION") == 2
    assert _current("a # end")[-1] == ("EOF", "", SourceSpan(1, 3))
