"""The tokenizer against the span-per-token tokenizer it replaced.

`_reference_tokenize` is an earlier `parsing._tokenize`, kept verbatim
apart from its names: it builds a SourceSpan for every token. The current
tokenizer gives each token as its text, and a parser finds a token's span
only where one is read; together they must give the same texts and spans,
or raise the same error at the same place. The tokenizer gives a leaf
written without spaces as one token, so it is compared with the reference
on the text with a space after every `(` and `,` of each leaf, which it
never joins. A parser that spells each leaf token must read exactly the
tokens the reference gives in its place.
"""

import re
import time
from typing import NamedTuple

import pytest
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


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return type(exc), exc.args[0], exc.span, exc.expected


def _reference(text):
    return _outcome(lambda text: [(t.text, t.span) for t in _reference_tokenize(text)], text)


def _texts_and_spans(text):
    """The text and span of each token up to the end of input, as a parser
    finds them, measured from the last token back, where `_spelled_leaves`
    measures them from the first on."""
    parser = parsing._Parser(text)
    indices = range(parser.tokens.index(""), -1, -1)
    return [(parser.tokens[i], parser.span(i)) for i in indices][::-1]


def _current(text):
    return _outcome(_texts_and_spans, text)


def spaced_leaves(text):
    """The text with a space after every `(` and `,` of each leaf token."""
    return parsing._LEAF_RE.sub(
        lambda m: m[1] + m[2].replace("(", "( ").replace(",", ", ") if "(" in m[2][1:] else m[0],
        text)


def _spelled_leaves(text):
    """The tokens a parser reads when it spells every leaf token."""
    parser = parsing._Parser(text)
    tokens = []
    while True:
        parser._spell()
        tokens.append((parser.cur, parser.span(parser.i)))
        if not parser.cur:
            return tokens
        parser._advance()


def _leafy(text):
    return _outcome(_spelled_leaves, text)


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
    spaced = spaced_leaves(text)
    assert _current(spaced) == _reference(spaced)


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
        "a  # (b) c,\nd", "a \t # (b\n  # c)\n( b )", "a \t\r\n ", "a(  # x)\n)  \n\n",
        route_lexicon_text,
    ]
    for text in cases:
        spaced = spaced_leaves(text)
        assert _current(spaced) == _reference(spaced), text
        assert _leafy(text) == _reference(text), text
    # The cases reach both errors and both kinds of end of input.
    outcomes = [_current(spaced_leaves(text)) for text in cases]
    assert any(isinstance(o, tuple) and "stray" in o[1] for o in outcomes)
    assert any(isinstance(o, tuple) and "unexpected" in o[1] for o in outcomes)
    heads = [word.partition("(")[0] for word in parsing._tokenize(route_lexicon_text)[2::3]
             if "(" in word[1:]]
    assert [sum(head in kind for head in heads)
            for kind in (parsing._ATOM_HEADS, parsing._ACTION_HEADS)] == [10, 2]
    assert _current("a # end")[-1] == ("", SourceSpan(1, 3))


# Long runs of blanks and comments, which one match reads in front of the
# next token: a tokenizer that reads them in one linear pass takes a few
# milliseconds on each, and one that backtracks into them does not finish.
_LONG_RUNS = {
    "400,000 trailing blanks": "sign A := true ." + " \t\r\n" * 100_000,
    "one 400,000-character comment": "a # " + "(b) " * 99_999 + "c\nd",
    "100,000 comment lines": "a\n" + "# (b) c\n" * 100_000 + "d",
    "200,000 blanks before a final comment": "a" + " " * 200_000 + "# (b",
    "200,000 blanks before a skipped character": "a" + " " * 200_000 + "²" + " " * 200_000 + "@",
}


@pytest.mark.parametrize("text", _LONG_RUNS.values(), ids=_LONG_RUNS.keys())
def test_tokenizer_reads_long_blank_and_comment_runs_in_linear_time(text):
    start = time.perf_counter()
    tokens = _current(text)
    assert time.perf_counter() - start < 2.0
    assert tokens == _reference(text)
