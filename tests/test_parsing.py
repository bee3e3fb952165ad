import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pdlsl import (
    TOP,
    And,
    Articulator,
    At,
    AtomF,
    Atomic,
    Box,
    Concurrent,
    Config,
    Direction,
    DuplicateSign,
    Move,
    Not,
    ParseError,
    RelDir,
    Seq,
    SourceSpan,
    Star,
    Touch,
    UnknownArticulator,
    UnknownDirection,
    implies,
    parse_action,
    parse_atom,
    parse_atomic_action,
    parse_formula,
    parse_lexicon,
    lint_lexicon,
    print_action,
    print_atom,
    print_atomic_action,
    print_formula,
)
from pdlsl.check import parse_overrides
from pdlsl.core import LEAF_FIELDS
from pdlsl.parsing import MAX_DEPTH

from pdlsl import parsing
from test_core import formulas  # hypothesis strategy
from test_tokenizer import spaced_leaves

R, L = Articulator.RIGHT, Articulator.LEFT
E, W, NE = Direction.E, Direction.W, Direction.NE


# --- formula grammar -----------------------------------------------------------


def test_box_with_concurrent_movement():
    got = parse_formula("[move(R,W) & move(L,E)] !touch(R,L)")
    assert got == Box(
        Concurrent(Atomic(Move(R, W)), Atomic(Move(L, E))),
        Not(AtomF(Touch(R, L))),
    )


ROUTE_TEXT = (
    "(at(R,FACE) /\\ at(L,FACE) /\\ dir(L,R,E) /\\ cfg(R,CLAMP) /\\ cfg(L,CLAMP) "
    "/\\ touch(R,L)) -> [move(R,W) & move(L,E)]"
    "(dir(L,R,E) /\\ cfg(R,CLAMP) /\\ cfg(L,CLAMP) /\\ !touch(R,L))"
)


def route_formula():
    antecedent = And(
        And(
            And(
                And(
                    And(AtomF(At(R, "FACE")), AtomF(At(L, "FACE"))),
                    AtomF(RelDir(L, E, R)),
                ),
                AtomF(Config(R, "CLAMP")),
            ),
            AtomF(Config(L, "CLAMP")),
        ),
        AtomF(Touch(R, L)),
    )
    movement = Concurrent(Atomic(Move(R, W)), Atomic(Move(L, E)))
    consequent = And(
        And(
            And(AtomF(RelDir(L, E, R)), AtomF(Config(R, "CLAMP"))),
            AtomF(Config(L, "CLAMP")),
        ),
        Not(AtomF(Touch(R, L))),
    )
    return implies(antecedent, Box(movement, consequent))


def test_route_description_desugars():
    assert parse_formula(ROUTE_TEXT) == route_formula()


def test_dir_argument_order():
    # dir(b1,b2,d): subject first, anchor second, direction last.
    assert parse_formula("dir(L,R,E)") == AtomF(RelDir(L, E, R))


def test_unknown_direction_has_span():
    with pytest.raises(UnknownDirection) as exc:
        parse_formula("[move(R,Q)] true")
    assert exc.value.span.line == 1
    assert exc.value.span.column == 9  # the Q token


def test_unknown_articulator():
    with pytest.raises(UnknownArticulator):
        parse_formula("touch(X,L)")


def test_duplicate_articulator_in_atom_rejected():
    with pytest.raises(ParseError):
        parse_formula("touch(R,R)")


# --- precedence fixtures ---------------------------------------------------------

A = "at(R,HEAD)"
B = "touch(R,L)"
C = "cfg(R,CLAMP)"
fa, fb, fc = parse_formula(A), parse_formula(B), parse_formula(C)


def test_and_binds_tighter_than_or():
    from pdlsl import or_

    assert parse_formula(f"{A} /\\ {B} \\/ {C}") == or_(And(fa, fb), fc)
    assert parse_formula(f"{A} \\/ {B} /\\ {C}") == or_(fa, And(fb, fc))


def test_implication_is_right_associative_and_loosest():
    assert parse_formula(f"{A} -> {B} -> {C}") == implies(fa, implies(fb, fc))
    assert parse_formula(f"{A} /\\ {B} -> {C}") == implies(And(fa, fb), fc)


def test_negation_binds_tightest():
    assert parse_formula(f"!{A} /\\ {B}") == And(Not(fa), fb)


def test_box_body_is_unary():
    got = parse_formula(f"[move(R,E)] {A} /\\ {B}")
    assert got == And(Box(Atomic(Move(R, E)), fa), fb)


def test_and_chain_left_associative():
    assert parse_formula(f"{A} /\\ {B} /\\ {C}") == And(And(fa, fb), fc)


def test_diamond_desugars():
    from pdlsl import diamond

    assert parse_formula(f"<move(R,E)> {A}") == diamond(Atomic(Move(R, E)), fa)


m1, m2, m3, m4 = "move(R,N)", "move(L,N)", "move(R,S)", "move(L,S)"
am1, am2, am3, am4 = (parse_action(t) for t in (m1, m2, m3, m4))


def test_action_precedence_seq_par_choice():
    from pdlsl import Choice

    got = parse_action(f"{m1} ; {m2} & {m3} | {m4}")
    assert got == Seq(am1, Concurrent(am2, Choice(am3, am4)))


def test_star_binds_tightest():
    assert parse_action(f"{m1}*") == Star(am1)
    assert parse_action(f"({m1} ; {m2})*") == Star(Seq(am1, am2))
    with pytest.raises(ParseError):
        parse_action(f"{m1}**")


# --- printing ------------------------------------------------------------------


def test_print_examples():
    assert print_formula(TOP) == "true"
    assert (
        print_formula(Box(Star(Atomic(Move(L, NE))), AtomF(At(L, "HEAD"))))
        == "[move(L,NE)*] at(L,HEAD)"
    )
    assert print_atom(RelDir(L, E, R)) == "dir(L,R,E)"
    with pytest.raises(TypeError, match="not an atom"):
        print_atom(Move(R, E))
    assert print_action(Seq(am1, Seq(am2, am3))) == "move(R,N) ; (move(L,N) ; move(R,S))"


def test_print_keeps_right_nested_conjunction_grouped():
    nested = And(fa, And(fb, fc))
    text = print_formula(nested)
    assert parse_formula(text) == nested
    assert text == "at(R,HEAD) /\\ (touch(R,L) /\\ cfg(R,CLAMP))"


@given(formulas)
def test_print_parse_round_trip(formula):
    assert parse_formula(print_formula(formula)) == formula


@settings(max_examples=300)
@given(st.text(max_size=60))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_formula(text)
    except ParseError as exc:
        assert exc.span.line >= 1
        assert exc.span.column >= 1


# --- lexicons ------------------------------------------------------------------


def test_minimal_lexicon():
    lex = parse_lexicon("sign ROUTE := true .")
    assert lex.names() == ("ROUTE",)
    assert lex.get("ROUTE") == TOP
    assert lex.get("OTHER") is None


def test_duplicate_sign_reports_both_spans():
    text = "sign ROUTE := true .\nsign ROUTE := true ."
    with pytest.raises(DuplicateSign) as exc:
        parse_lexicon(text)
    assert exc.value.first.line == 1
    assert exc.value.second.line == 2


def test_route_lexicon_file(route_lexicon_text):
    lex = parse_lexicon(route_lexicon_text)
    assert lex.names() == ("ROUTE",)
    assert lex.get("ROUTE") == route_formula()


def test_lexicon_order_comments_crlf():
    text = "# two signs\r\nsign B := true .\r\nsign A := touch(R,L) .\r\n"
    lex = parse_lexicon(text)
    assert lex.names() == ("B", "A")


def test_parse_lexicon_builds_spans_only_when_read(monkeypatch, route_lexicon_text):
    # A clean parse reads one span per sign name; building one per token,
    # as the parser once did, made tokenizing most of parse_lexicon's time.
    text = route_lexicon_text + "".join(
        f"\n# sign {i}\r\nsign S{i} :=\n\t[move(D,N)*]\n  (touch(R,L) /\\ at(L,FACE)) ."
        for i in range(40)
    )
    built = []
    real = parsing.SourceSpan

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(parsing, "SourceSpan", counting)
    lexicon = parse_lexicon(text)
    assert len(lexicon.entries) == 41
    assert len(built) <= 2 * len(lexicon.entries)
    lines = text.split("\n")
    assert lexicon.entries[0].span == real(7, 6, 5)
    for entry in lexicon.entries:
        line, column, length = entry.span.line, entry.span.column, entry.span.length
        assert lines[line - 1][column - 1 : column - 1 + length + 1] == entry.name + " "


def test_lexicon_format_header():
    assert parse_lexicon("format: 1\nsign X := true .").names() == ("X",)
    with pytest.raises(ParseError):
        parse_lexicon("format: 2\nsign X := true .")


def test_nested_error_span_points_into_entry():
    text = "sign GOOD := true .\nsign BAD := touch(R,) ."
    with pytest.raises(ParseError) as exc:
        parse_lexicon(text)
    assert exc.value.span.line == 2


def test_parse_atom_rejects_trailing_input():
    assert parse_atom("touch(R,L)") == Touch(R, L)
    with pytest.raises(ParseError):
        parse_atom("touch(R,L) x")


# --- leaf tokens -----------------------------------------------------------------
# A leaf written without spaces is one token, built once per parse. Each case
# below reads as it did when every leaf was read token by token: the errors,
# spans and expected sets are the ones that reading gave.

ATOMS = ["at", "cfg", "dir", "orient", "touch"]
FORMULA_START = ["!", "(", "<", "["] + ATOMS + ["true"]
LEAF_ERRORS = [
    # an atom head in action position, and the reverse, also after the same
    # leaf was built where it belongs
    ("parse_formula", "[touch(R,L)] true", ParseError, "unexpected 'touch'", (1, 2, 5),
     ["(", "move", "thrill"]),
    ("parse_formula", "move(R,E)", ParseError, "unexpected 'move'", (1, 1, 4), FORMULA_START),
    ("parse_lexicon", "sign A := touch(R,L) .\nsign B := [touch(R,L)] true .", ParseError,
     "unexpected 'touch'", (2, 12, 5), ["(", "move", "thrill"]),
    ("parse_lexicon", "sign A := [move(R,E)] true .\nsign B := move(R,E) .", ParseError,
     "unexpected 'move'", (2, 11, 4), FORMULA_START),
    ("parse_atom", "move(R,E)", ParseError, "unknown atom 'move'", (1, 1, 4), ATOMS),
    ("parse_atomic_action", "touch(R,L)", ParseError, "unknown action 'touch'", (1, 1, 5),
     ["move", "thrill"]),
    # a leaf as a sign name, a format version, a place or a first entry
    ("parse_lexicon", "sign touch(R,L) := true .", ParseError, "unexpected '('", (1, 11, 1),
     [":="]),
    ("parse_lexicon", "sign A := true .\nsign A(R) := true .", DuplicateSign,
     "duplicate sign 'A' (first defined at 1:6)", (2, 6, 1), []),
    ("parse_lexicon", "format: touch(R,L)", ParseError, "unexpected 'touch'", (1, 9, 5),
     ["format version"]),
    ("parse_lexicon", "touch(R,L)", ParseError, "unexpected 'touch'", (1, 1, 5), ["sign"]),
    ("parse_formula", "at(R,touch(R,L))", ParseError, "unexpected '('", (1, 11, 1), [")"]),
    ("parse_formula", "true touch(R,L)", ParseError, "trailing input 'touch'", (1, 6, 5),
     ["end of input"]),
    # an unknown name or a wrong argument inside an otherwise well-formed leaf,
    # also where the same head was built with good arguments before
    ("parse_formula", "touch(R,Q)", UnknownArticulator, "unknown articulator 'Q'", (1, 9, 1),
     ["D", "L", "R", "W"]),
    ("parse_lexicon", "sign A := touch(R,L) .\nsign B := touch(R,Q) .", UnknownArticulator,
     "unknown articulator 'Q'", (2, 19, 1), ["D", "L", "R", "W"]),
    ("parse_lexicon", "sign A := dir(R,L,E) .\nsign B := dir(R,L,Q) .", UnknownDirection,
     "unknown direction 'Q'", (2, 19, 1), ["E", "N", "NE", "NW", "S", "SE", "SW", "W"]),
    ("parse_formula", "dir(R,R,E)", ParseError,
     "relative direction needs two distinct articulators", (1, 10, 1), []),
    ("parse_formula", "touch(R,L,E)", ParseError, "unexpected ','", (1, 10, 1), [")"]),
    ("parse_formula", "at(R)", ParseError, "unexpected ')'", (1, 5, 1), [","]),
    # a leaf cut off by the end of input
    ("parse_formula", "touch(R,L", ParseError, "unexpected 'end of input'", (1, 10, 1), [")"]),
    ("parse_lexicon", "sign A := touch(R,L) /\\ touch(R,L", ParseError,
     "unexpected 'end of input'", (1, 34, 1), [")"]),
]


@pytest.mark.parametrize("entry, text, error, message, span, expected", LEAF_ERRORS)
def test_leaf_tokens_keep_every_error_and_span(entry, text, error, message, span, expected):
    with pytest.raises(error) as exc:
        getattr(parsing, entry)(text)
    assert type(exc.value) is error
    assert (exc.value.args[0], exc.value.span, sorted(exc.value.expected)) == (
        message, SourceSpan(*span), sorted(expected))


def test_a_leaf_reads_the_same_with_and_without_spaces():
    text = ("sign A := touch(R,L) /\\ touch( R , L ) .\n"
            "sign B := [move(D,SE) ; move (D, SE)] touch(R,L) .\n"
            "sign C := touch (R,L) .")
    assert "touch(R,L)" in parsing._tokenize(text)[2::3]
    a, b, c = parse_lexicon(text).entries
    assert a.formula is And(AtomF(Touch(R, L)), AtomF(Touch(R, L)))
    move = Atomic(Move(Articulator.DOMINANT, Direction.SE))
    assert b.formula is Box(Seq(move, move), AtomF(Touch(R, L)))
    assert c.formula is AtomF(Touch(R, L))
    assert [e.span for e in (a, b, c)] == [SourceSpan(n, 6, 1) for n in (1, 2, 3)]


def test_leaf_tokens_build_the_nodes_of_reading_token_by_token(route_lexicon_text):
    text = route_lexicon_text + "".join(f"\nsign S{i} := {ROUTE_TEXT} ." for i in range(5))
    spaced = spaced_leaves(text)  # read token by token
    assert not any("(" in word[1:] for word in parsing._tokenize(spaced)[2::3])
    leafy, by_token = parse_lexicon(text), parse_lexicon(spaced)
    assert leafy == by_token
    assert all(a.formula is b.formula for a, b in zip(leafy.entries, by_token.entries))


def count_leaves_built(monkeypatch):
    """The text of each leaf built from then on, whether read with one split
    (`_split_leaf`) or from its tokens (`_Parser._leaf_from_tokens`)."""
    built = []
    split, from_tokens = parsing._split_leaf, parsing._Parser._leaf_from_tokens

    def splitting(text, heads):
        leaf = split(text, heads)
        if leaf is not None:
            built.append(text)
        return leaf

    def reading(parser, heads, what, noun):
        leaf = from_tokens(parser, heads, what, noun)
        built.append((print_atom if heads == parsing._ATOM_HEADS else print_atomic_action)(leaf))
        return leaf

    monkeypatch.setattr(parsing, "_split_leaf", splitting)
    monkeypatch.setattr(parsing._Parser, "_leaf_from_tokens", reading)
    return built


def test_parsing_twice_builds_the_same_leaves(monkeypatch):
    # Each distinct leaf token is built once per call, by one split; none is
    # kept between calls.
    built = count_leaves_built(monkeypatch)
    text = "".join(f"sign S{i} := {ROUTE_TEXT} .\n" for i in range(3))
    parse_lexicon(text)
    first = sorted(built)
    built.clear()
    parse_lexicon(text)
    assert sorted(built) == first
    assert first == sorted({"at(R,FACE)", "at(L,FACE)", "dir(L,R,E)", "cfg(R,CLAMP)",
                            "cfg(L,CLAMP)", "touch(R,L)", "move(R,W)", "move(L,E)"})


VALID = {"parse_formula": ROUTE_TEXT, "parse_action": "move(R,W) ; (move (L,E) & thrill(W))*",
         "parse_atom": "dir(L,R,E)", "parse_atomic_action": "move(D,SE)"}
# The distinct leaves of each valid text: `move (L,E)` is read by its tokens.
VALID_LEAVES = {"parse_formula": 8, "parse_action": 3, "parse_atom": 1,
                "parse_atomic_action": 1, "parse_lexicon": 8}


@pytest.mark.parametrize("entry", [*VALID, "parse_lexicon"])
def test_each_parse_builds_one_parser(monkeypatch, route_lexicon_text, entry):
    # A lone leaf is read with one split and no parser; any other text, and
    # every text with an error, by one parser, which reports the error.
    made = []

    class Counting(parsing._Parser):
        def __init__(self, text, *args):
            made.append(text)
            super().__init__(text, *args)

    monkeypatch.setattr(parsing, "_Parser", Counting)
    built = count_leaves_built(monkeypatch)
    lone_leaf = entry in ("parse_atom", "parse_atomic_action")
    valid = VALID.get(entry, route_lexicon_text)
    getattr(parsing, entry)(valid)
    assert made == ([] if lone_leaf else [valid])
    assert len(built) == len(set(built)) == VALID_LEAVES[entry]
    for _, text, *_ in LEAF_ERRORS:
        made.clear()
        try:
            getattr(parsing, entry)(text)
        except ParseError:
            assert made == [text]
        else:  # such as `move(R,E)`, a valid atomic action
            assert made == ([] if lone_leaf else [text])


# --- leaves read with one split ---------------------------------------------------
# A leaf written without blanks is read with one split wherever that gives a
# node, and otherwise from its tokens. Either way it reads as the same leaf
# written with blanks, `touch( R , L )`, which is read from its tokens.

WORDS = {"articulator": "DWRL", "direction": [d.name for d in Direction],
         "name": ["FACE", "CLAMP", "x_1", "_", "true"]}
UNKNOWN = {"articulator": ["Q", "r", "NE", "x_1"], "direction": ["Q", "ne", "NNE", "R"],
           "name": ["1x", "x-y", "é", "a.b"]}
SPLIT_ENTRIES = [  # each entry point, with the leaf in atom and in action position
    (parse_formula, "{}"), (parse_formula, "[{}] true"),
    (parse_lexicon, "sign A := {} ."), (parse_lexicon, "sign A := <{}> true ."),
    (parse_atom, "{}"), (parse_atomic_action, "{}"), (parse_overrides, "state 0: {} = true"),
]


def kind_of(field):
    return {"direction": "direction", "place": "name", "label": "name"}.get(field, "articulator")


def leaf_arguments(rng, head):
    """Argument lists for `head`: valid words, an unknown articulator or
    direction or a name that is no IDENT in each place, one argument too few
    and one too many, the same articulator twice, and the aliases D and W."""
    kinds = [kind_of(field) for field in LEAF_FIELDS[parsing._LEAVES[head]]]
    valid = lambda: [rng.choice(WORDS[kind]) for kind in kinds]  # noqa: E731
    cases = [valid() for _ in range(3)]
    for i, kind in enumerate(kinds):
        cases.append(valid())
        cases[-1][i] = rng.choice(UNKNOWN[kind])
    cases += [valid()[:-1], valid() + [rng.choice(WORDS["articulator"])]]
    if head in ("dir", "touch"):
        twice = valid()
        twice[1] = twice[0]
        cases.append(twice)
    cases.append([rng.choice("DW") if kind == "articulator" else rng.choice(WORDS[kind])
                  for kind in kinds])
    return cases


def read_outcome(read, text):
    """The result of `read(text)`; for a ParseError, its class, message and
    expected set, with where its span starts when blanks are not counted and
    the text it covers."""
    try:
        return read(text)
    except ParseError as exc:
        assert exc.span.line == 1
        start = exc.span.column - 1
        covered = text[start : start + exc.span.length]
        return type(exc), exc.args[0], exc.expected, len(text[:start].replace(" ", "")), covered


def test_a_split_leaf_reads_as_the_leaf_written_with_blanks():
    rng = random.Random(24)
    seen = set()
    for head in (*parsing._ATOM_HEADS, *parsing._ACTION_HEADS):
        for words in leaf_arguments(rng, head):
            blank_free, spaced = f"{head}({','.join(words)})", f"{head}( {' , '.join(words)} )"
            for read, where in SPLIT_ENTRIES:
                outcome = read_outcome(read, where.format(blank_free))
                assert outcome == read_outcome(read, where.format(spaced)), (blank_free, where)
                seen.add(outcome[0] if isinstance(outcome, tuple) else "node")
    assert seen == {"node", ParseError, UnknownArticulator, UnknownDirection}


# --- nesting and the recursion limit ----------------------------------------------

# Each construct nested k levels deep, and the deepest k that parses. An
# implication is three nodes high, so 33 arrows make the deepest chain.
NESTINGS = {
    "parentheses": (lambda k: "(" * k + "true" + ")" * k, MAX_DEPTH),
    "action parentheses": (
        lambda k: "[" + "(" * (k - 1) + "move(R,E)" + ")" * (k - 1) + "] true", MAX_DEPTH),
    "negations": (lambda k: "!" * k + "true", MAX_DEPTH),
    "boxes": (lambda k: "[move(R,E)] " * k + "true", MAX_DEPTH),
    "arrows": (lambda k: " -> ".join(["touch(R,L)"] * (k + 1)), MAX_DEPTH // 3),
}
HEADROOM = """
import json, sys
from pdlsl.parsing import ParseError, parse_formula
sys.setrecursionlimit(300)
outcomes = []
for text in json.loads(sys.argv[1]):
    try:
        parse_formula(text)
        outcomes.append("parsed")
    except (ParseError, RecursionError) as exc:
        outcomes.append(f"{type(exc).__name__}: {exc.args[0]}")
print(json.dumps(outcomes))
"""


@pytest.mark.parametrize("construct", NESTINGS)
def test_nesting_to_the_limit_needs_few_frames(construct):
    # Each level costs at most two Python frames, so a recursion limit of
    # 300 leaves room to nest to MAX_DEPTH, and to refuse one level more.
    make, deepest = NESTINGS[construct]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(parsing.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", HEADROOM, json.dumps([make(deepest),
                                                                       make(deepest + 1)])],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "parsed", f"ParseError: formula nests deeper than {MAX_DEPTH} levels"]


# --- lint ----------------------------------------------------------------------


def test_lint_clean_lexicon():
    lex, issues = lint_lexicon("sign X := touch(R,L) .")
    assert lex is not None
    assert issues == []


def test_lint_flags_orientation_atoms():
    lex, issues = lint_lexicon("sign X := orient(R,N) .")
    assert lex is not None
    assert [(i.code, i.severity) for i in issues] == [("undecidable-orientation", "warning")]


def test_lint_warns_of_alias_collisions_per_handedness():
    text = "sign X := touch(D,L) /\\ [move(D,N)] dir(W,L,E) .\nsign Y := touch(D,W) ."
    lex, issues = lint_lexicon(text)
    assert lex is not None
    assert [(i.code, str(i.span), i.severity) for i in issues] == [
        ("alias-collision", "1:6", "warning")] * 2
    assert [i.message for i in issues] == [
        f"sign 'X' uses {atom}: {hands} are the same hand for a {side}-dominant signer; "
        "check refuses this lexicon for such a signer"
        for atom, hands, side in (("touch(D,L)", "D and L", "left"),
                                  ("dir(W,L,E)", "W and L", "right"))
    ]


def test_lint_duplicate_is_error():
    lex, issues = lint_lexicon("sign X := true .\nsign X := true .")
    assert lex is None
    assert [(i.code, i.severity, str(i.span)) for i in issues] == [
        ("duplicate-sign", "error", "1:6"), ("duplicate-sign", "error", "2:6")]


def test_lint_parse_error_is_one_error_coded_by_its_class():
    lex, issues = lint_lexicon("sign X := at(Q,FACE) .")
    assert lex is None
    assert [(i.code, i.severity, i.message, str(i.span)) for i in issues] == [
        ("unknown-articulator", "error", "unknown articulator 'Q'", "1:14")]
