import json
import random

import pytest

from pdlsl import (
    AliasCollision,
    Articulator,
    At,
    AtomF,
    Config,
    Direction,
    Handedness,
    LexiconEntry,
    LexiconFile,
    Move,
    Orient,
    Override,
    ParseError,
    RelDir,
    SourceSpan,
    ThreeVal,
    Thrill,
    Touch,
    UnknownArticulator,
    UnknownState,
    anchor_atoms,
    apply_overrides,
    atom_value,
    extract_model,
    lexicon_hash,
    lint_lexicon,
    parse_atom,
    parse_formula,
    parse_lexicon,
    parse_overrides,
    print_formula,
    tracking_from_json,
    verify,
)

import _gen
from conftest import EXAMPLES

R, L = Articulator.RIGHT, Articulator.LEFT
RIGHT_DOM = Handedness.RIGHT_DOMINANT
T, F, U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNKNOWN


def lexicon_of(*named):
    return LexiconFile(
        tuple(LexiconEntry(name, formula, SourceSpan(1, 1)) for name, formula in named)
    )


@pytest.fixture(scope="module")
def route_setup(route_tracking_doc, route_lexicon_text):
    lexicon = parse_lexicon(route_lexicon_text)
    seq = tracking_from_json(route_tracking_doc)
    model, _ = extract_model(seq)
    return model, lexicon


def report_shape(report):
    return [[(p.sign, p.verdict) for p in state] for state in report.per_state]


# --- anchors -----------------------------------------------------------------------


def test_anchor_atoms_see_through_implication(route_lexicon_text):
    formula = parse_lexicon(route_lexicon_text).get("ROUTE")
    atoms = anchor_atoms(formula)
    assert AtomF(Touch(R, L)).atom in atoms
    assert At(R, "FACE") in atoms
    assert len(atoms) == 6


def test_anchor_atoms_trivial_cases():
    assert anchor_atoms(parse_formula("true")) == frozenset()
    assert anchor_atoms(parse_formula("[move(R,E)] touch(R,L)")) == frozenset()
    assert anchor_atoms(parse_formula("touch(R,L) /\\ at(R,FACE)")) == frozenset(
        {Touch(R, L), At(R, "FACE")}
    )


# --- verify -------------------------------------------------------------------------


def test_verify_route_match_only_at_first_state(route_setup):
    model, lexicon = route_setup
    report = verify(model, lexicon, RIGHT_DOM)
    assert report_shape(report) == [[("ROUTE", "match")], []]


def test_verify_empty_lexicon(route_setup):
    model, _ = route_setup
    report = verify(model, lexicon_of(), RIGHT_DOM)
    assert report_shape(report) == [[], []]


def test_verify_orders_matches_before_possibles(route_setup):
    model, _ = route_setup
    sure = parse_formula("touch(R,L)")
    # Orientation is unlabeled in the fixture, so this stays Unknown.
    unknown = parse_formula("orient(R,N) \\/ !orient(R,N)")
    report = verify(model, lexicon_of(("ZZZ", unknown), ("AAA", sure)), RIGHT_DOM)
    assert report_shape(report)[0] == [("AAA", "match"), ("ZZZ", "possible")]


def test_verify_config_void_degrades_to_possible(route_tracking_doc, route_lexicon_text):
    lexicon = parse_lexicon(route_lexicon_text)
    doc = json.loads(json.dumps(route_tracking_doc))
    for frame in doc["frames"]:
        frame["right"].pop("config", None)
        frame["left"].pop("config", None)
    model, _ = extract_model(tracking_from_json(doc))
    report = verify(model, lexicon, RIGHT_DOM)
    assert report_shape(report) == [[("ROUTE", "possible")], []]


def test_verify_position_void_degrades_to_possible(route_tracking_doc, route_lexicon_text):
    lexicon = parse_lexicon(route_lexicon_text)
    doc = json.loads(json.dumps(route_tracking_doc))
    for frame in doc["frames"][:10]:
        frame["right"].pop("pos", None)
    model, _ = extract_model(tracking_from_json(doc))
    report = verify(model, lexicon, RIGHT_DOM)
    assert report_shape(report) == [[("ROUTE", "possible")], []]


def test_verify_grounds_lexicon_with_handedness(route_setup):
    model, _ = route_setup
    # Written with aliases: for a right-dominant signer D is the right hand
    # moving W; matches the extracted edge after grounding.
    aliased = parse_formula("touch(D,W) -> [move(D,W) & move(W,E)] !touch(D,W)")
    report = verify(model, lexicon_of(("PULL_APART", aliased)), RIGHT_DOM)
    assert report_shape(report)[0] == [("PULL_APART", "match")]
    # For a left-dominant signer the same description mirrors; the extracted
    # movement no longer fits, so the modality is vacuous but the anchor fails
    # nowhere: the formula stays true.
    report_left = verify(model, lexicon_of(("PULL_APART", aliased)), Handedness.LEFT_DOMINANT)
    assert report_shape(report_left)[0] == [("PULL_APART", "match")]


def test_verify_deterministic(route_setup):
    model, lexicon = route_setup
    a = json.dumps(verify(model, lexicon, RIGHT_DOM).to_json())
    b = json.dumps(verify(model, lexicon, RIGHT_DOM).to_json())
    assert a == b


def test_lexicon_hash_ignores_layout():
    a = parse_lexicon("sign X := touch(R,L) /\\ at(R,FACE) .")
    b = parse_lexicon("# comment\nsign X :=\n  touch(R,L)\n  /\\ at(R,FACE) .\n")
    assert lexicon_hash(a) == lexicon_hash(b)


# --- overrides ------------------------------------------------------------------------


def test_parse_overrides():
    text = "# fix the touch\nstate 0: touch(R,L) = unknown\nstate 1: cfg(R,CLAMP) = false\n"
    got = parse_overrides(text)
    assert got == [
        Override(0, Touch(R, L), U),
        Override(1, Config(R, "CLAMP"), F),
    ]


def test_parse_overrides_bad_line():
    with pytest.raises(ParseError) as exc:
        parse_overrides("state zero: touch(R,L) = true")
    assert exc.value.span.line == 1


@pytest.mark.parametrize(
    ("atom", "error", "column", "message"),
    [
        ("dir(R,Q,E)", UnknownArticulator, 18, "unknown articulator 'Q'"),
        ("touch(R,R)", ParseError, 21, "touch needs two distinct articulators"),
    ],
)
def test_parse_overrides_bad_atom_points_into_file(atom, error, column, message):
    text = f"# corrections\nstate 0: touch(R,L) = true\n\nstate 1:   {atom} = true\n"
    with pytest.raises(ParseError) as exc:
        parse_overrides(text)
    assert type(exc.value) is error
    assert exc.value.args[0] == message
    assert exc.value.span == SourceSpan(4, column, 1)
    with pytest.raises(error) as inner:
        parse_atom(atom)
    assert exc.value.expected == inner.value.expected


@pytest.mark.parametrize("separator", ["\f", "\u2028", "\r"])
def test_parse_overrides_ends_lines_at_line_feed_only(separator):
    # str.splitlines() would also break at these, so what an editor that
    # breaks only at "\n" shows as line 1 used to be reported as line 2.
    with pytest.raises(ParseError) as exc:
        parse_overrides(f"state 0: touch(R,L) = true{separator}state 1: dir(R,Q,E) = true")
    assert exc.value.span.line == 1
    # A comment runs to the line feed, across the separator.
    text = f"# note{separator}state 0: no value\nstate 1: dir(R,Q,E) = true\n"
    with pytest.raises(UnknownArticulator) as exc:
        parse_overrides(text)
    assert exc.value.span == SourceSpan(2, 16, 1)


def test_parse_overrides_crlf_reads_like_lf():
    text = (EXAMPLES / "route.overrides").read_text() + "state 1:\tat(L,FACE) = unknown  # edited\n"
    crlf = text.replace("\n", "\r\n")
    assert "\r\n" in crlf
    assert parse_overrides(crlf) == parse_overrides(text)
    assert len(parse_overrides(text)) == 3
    with pytest.raises(UnknownArticulator) as exc:
        parse_overrides(crlf + "state 1: dir(R,Q,E) = true\r\n")
    assert exc.value.span == SourceSpan(5, 16, 1)


def test_verify_names_the_sign_of_an_alias_collision(route_setup):
    model, _ = route_setup
    lexicon = parse_lexicon("sign OK := true .\nsign X := at(D,FACE) /\\ touch(D,R) .")
    with pytest.raises(AliasCollision) as exc:
        verify(model, lexicon, RIGHT_DOM)
    assert str(exc.value) == (
        "sign 'X' uses touch(D,R): D and R are the same hand for a right-dominant signer"
    )
    assert exc.value.atom == Touch(Articulator.DOMINANT, R)
    # The same lexicon grounds without a collision for a left-dominant signer.
    verify(model, lexicon, Handedness.LEFT_DOMINANT)


D, W = Articulator.DOMINANT, Articulator.WEAK
#: Atoms of which a few name one hand twice for one signer or the other.
LINT_ATOMS = _gen.ATOM_POOL + _gen.ALIASED_ATOMS + (
    Touch(D, R), RelDir(W, Direction.NE, L), Touch(W, R), Orient(D, Direction.N),
)
LINT_ACTIONS = _gen.ACTION_POOL + (Move(D, Direction.E), Thrill(W))


def test_lint_warns_for_a_signer_exactly_where_check_refuses():
    """`lint` and `check` accept the same lexicons: for each signer, `verify`
    refuses a lexicon exactly when `lint_lexicon` warns that two hands of an
    atom are one hand for that signer, and its message is the first such
    warning's, up to the note that check refuses it."""
    model = _gen.gen_model(random.Random(5), max_states=4)
    rng = random.Random(1707)
    refusals = 0
    for _ in range(200):
        text = "".join(
            f"sign S{i} := {print_formula(_gen.gen_formula(rng, 2, LINT_ATOMS, LINT_ACTIONS))} .\n"
            for i in range(rng.randint(1, 4))
        )
        lexicon, issues = lint_lexicon(text)
        for handedness in Handedness:
            warnings = [issue.message for issue in issues if issue.severity == "warning"
                        and f"for a {handedness.value}-dominant signer;" in issue.message]
            try:
                verify(model, lexicon, handedness)
            except AliasCollision as exc:
                refusals += 1
                assert warnings, text
                assert str(exc) == warnings[0].split("; check refuses")[0], text
            else:
                assert not warnings, text
    assert 100 <= refusals <= 300  # both outcomes are exercised (182 of 400)


def test_override_alias_collision_names_the_state(route_setup):
    model, _ = route_setup
    with pytest.raises(AliasCollision) as exc:
        apply_overrides(model, parse_overrides("state 1: dir(W,L,E) = true"), RIGHT_DOM)
    assert str(exc.value) == (
        "override for state 1 uses dir(W,L,E): W and L are the same hand for a "
        "right-dominant signer"
    )


def test_overrides_change_verdict(route_setup):
    model, lexicon = route_setup
    overrides = [Override(0, Touch(R, L), U)]
    report = verify(model, lexicon, RIGHT_DOM, overrides=overrides)
    assert report_shape(report) == [[("ROUTE", "possible")], []]


def test_overrides_reject_unknown_state(route_setup):
    model, _ = route_setup
    with pytest.raises(UnknownState):
        apply_overrides(model, [Override(9, Touch(R, L), T)], RIGHT_DOM)


def test_override_atoms_may_use_aliases(route_setup):
    model, lexicon = route_setup
    overrides = parse_overrides("state 0: touch(D,W) = unknown")
    report = verify(model, lexicon, RIGHT_DOM, overrides=overrides)
    assert report_shape(report)[0] == [("ROUTE", "possible")]


@pytest.mark.parametrize("first, second", [(U, F), (F, U), (T, F)])
def test_a_later_override_of_a_cell_wins(route_setup, first, second):
    # touch(D,W) grounds to touch(R,L) for a right-dominant signer, so the
    # two lines set one cell; for a left-dominant one, touch(L,R) is another.
    model, _ = route_setup
    text = f"state 0: touch(D,W) = {first.value}\nstate 0: touch(R,L) = {second.value}\n"
    right = apply_overrides(model, parse_overrides(text), RIGHT_DOM)
    assert atom_value(right, 0, Touch(R, L)) is second
    assert atom_value(right, 0, Touch(L, R)) is atom_value(model, 0, Touch(L, R))
    left = apply_overrides(model, parse_overrides(text), Handedness.LEFT_DOMINANT)
    assert (atom_value(left, 0, Touch(R, L)), atom_value(left, 0, Touch(L, R))) == (second, first)
    again = f"state 0: touch(R,L) = {second.value}\nstate 0: touch(D,W) = {first.value}\n"
    assert atom_value(apply_overrides(model, parse_overrides(again), RIGHT_DOM), 0,
                      Touch(R, L)) is first


# --- verdict monotonicity ----------------------------------------------------------------


def test_refining_unknowns_never_breaks_matches():
    rng = random.Random(733)
    for _ in range(40):
        model = _gen.gen_model(rng, allow_unknown=True)
        lexicon = lexicon_of(*[(f"S{i}", _gen.gen_formula(rng, 2)) for i in range(3)])
        before = verify(model, lexicon, RIGHT_DOM)
        resolved = {
            key: (rng.choice((T, F)) if value is U and rng.random() < 0.5 else value)
            for key, value in model.valuation.items()
        }
        refined = type(model)(
            state_count=model.state_count,
            relation=model.relation,
            action_interp=model.action_interp,
            valuation=resolved,
            observed=model.observed,
        )
        after = verify(refined, lexicon, RIGHT_DOM)
        for s in range(model.state_count):
            before_matches = {p.sign for p in before.per_state[s] if p.verdict == "match"}
            after_signs = {p.sign: p.verdict for p in after.per_state[s]}
            for sign in before_matches:
                assert after_signs.get(sign) == "match"
