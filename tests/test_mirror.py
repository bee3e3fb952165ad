"""Mirror symmetry of the whole pipeline, as a metamorphic test.

The signer's mirror image, a tracking document with the `right` and `left`
tracks swapped and every x negated (`_gen.mirror_tracking`), extracts to the
model of the original renamed R <-> L, with `R_` and `L_` places swapped and
each direction mirrored (`_gen.mirror_model`). Its diagnostics are the
original's with the hands swapped, and a document that extraction refuses
is refused in its mirror image too. This is checked on the shipped fixtures,
the `gen_tracking` seeds behind `extract.tsv` (with the shipped place map,
which pairs the `R_` and `L_` places) and `gen_utterance` documents of up to
400 postures with each fault.

`classify_direction` sends a vector within its tie band of a sector border
to the earlier canonical direction, which is not mirror symmetric, so the
invariant holds only off that band: `gen_utterance` plants each move 12.5
degrees clear of the borders, and the band (about 1e-9 degrees wide) is
missed by the random doubles of the other vectors.

A lexicon and overrides written with D and W give the same report when the
original is checked for a right-dominant signer and its mirror image for a
left-dominant one. Last, `mirrored: true` in a tracking file, and the
`--mirrored` flag, extract what negating every x does.
"""

import json
import random
import re

import pytest

from pdlsl import PdlslError, extract_model, model_to_json, tracking_from_json

import _gen
from conftest import EXAMPLES, bench_gen, main

FIXTURES = ("route_clean", "route_dropout", "route_teleport")
FAULTS = (None, "dropout", "teleport", "repeat")
_HAND_NAMES = {"R": "L", "L": "R"}


def fixture(name: str) -> dict:
    return json.loads((EXAMPLES / f"{name}.tracking.json").read_text())


def utterances():
    """40 `gen_utterance` documents, ten with each fault (and none), of 4 to
    400 postures: most short, every tenth long."""
    gen = bench_gen()
    for i in range(40):
        rng = random.Random(f"mirror:{i}")
        postures = 400 if i % 10 == 9 else rng.randint(4, 40)
        yield gen.gen_utterance(rng, postures, FAULTS[i % 4])[0]


def extracted(doc: dict, **options):
    """`extract_model` of a document: the model's JSON and its diagnostics,
    or the class of the error that refused it."""
    try:
        model, diagnostics = extract_model(tracking_from_json(doc), **options)
    except PdlslError as exc:
        return type(exc).__name__
    return model, [d.to_json() for d in diagnostics]


def renamed(outcome):
    """What the mirror image of a document extracts to, by `mirror_model`
    and swapping the hand of each diagnostic; diagnostics compare as sets,
    since records of one frame and kind are ordered by hand."""
    if isinstance(outcome, str):
        return outcome
    model, diagnostics = outcome
    mirrored = []
    for record in diagnostics:
        if "hand" in record:
            hand = _HAND_NAMES[record["hand"]]
            record = dict(record, hand=hand, message=hand + record["message"][1:])
        mirrored.append(record)
    return as_json((_gen.mirror_model(model), mirrored))


def as_json(outcome):
    if isinstance(outcome, str):
        return outcome
    model, diagnostics = outcome
    return model_to_json(model), sorted(map(json.dumps, diagnostics))


def assert_mirror_symmetric(doc: dict, **options):
    mirrored_options = dict(options)
    if "body_origin" in options:
        origin = options["body_origin"]
        mirrored_options["body_origin"] = origin._replace(x=-origin.x)
    expected = renamed(extracted(doc, **options))
    assert as_json(extracted(_gen.mirror_tracking(doc), **mirrored_options)) == expected


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_extract_mirror_symmetrically(name):
    assert_mirror_symmetric(fixture(name))


def test_generated_tracking_extracts_mirror_symmetrically():
    refused = 0
    for seed in range(200):
        doc, options = _gen.gen_tracking(random.Random(f"extract:{seed}"))
        # A random place map is not its own mirror image; the shipped map, whose
        # R_ and L_ places are mirror twins, is used instead.
        options.pop("place_map", None)
        assert_mirror_symmetric(doc, **options)
        refused += isinstance(extracted(doc, **options), str)
    assert 0 < refused < 100  # both outcomes are covered


def test_utterances_extract_mirror_symmetrically():
    for doc in utterances():
        assert_mirror_symmetric(doc)


def dw_text(text: str) -> str:
    """A lexicon or overrides text of `bench/gen.py` written with D and W
    only: R and L become D and W, and a place with an `R_` or `L_` name,
    which a dominance swap does not mirror, becomes NEUTRAL."""
    text = re.sub(r"\b[RL]_\w+", "NEUTRAL", text)
    return re.sub(r"\b[RL]\b", lambda m: {"R": "D", "L": "W"}[m.group()], text)


def test_mirror_image_checked_for_the_other_hand_gives_the_same_report(tmp_path, capsys):
    gen = bench_gen()
    rng = random.Random("mirror:report")
    lexicon = tmp_path / "signs.pdlsl"
    lexicon.write_text(dw_text(gen.lexicon_text(gen.gen_signs(rng, 120)))
                       + "sign ROUTE := " + dw_text(gen.formula_text(gen.ROUTE)) + " .\n")
    assert not re.search(r"\b[RL]\b", lexicon.read_text())
    docs = [fixture(name) for name in FIXTURES]
    docs += [gen.gen_utterance(rng, 30, fault)[0] for fault in FAULTS]
    for i, doc in enumerate(docs):
        reports = []
        for side, tracking, dominant in (("original", doc, "right"),
                                         ("mirror", _gen.mirror_tracking(doc), "left")):
            path, model = tmp_path / f"{side}.tracking.json", tmp_path / f"{side}.model.json"
            path.write_text(json.dumps(tracking))
            assert main(["extract", str(path), "-o", str(model)]) == 0
            overrides = tmp_path / "signs.overrides"
            states = json.loads(model.read_text())["states"]
            overrides.write_text(dw_text(gen.overrides_text(gen.gen_overrides(
                random.Random(f"mirror:overrides:{i}"), states, 10))))
            for extra in ([], ["--overrides", str(overrides)]):
                capsys.readouterr()
                assert main(["check", str(model), str(lexicon), "--dominant", dominant,
                             *extra]) == 0
                reports.append(json.loads(capsys.readouterr().out))
        for original, mirror in zip(reports[:2], reports[2:]):
            assert original["handedness"] == "right" and mirror["handedness"] == "left"
            assert original == dict(mirror, handedness="right")
        assert any(p["signs"] for p in reports[0]["proposals"])  # the reports say something


def without_mirrored_flag(model_doc: dict) -> dict:
    return dict(model_doc, meta=dict(model_doc["meta"], mirrored=None))


def test_mirrored_flag_equals_negating_x(tmp_path):
    gen = bench_gen()
    rng = random.Random("mirror:flag")
    docs = [fixture(name) for name in FIXTURES]
    docs += [gen.gen_utterance(rng, 30, fault)[0] for fault in FAULTS]
    for doc in docs:
        negated = extracted(_gen.negate_x(dict(doc, mirrored=False)))
        flagged = extracted(dict(doc, mirrored=True))
        assert flagged[1] == negated[1]
        assert without_mirrored_flag(model_to_json(flagged[0])) == without_mirrored_flag(
            model_to_json(negated[0]))
    # The `--mirrored` flag sets the file's flag.
    original, negated = tmp_path / "original.json", tmp_path / "negated.json"
    original.write_text(json.dumps(docs[0]))
    negated.write_text(json.dumps(_gen.negate_x(docs[0])))
    outputs = []
    for path, flag in ((original, ["--mirrored"]), (negated, [])):
        assert main(["extract", str(path), *flag, "-o", str(tmp_path / "model.json")]) == 0
        outputs.append(without_mirrored_flag(json.loads((tmp_path / "model.json").read_text())))
    assert outputs[0] == outputs[1]
    # The fixture is not symmetric itself, so the flag changes its model.
    assert outputs[0] != without_mirrored_flag(model_to_json(extracted(docs[0])[0]))
