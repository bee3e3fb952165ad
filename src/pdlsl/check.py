"""The verification loop: label every sign as parsed over all states at
once, grounding only its atoms and atomic actions under the signer's
handedness, and emit per-state proposals.

A sign is proposed at a state only when the state can anchor it. Its
anchor atoms are the positive atoms of its top-level conjunction, outside
any modality; for the implication encoding `!(a /\\ !b)` they are those of
the antecedent `a`. `_anchors` is the one walk of this rule. A sign
matches where it and all its anchor atoms are True, and is possible where
none of them is False but it does not match; both read the True and
True-or-Unknown state sets of the model's labeler.
"""

from __future__ import annotations

import hashlib
import re
from itertools import compress
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from .core import (
    And,
    Atom,
    AtomF,
    Formula,
    Handedness,
    Not,
    ground_atom,
)
from .errors import AliasCollision, ParseError, Record, SourceSpan, UnknownState
from .model import ThreeVal, UtteranceModel, _Labeler
from .parsing import LexiconFile, parse_atom, print_atom


class Proposal(Record):
    __slots__ = ("sign", "verdict")  # verdict: "match" | "possible"


MATCH = "match"
POSSIBLE = "possible"
_BYTES = bytes.maketrans(b"01", b"\0\1")  # a bitset's digits as the bytes `compress` reads


class ProposalReport(Record):
    """Per-state sign proposals plus enough metadata to reproduce the run.
    Within a state, matches precede possibles; lexicon order breaks ties."""

    __slots__ = ("per_state", "handedness", "lexicon_hash", "thresholds")
    _defaults = {"thresholds": MappingProxyType({})}

    def to_json(self) -> dict[str, Any]:
        return {
            "format": 1,
            "handedness": self.handedness.value,
            "lexicon_sha256": self.lexicon_hash,
            "thresholds": dict(self.thresholds),
            "proposals": [
                {
                    "state": s,
                    "signs": [{"sign": p.sign, "verdict": p.verdict} for p in proposals],
                }
                for s, proposals in enumerate(self.per_state)
            ],
        }


def _anchors(formula: Formula, found: list[AtomF]) -> list[AtomF]:
    """`found`, with the formula's anchor atom nodes appended in order."""
    kind = type(formula)  # `match` class patterns here took about a tenth of `verify`
    if kind is AtomF:
        found.append(formula)
    elif kind is And:
        _anchors(formula.right, _anchors(formula.left, found))
    elif kind is Not and type(body := formula.body) is And and type(body.right) is Not:
        _anchors(body.left, found)  # the antecedent of an implication
    return found


def anchor_atoms(formula: Formula) -> frozenset[Atom]:
    """The formula's anchor atoms (see the module docstring), as a set."""
    return frozenset(node.atom for node in _anchors(formula, []))


def lexicon_hash(lexicon: LexiconFile) -> str:
    return hashlib.sha256(lexicon.canonical_text().encode("utf-8")).hexdigest()


class Override(Record):
    """One valuation override: `state <id>: <atom> = true|false|unknown`."""

    __slots__ = ("state", "atom", "value")


_OVERRIDE_RE = re.compile(
    r"^\s*state\s+(\d+)\s*:\s*(.+?)\s*=\s*(true|false|unknown)\s*$"
)


def parse_overrides(text: str) -> list[Override]:
    """Override lines, numbered as in lexicon files: only a line feed ends
    a line, and a carriage return before it is whitespace."""
    overrides = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _OVERRIDE_RE.match(line)
        if m is None:
            raise ParseError(
                "expected 'state <id>: <atom> = true|false|unknown'",
                SourceSpan(lineno, 1, max(len(line.rstrip()), 1)),
            )
        try:
            atom = parse_atom(m.group(2))
        except ParseError as exc:  # point into the file, not into the atom text
            span = SourceSpan(lineno, m.start(2) + exc.span.column, exc.span.length)
            raise type(exc)(exc.args[0], span, exc.expected) from None
        overrides.append(Override(int(m.group(1)), atom, ThreeVal(m.group(3))))
    return overrides


def apply_overrides(
    model: UtteranceModel, overrides: Iterable[Override], handedness: Handedness
) -> UtteranceModel:
    """A copy of the model with override values in place of the extracted
    (or defaulted) ones; of two overrides of one cell, the later wins, also
    when the aliases ground them to the same atom. Override atoms may use
    the D/W aliases. Only the bitsets of the overridden atoms are rebuilt,
    and the copy shares the rest of the model, checked when it was made."""
    cells = []
    for ov in overrides:
        if not (0 <= ov.state < model.state_count):
            raise UnknownState(f"override targets state {ov.state}")
        try:
            cells.append((ov.state, ground_atom(ov.atom, handedness), ov.value))
        except AliasCollision as exc:
            message = f"override for state {ov.state} uses {print_atom(ov.atom)}: {exc}"
            raise AliasCollision(message, ov.atom) from None
    return model._with_valuation(model.valuation.patched(cells))


def verify(
    model: UtteranceModel,
    lexicon: LexiconFile,
    handedness: Handedness,
    overrides: Iterable[Override] = (),
) -> ProposalReport:
    """Label every sign over all states at once and collect the proposals;
    a sign's anchor is read off the labels of the nodes `_anchors` returns."""
    overrides = list(overrides)
    if overrides:
        model = apply_overrides(model, overrides, handedness)
    labels = _Labeler(model, None, handedness)
    labeled = []
    for entry in lexicon.entries:
        try:
            lo, hi = labels.formula(entry.formula)
        except AliasCollision as exc:
            message = f"sign {entry.name!r} uses {print_atom(exc.atom)}: {exc}"
            raise AliasCollision(message, exc.atom) from None
        for node in _anchors(entry.formula, []):  # subformulas, so labeled already
            node_lo, node_hi = labels.formula(node)
            lo, hi = lo & node_lo, hi & node_hi
        labeled.append((entry.name, lo, hi & ~lo))
    # A proposal only for a (sign, verdict) that some state holds: each sign's match, then each
    # sign's possible. Each held bitset becomes one 0/1 byte per state, proposal after proposal,
    # so a state's row is every n-th byte; states with equal rows share one tuple of proposals,
    # built once, which keeps reports small.
    held = [(Proposal(sign[0], verdict), sign[at]) for verdict, at in ((MATCH, 1), (POSSIBLE, 2))
            for sign in labeled if sign[at]]
    n = model.state_count
    digits = "".join(format(states, "b").zfill(n)[::-1] for _, states in held)  # state 0 first
    data = digits.encode().translate(_BYTES)
    keys = [data[s::n] for s in range(n)]
    proposals = [proposal for proposal, _ in held]
    rows = {key: tuple(compress(proposals, key)) for key in dict.fromkeys(keys)}
    per_state = tuple(map(rows.__getitem__, keys))

    thresholds = model.meta.get("segmentation", {}) if isinstance(model.meta, Mapping) else {}
    return ProposalReport(
        per_state=per_state,
        handedness=handedness,
        lexicon_hash=lexicon_hash(lexicon),
        thresholds=thresholds,
    )
