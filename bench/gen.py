"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` built from the run's seed and
returns plain data: tracking documents, lexicon text, override text and
model documents. The program under test only ever sees those files or the
objects built from them. Formulas are kept here as tuples so that the
reference checker in `reference.py` can evaluate them without going
through the program's parser or evaluator.

Formula tuples:  ("top",) ("atom", atom) ("not", f) ("and", f, ...)
                 ("or", f, g) ("imp", f, g) ("box", act, f) ("dia", act, f)
Atom tuples:     ("dir", b1, b2, d) ("at", b, PLACE) ("touch", b1, b2)
                 ("cfg", b, LABEL) ("orient", b, d)
Action tuples:   ("move", b, d) ("thrill", b) ("seq", a, b) ("conc", a, b)
                 ("choice", a, b) ("star", a)
"""

from __future__ import annotations

import math
import random

DIRECTIONS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
ANGLE = {d: math.radians(90 - 45 * i) for i, d in enumerate(DIRECTIONS)}
PLACES = ("HEAD", "FACE", "R_SIDEOFHEAD", "L_SIDEOFHEAD", "NECK", "CHEST",
          "TORSE", "CENTEROFBODY", "R_SIDEOFBODY", "L_SIDEOFBODY", "NEUTRAL")
CONFIGS = ("CLAMP", "FLAT", "FIST", "INDEX", "V")
HANDS = ("R", "L")
# Binary atoms only pair distinct hands; (D, R) would collide for a
# right-dominant signer.
HAND_PAIRS = (("R", "L"), ("L", "R"), ("D", "W"), ("W", "D"))

# Tracking layout: every posture is held HOLD frames and postures are
# joined by MOVE frames of constant velocity, so frames = 14 N - 6.
HOLD, MOVE = 8, 6
# Planted moves stay this far from the 22.5 degree sector borders, and
# their per-frame speed (>= 0.18 / 6) stays above tau_still (0.02) while
# the net displacement stays above thrill_net_disp (0.03).
ANGLE_JITTER = math.radians(10)
MOVE_MIN, MOVE_MAX = 0.18, 0.4
TELEPORT = 0.8  # one-frame jump, above max_jump (0.5)
X_RANGE, Y_RANGE = (-0.9, 0.9), (-0.4, 1.6)
FAULTS = ("dropout", "teleport", "repeat")

ROUTE = ("imp",
         ("and", ("atom", ("at", "R", "FACE")), ("atom", ("at", "L", "FACE")),
          ("atom", ("dir", "L", "R", "E")), ("atom", ("cfg", "R", "CLAMP")),
          ("atom", ("cfg", "L", "CLAMP")), ("atom", ("touch", "R", "L"))),
         ("box", ("conc", ("move", "R", "W"), ("move", "L", "E")),
          ("and", ("atom", ("dir", "L", "R", "E")), ("atom", ("cfg", "R", "CLAMP")),
           ("atom", ("cfg", "L", "CLAMP")), ("not", ("atom", ("touch", "R", "L"))))))

STAR_SIGNS = (
    ("STAY_APART", ("box", ("star", ("move", "R", "E")),
                    ("not", ("atom", ("touch", "R", "L"))))),
    ("MEET_LATER", ("dia", ("star", ("move", "R", "E")),
                    ("atom", ("touch", "R", "L")))),
    ("FACE_EVERY_OTHER", ("box", ("star", ("seq", ("move", "R", "E"), ("move", "R", "E"))),
                          ("atom", ("at", "R", "FACE")))),
)


# --- Printing ----------------------------------------------------------------


def atom_text(atom: tuple) -> str:
    kind, *args = atom
    return f"{kind}({','.join(args)})"


def action_text(action: tuple) -> str:
    kind = action[0]
    if kind in ("move", "thrill"):
        return atom_text(action)
    if kind == "star":
        return action_text(action[1]) + "*"
    op = {"seq": " ; ", "conc": " & ", "choice": " | "}[kind]
    return f"({action_text(action[1])}{op}{action_text(action[2])})"


def formula_text(f: tuple) -> str:
    kind = f[0]
    if kind == "top":
        return "true"
    if kind == "atom":
        return atom_text(f[1])
    if kind == "not":
        return "!" + formula_text(f[1])
    if kind == "and":
        return "(" + " /\\ ".join(formula_text(g) for g in f[1:]) + ")"
    if kind == "or":
        return f"({formula_text(f[1])} \\/ {formula_text(f[2])})"
    if kind == "imp":
        return f"({formula_text(f[1])} -> {formula_text(f[2])})"
    if kind == "box":
        return f"[{action_text(f[1])}] {formula_text(f[2])}"
    if kind == "dia":
        return f"<{action_text(f[1])}> {formula_text(f[2])}"
    raise ValueError(f"not a formula: {f!r}")


def lexicon_text(signs: list[tuple[str, tuple]]) -> str:
    lines = ["format: 1", ""]
    lines += [f"sign {name} := {formula_text(f)} ." for name, f in signs]
    return "\n".join(lines) + "\n"


# --- Lexicons ----------------------------------------------------------------


def _hand(rng: random.Random) -> str:
    return rng.choice(("R", "L", "D", "W"))


def _anchor_atom(rng: random.Random) -> tuple:
    """An atom that most states refute, so the prefilter prunes."""
    kind = rng.random()
    if kind < 0.35:
        return ("at", _hand(rng), rng.choice(PLACES))
    if kind < 0.65:
        b1, b2 = rng.choice(HAND_PAIRS)
        return ("dir", b1, b2, rng.choice(DIRECTIONS))
    if kind < 0.9:
        return ("cfg", _hand(rng), rng.choice(CONFIGS))
    b1, b2 = rng.choice(HAND_PAIRS)
    return ("touch", b1, b2)


def _literal(rng: random.Random) -> tuple:
    atom = ("atom", _anchor_atom(rng))
    return ("not", atom) if rng.random() < 0.3 else atom


def _atomic_action(rng: random.Random) -> tuple:
    if rng.random() < 0.1:
        return ("thrill", _hand(rng))
    return ("move", _hand(rng), rng.choice(DIRECTIONS))


def _action(rng: random.Random) -> tuple:
    kind = rng.random()
    a, b = _atomic_action(rng), _atomic_action(rng)
    if kind < 0.4:
        return a
    if kind < 0.6:
        return ("conc", a, b)
    if kind < 0.8:
        return ("choice", a, b)
    return ("seq", a, b)


def _star_action(rng: random.Random) -> tuple:
    body = _atomic_action(rng) if rng.random() < 0.6 else ("choice", _atomic_action(rng),
                                                           _atomic_action(rng))
    return ("star", body)


def _consequent(rng: random.Random) -> tuple:
    parts = [_literal(rng) for _ in range(rng.randint(1, 2))]
    return parts[0] if len(parts) == 1 else ("and", *parts)


def gen_sign(rng: random.Random) -> tuple:
    """One sign description. Most are implications whose antecedent is a
    conjunction of atoms (the anchor); a few are bare conjunctions,
    orientation-anchored (always Unknown, so `possible`) or unanchored."""
    kind = rng.random()
    antecedent = ("and", *[("atom", _anchor_atom(rng)) for _ in range(rng.randint(2, 3))])
    if kind < 0.55:
        return ("imp", antecedent, ("box", _action(rng), _consequent(rng)))
    if kind < 0.7:
        return ("imp", antecedent, ("box", _star_action(rng), _consequent(rng)))
    if kind < 0.8:
        return ("imp", antecedent, ("dia", _action(rng), _consequent(rng)))
    if kind < 0.9:
        return ("and", ("atom", _anchor_atom(rng)), ("atom", _anchor_atom(rng)),
                ("box", _action(rng), _consequent(rng)))
    if kind < 0.97:
        orient = ("atom", ("orient", _hand(rng), rng.choice(DIRECTIONS)))
        return ("imp", ("and", orient, ("atom", _anchor_atom(rng))),
                ("box", _action(rng), _consequent(rng)))
    return ("or", ("atom", _anchor_atom(rng)), ("atom", _anchor_atom(rng)))


def gen_signs(rng: random.Random, count: int) -> list[tuple[str, tuple]]:
    return [(f"SIGN{i:04d}", gen_sign(rng)) for i in range(count)]


def gen_overrides(rng: random.Random, states: int, count: int) -> list[tuple[int, tuple, str]]:
    """Expert corrections: `count` cells over anchor-style atoms, some
    written with the D/W aliases."""
    values = ("true", "false", "unknown")
    return [(rng.randrange(states), _anchor_atom(rng), rng.choice(values)) for _ in range(count)]


def overrides_text(overrides: list[tuple[int, tuple, str]]) -> str:
    return "".join(f"state {s}: {atom_text(a)} = {v}\n" for s, a, v in overrides)


# --- Tracking ----------------------------------------------------------------


def frames_for(postures: int) -> int:
    return HOLD * postures + MOVE * (postures - 1)


def _planted_move(rng: random.Random, pos: tuple[float, float]) -> tuple[str, tuple[float, float]]:
    """A compass direction that keeps the hand inside the signing box, and
    a displacement at most ANGLE_JITTER off it, so 12.5 degrees clear of
    the sector borders."""
    size = rng.uniform(MOVE_MIN, MOVE_MAX)
    allowed = []
    for d in DIRECTIONS:
        x = pos[0] + MOVE_MAX * math.cos(ANGLE[d])
        y = pos[1] + MOVE_MAX * math.sin(ANGLE[d])
        if X_RANGE[0] <= x <= X_RANGE[1] and Y_RANGE[0] <= y <= Y_RANGE[1]:
            allowed.append(d)
    d = rng.choice(allowed)
    angle = ANGLE[d] + rng.uniform(-ANGLE_JITTER, ANGLE_JITTER)
    return d, (size * math.cos(angle), size * math.sin(angle))


def _round(p: tuple[float, float]) -> list[float]:
    return [round(p[0], 5), round(p[1], 5)]


def gen_utterance(rng: random.Random, postures: int, fault: str | None = None):
    """A tracking document with `postures` planted key postures, and the
    plan the extracted model must reproduce.

    Faults touch one posture hold: `dropout` removes one hand for the
    three frames around the posture's median frame (its state then lacks
    that hand), `teleport` throws one hand TELEPORT units away for one
    frame off the median (one `teleport` diagnostic, model unchanged) and
    `repeat` repeats one frame index (one `duplicate-frame` diagnostic,
    model unchanged).
    """
    pos = {"R": (rng.uniform(-0.5, 0.0), rng.uniform(0.2, 1.2)),
           "L": (rng.uniform(0.0, 0.5), rng.uniform(0.2, 1.2))}
    configs, moves, holds = [], [], []
    frames: list[dict] = []

    def frame(positions: dict, cfg: dict) -> dict:
        out = {"t": len(frames), "head": [0.0, 1.2]}
        for h in HANDS:
            out["right" if h == "R" else "left"] = {"pos": _round(positions[h]), "config": cfg[h]}
        return out

    for k in range(postures):
        cfg = {h: rng.choice(CONFIGS) for h in HANDS}
        configs.append(cfg)
        holds.append(len(frames))
        frames.extend(frame(pos, cfg) for _ in range(HOLD))
        if k == postures - 1:
            break
        planted = {h: _planted_move(rng, pos[h]) for h in HANDS}
        moves.append({h: planted[h][0] for h in HANDS})
        start = dict(pos)
        for j in range(1, MOVE + 1):
            step = {h: (start[h][0] + planted[h][1][0] * j / MOVE,
                        start[h][1] + planted[h][1][1] * j / MOVE) for h in HANDS}
            frames.append(frame(step, cfg))
        pos = step

    plan = {"postures": postures, "moves": moves, "configs": configs, "fault": None}
    if fault is not None:
        k = rng.randrange(postures)
        hand = rng.choice(HANDS)
        key = "right" if hand == "R" else "left"
        first = holds[k]
        if fault == "dropout":
            for t in (first + 2, first + 3, first + 4):
                del frames[t][key]
            plan["fault"] = {"kind": fault, "state": k, "hand": hand}
        elif fault == "teleport":
            t = first + 5
            x, y = frames[t][key]["pos"]
            dx = -TELEPORT if x > 0 else TELEPORT
            frames[t][key]["pos"] = [round(x + dx, 5), y]
            plan["fault"] = {"kind": fault, "frame": t, "hand": hand}
        elif fault == "repeat":
            t = first + 2
            frames.insert(t + 1, dict(frames[t]))
            plan["fault"] = {"kind": fault, "frame": t}
        else:
            raise ValueError(f"unknown fault {fault!r}")
    doc = {"format": 1, "fps": 25.0, "mirrored": False, "frames": frames}
    return doc, plan


# --- Dense chains ------------------------------------------------------------

_CELL = (("true", 0.08), ("unknown", 0.17), ("false", 0.75))


def _cell(rng: random.Random) -> str:
    r = rng.random()
    for value, p in _CELL:
        if r < p:
            return value
        r -= p
    return "false"


def gen_chain(rng: random.Random, n: int):
    """A model document with n states in a chain whose every edge is
    move(R,E) (the final state keeps the unlabeled self-loop that makes the
    relation serial), seeded touch and place cells, and the analytic
    verdicts of STAR_SIGNS at every state."""
    touch = [_cell(rng) for _ in range(n)]
    face = [_cell(rng) for _ in range(n)]
    valuation = []
    for s in range(n):
        valuation.append({"state": s, "atom": "at(R,FACE)", "value": face[s]})
        valuation.append({"state": s, "atom": "touch(R,L)", "value": touch[s]})
    edges = [[s, s + 1] for s in range(n - 1)]
    doc = {
        "format": 1,
        "states": n,
        "relation": edges + [[n - 1, n - 1]],
        "actions": [{"action": "move(R,E)", "edges": edges}],
        "valuation": valuation,
        "observed": [["L", "R"]] * n,
        "configs": [{"R": None, "L": None}] * n,
        "meta": {},
    }
    return doc, chain_verdicts(touch, face)


def chain_verdicts(touch: list[str], face: list[str]) -> list[list[tuple[str, str]]]:
    """STAR_SIGNS on the chain, from suffix folds: [move*] !touch is the
    conjunction of !touch over every later state, <move*> touch the
    disjunction of touch, and [(move;move)*] at(R,FACE) the conjunction of
    at(R,FACE) over the later states an even number of steps away. No sign
    has an anchor, so True is a match, Unknown a possible and False none."""
    n = len(touch)
    rank = {"false": 0, "unknown": 1, "true": 2}
    t = [rank[v] for v in touch]
    f = [rank[v] for v in face]
    never, ever, every_other = [0] * n, [0] * n, [0] * n
    for s in range(n - 1, -1, -1):
        never[s] = min(2 - t[s], never[s + 1] if s + 1 < n else 2)
        ever[s] = max(t[s], ever[s + 1] if s + 1 < n else 0)
        every_other[s] = min(f[s], every_other[s + 2] if s + 2 < n else 2)
    out = []
    for s in range(n):
        values = list(zip((name for name, _ in STAR_SIGNS), (never[s], ever[s], every_other[s])))
        out.append([(name, "match") for name, v in values if v == 2]
                   + [(name, "possible") for name, v in values if v == 1])
    return out
