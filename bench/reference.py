"""Independent answers for the benchmark's correctness checks.

`reference_verdicts` evaluates the generator's formula tuples on a model
document (the JSON the program writes or reads) with its own code: strong
Kleene truth tables over the ordering False < Unknown < True, action
relations built with explicit loops, the atom defaults documented in
docs/formats.md and on `UtteranceModel`, and the anchor rule of the
README's "Verdicts" section. It labels every state at once, bottom up, so
it shares no evaluation code with `pdlsl.model` or `pdlsl.check`.

`planted_problems` compares an extracted model document with the plan the
tracking generator planted.
"""

from __future__ import annotations

from gen import atom_text

F, U, T = 0, 1, 2  # strong Kleene: not = 2 - v, and = min, or = max
VALUE = {"false": F, "unknown": U, "true": T}

_ALIAS = {"right": {"D": "R", "W": "L"}, "left": {"D": "L", "W": "R"}}
_MIRROR = {"N": "N", "NE": "NW", "E": "W", "SE": "SW", "S": "S", "SW": "SE", "W": "E", "NW": "NE"}


def ground_atom(atom: tuple, handedness: str) -> tuple:
    """Resolve D/W for the signer's handedness. A direction written next to
    an alias is mirrored for a left-dominant signer."""
    alias = _ALIAS[handedness]
    kind, *args = atom

    def hand(b: str) -> str:
        return alias.get(b, b)

    def direction(d: str, tied: bool) -> str:
        return _MIRROR[d] if tied and handedness == "left" else d

    if kind == "dir":
        b1, b2, d = args
        return (kind, hand(b1), hand(b2), direction(d, b1 in alias or b2 in alias))
    if kind in ("orient", "move"):
        b, d = args
        return (kind, hand(b), direction(d, b in alias))
    if kind == "touch":
        return (kind, hand(args[0]), hand(args[1]))
    if kind in ("at", "cfg"):
        return (kind, hand(args[0]), args[1])
    if kind == "thrill":
        return (kind, hand(args[0]))
    raise ValueError(f"not an atom: {atom!r}")


def anchors(f: tuple) -> list[tuple]:
    """Positive atoms of the opening conjunction, outside modalities; for
    an implication, those of its antecedent."""
    kind = f[0]
    if kind == "atom":
        return [f[1]]
    if kind == "and":
        return [a for g in f[1:] for a in anchors(g)]
    if kind == "imp":
        return anchors(f[1])
    return []


class _Model:
    def __init__(self, doc: dict, handedness: str, overrides):
        self.n = doc["states"]
        self.cells = {(v["state"], v["atom"]): VALUE[v["value"]] for v in doc["valuation"]}
        for state, atom, value in overrides:
            self.cells[(state, atom_text(ground_atom(atom, handedness)))] = VALUE[value]
        self.observed = [set(hands) for hands in doc["observed"]]
        self.configs = doc["configs"]
        self.edges = {a["action"]: [tuple(e) for e in a["edges"]] for a in doc["actions"]}
        self._atoms: dict[tuple, list[int]] = {}
        self._actions: dict[tuple, list[set[int]]] = {}
        self._formulas: dict[tuple, list[int]] = {}

    def default(self, state: int, atom: tuple) -> int:
        kind, *args = atom
        seen = self.observed[state]
        if kind in ("dir", "touch"):
            return F if args[0] in seen and args[1] in seen else U
        if kind == "at":
            return F if args[0] in seen else U
        if kind == "cfg":
            label = self.configs[state].get(args[0])
            return F if label is not None and label != args[1] else U
        return U  # orient

    def atom(self, atom: tuple) -> list[int]:
        if atom not in self._atoms:
            text = atom_text(atom)
            self._atoms[atom] = [
                self.cells.get((s, text), self.default(s, atom)) for s in range(self.n)
            ]
        return self._atoms[atom]

    def action(self, a: tuple) -> list[set[int]]:
        """Successor sets per state."""
        if a in self._actions:
            return self._actions[a]
        kind = a[0]
        n = self.n
        if kind in ("move", "thrill"):
            succ = [set() for _ in range(n)]
            for s, t in self.edges.get(atom_text(a), ()):
                succ[s].add(t)
        elif kind == "conc":
            left, right = self.action(a[1]), self.action(a[2])
            succ = [left[s] & right[s] for s in range(n)]
        elif kind == "choice":
            left, right = self.action(a[1]), self.action(a[2])
            succ = [left[s] | right[s] for s in range(n)]
        elif kind == "seq":
            left, right = self.action(a[1]), self.action(a[2])
            succ = []
            for s in range(n):
                out: set[int] = set()
                for mid in left[s]:
                    out |= right[mid]
                succ.append(out)
        elif kind == "star":
            body = self.action(a[1])
            succ = []
            for s in range(n):
                reached, frontier = {s}, [s]
                while frontier:
                    x = frontier.pop()
                    for y in body[x]:
                        if y not in reached:
                            reached.add(y)
                            frontier.append(y)
                succ.append(reached)
        else:
            raise ValueError(f"not an action: {a!r}")
        self._actions[a] = succ
        return succ

    def label(self, f: tuple) -> list[int]:
        """Truth value of the (grounded) formula at every state."""
        if f in self._formulas:
            return self._formulas[f]
        kind = f[0]
        if kind == "top":
            out = [T] * self.n
        elif kind == "atom":
            out = self.atom(f[1])
        elif kind == "not":
            out = [2 - v for v in self.label(f[1])]
        elif kind == "and":
            parts = [self.label(g) for g in f[1:]]
            out = [min(vs) for vs in zip(*parts)]
        elif kind == "or":
            out = [max(a, b) for a, b in zip(self.label(f[1]), self.label(f[2]))]
        elif kind == "imp":
            out = [max(2 - a, b) for a, b in zip(self.label(f[1]), self.label(f[2]))]
        elif kind in ("box", "dia"):
            succ = self.action(f[1])
            body = self.label(f[2])
            if kind == "box":
                out = [min((body[t] for t in succ[s]), default=T) for s in range(self.n)]
            else:
                out = [max((body[t] for t in succ[s]), default=F) for s in range(self.n)]
        else:
            raise ValueError(f"not a formula: {f!r}")
        self._formulas[f] = out
        return out


def ground(node: tuple, handedness: str) -> tuple:
    """Ground every atom and atomic action of a formula or action tuple."""
    kind = node[0]
    if kind == "atom":
        return ("atom", ground_atom(node[1], handedness))
    if kind in ("move", "thrill"):
        return ground_atom(node, handedness)
    if kind == "top":
        return node
    return (kind, *[ground(g, handedness) for g in node[1:]])


def reference_verdicts(doc: dict, signs, handedness: str,
                       overrides=()) -> list[list[tuple[str, str]]]:
    """Per-state [(sign, verdict)] lists: a sign is reported where none of
    its anchor atoms is False and its value is not False; `match` needs a
    True value and every anchor atom True. Matches come first, then
    possibles, each in lexicon order."""
    model = _Model(doc, handedness, overrides)
    grounded = [(name, ground(f, handedness)) for name, f in signs]
    columns = []
    for name, f in grounded:
        values = model.label(f)
        anchor_values = [model.atom(a) for a in anchors(f)]
        columns.append((name, values, anchor_values))
    out = []
    for s in range(model.n):
        matches, possibles = [], []
        for name, values, anchor_values in columns:
            anchor = min((a[s] for a in anchor_values), default=T)
            if anchor == F or values[s] == F:
                continue
            if values[s] == T and anchor == T:
                matches.append((name, "match"))
            else:
                possibles.append((name, "possible"))
        out.append(matches + possibles)
    return out


def report_verdicts(report: dict) -> list[list[tuple[str, str]]]:
    """The same shape, read from the program's proposal report."""
    return [[(p["sign"], p["verdict"]) for p in state["signs"]] for state in report["proposals"]]


def planted_problems(doc: dict, plan: dict) -> list[str]:
    """Differences between an extracted model document and the generator's
    plan: one state per posture, a chain whose k-th edge carries exactly the
    two planted moves, both hands observed with their planted hand shapes
    except where a dropout hid one."""
    n = plan["postures"]
    problems = []
    if doc["states"] != n:
        return [f"{doc['states']} states, planted {n}"]
    relation = sorted(tuple(e) for e in doc["relation"])
    if relation != [(k, k + 1) for k in range(n - 1)] + [(n - 1, n - 1)]:
        problems.append("relation is not the planted chain")
    expected: dict[str, set] = {}
    for k, move in enumerate(plan["moves"]):
        for hand, d in move.items():
            expected.setdefault(f"move({hand},{d})", set()).add((k, k + 1))
    actual = {a["action"]: {tuple(e) for e in a["edges"]} for a in doc["actions"]}
    if actual != expected:
        problems.append("action edges differ from the planted moves")
    fault = plan["fault"] or {}
    for k in range(n):
        dropped = fault.get("kind") == "dropout" and fault["state"] == k
        hidden = fault["hand"] if dropped else None
        hands = sorted(h for h in ("R", "L") if h != hidden)
        if sorted(doc["observed"][k]) != hands:
            problems.append(f"state {k} observes {doc['observed'][k]}, planted {hands}")
        configs = {h: (None if h == hidden else plan["configs"][k][h]) for h in ("R", "L")}
        if doc["configs"][k] != configs:
            problems.append(f"state {k} hand shapes {doc['configs'][k]}, planted {configs}")
    return problems


def expected_diagnostics(plan: dict) -> list[tuple]:
    """(code, frame, hand) of the diagnostics the planted fault must raise."""
    fault = plan["fault"] or {}
    if fault.get("kind") == "teleport":
        return [("teleport", fault["frame"], fault["hand"])]
    if fault.get("kind") == "repeat":
        return [("duplicate-frame", fault["frame"], None)]
    return []
