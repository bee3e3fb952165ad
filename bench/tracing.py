"""Spans and counters taken from outside the program.

`Tracer.install` replaces the public functions listed in TIMED and COUNTED
with wrappers, in every `pdlsl` module that bound the same function object
(for example both `pdlsl.model.atom_value` and `pdlsl.check.atom_value`),
and `Tracer.uninstall` puts the originals back. A timed wrapper records a
span: its name, start, end, parent span and operation id. Calls made while
a span is open become its children, so a layer's self time is its span's
duration minus the time its child spans cover. A counting wrapper only
counts calls; it is used where a span per call would cost more than the
call.

Spans are kept in memory in compact arrays; `write_spans` dumps them.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, function, span name)
TIMED = (
    ("pdlsl.cli", "main", "cli.main"),
    ("pdlsl.extract", "tracking_from_json", "extract.tracking_from_json"),
    ("pdlsl.extract", "normalize_sequence", "extract.normalize_sequence"),
    ("pdlsl.extract", "validate_sequence", "extract.validate_sequence"),
    ("pdlsl.extract", "segment", "extract.segment"),
    ("pdlsl.extract", "posture_valuation", "extract.posture_valuation"),
    ("pdlsl.extract", "transition_action", "extract.transition_action"),
    ("pdlsl.extract", "build_model", "extract.build_model"),
    ("pdlsl.model", "model_to_json", "model.model_to_json"),
    ("pdlsl.model", "model_from_json", "model.model_from_json"),
    ("pdlsl.model", "interpret_action", "model.interpret_action"),
    ("pdlsl.model", "eval_formula", "model.eval_formula"),
    ("pdlsl.parsing", "parse_lexicon", "parsing.parse_lexicon"),
    ("pdlsl.core", "ground", "core.ground"),
    ("pdlsl.core", "contains_alias", "core.contains_alias"),
    ("pdlsl.check", "verify", "check.verify"),
    ("pdlsl.check", "apply_overrides", "check.apply_overrides"),
    ("pdlsl.check", "parse_overrides", "check.parse_overrides"),
)
COUNTED = (
    ("pdlsl.extract", "compute_velocities", "extract.compute_velocities"),
    ("pdlsl.geometry", "classify_direction", "geometry.classify_direction"),
    ("pdlsl.model", "atom_value", "model.atom_value"),
    ("pdlsl.parsing", "parse_atom", "parsing.parse_atom"),
)


def _observe_frames(counts, args, result):
    counts["extract.frames"] += len(result.frames)


def _observe_diagnostics(counts, args, result):
    counts["extract.diagnostics"] += len(result[1])


def _observe_states(counts, args, result):
    counts["extract.states"] += result.state_count


def _observe_verify(counts, args, result):
    model, lexicon = args[0], args[1]
    counts["check.pairs"] += model.state_count * len(lexicon.entries)
    for proposals in result.per_state:
        counts["check.proposals"] += len(proposals)
        counts["check.possibles"] += sum(p.verdict == "possible" for p in proposals)


# Counts read off arguments and results, for the quantities that must
# repeat exactly between two traced runs of one seed.
OBSERVERS = {
    "extract.tracking_from_json": _observe_frames,
    "extract.normalize_sequence": _observe_diagnostics,
    "extract.validate_sequence": _observe_diagnostics,
    "extract.build_model": _observe_states,
    "check.verify": _observe_verify,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counts: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)  # outermost spans only
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[list] = []  # [span index, time covered by children, name, outermost]
        self._depth: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --

    def _enter(self, name: str) -> list:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.counts[name] += 1
        index = len(self.span_start)
        self.span_name.append(self._ids[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        frame = [index, 0.0, name, self._depth[name] == 0]
        self._depth[name] += 1
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _exit(self, frame: list) -> None:
        now = time.perf_counter()
        index, children, name, outermost = frame
        self.span_end[index] = now
        duration = now - self.span_start[index]
        self._stack.pop()
        self._depth[name] -= 1
        self.self_time[name] += duration - children
        if outermost:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def run_op(self, op: int, fn):
        """Run one benchmark operation under an `op` span."""
        self.op = op
        frame = self._enter("op")
        try:
            return fn()
        finally:
            self._exit(frame)
            self.op = -1

    def _timed(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self.counts, args, result)
                return result
            finally:
                self._exit(frame)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --

    def _replace(self, owner: object, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from pdlsl.geometry import Vec2

        modules = [m for n, m in list(sys.modules.items())
                   if n == "pdlsl" or n.startswith("pdlsl.")]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, attr, name in table:
                original = getattr(sys.modules[module], attr)
                wrapper = make(name, original)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        self._replace(m, attr, wrapper)
        self._replace(Vec2, "__post_init__", self._counted("geometry.vec2", Vec2.__post_init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps({
                    "name": self.names[self.span_name[i]],
                    "start": self.span_start[i],
                    "end": self.span_end[i],
                    "parent": self.span_parent[i],
                    "op": self.span_op[i],
                }) + "\n")
