#!/usr/bin/env python3
"""Benchmark of the pdlsl pipeline, standard library only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a full checkout: it finds `src/` and
`docs/examples/` next to this directory and exits with code 2 without a
result when they are missing. With `--trace 0` it times operations for at
least S seconds and prints every end-to-end metric of BENCHMARK.json; with
`--trace 1` it makes one traced pass (twice, to check that the counts
repeat) and prints every per-layer metric. Either way the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. README.md in this directory describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "docs" / "examples"
WORK = ROOT / ".bench_work"

import gen  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

FIXTURES = ("route_clean", "route_dropout", "route_teleport")
# Hand-written acceptance answers for the shipped fixtures checked with
# route.pdlsl and route.overrides.
FIXTURE_ANSWERS = {
    "route_clean": [[("ROUTE", "match")], []],
    "route_dropout": [[("ROUTE", "possible")], []],
    "route_teleport": [[("ROUTE", "match")], []],
}
CLI_ENTRY = "import sys; from pdlsl.cli import main; sys.exit(main())"
# Gated times are calibrated against a fixed integer loop that runs after
# every set-up and operation. This machine's speed drifts by tens of percent
# over seconds to minutes with other tenants' load; scaling by the loop's
# mean time over the same run takes that drift out. CALIBRATION_S is the
# loop's time at the nominal speed the calibrated seconds refer to.
CALIBRATION_LOOP = 100_000
CALIBRATION_S = 0.006


class Outcome:
    """What one operation did: wall times per step, and what the check
    needs to judge it."""

    def __init__(self, **times: float):
        self.times = times
        self.pairs = 0  # (sign, state) pairs decided
        self.frames = 0  # tracking frames carried from file to report
        self.codes: tuple = ()
        self.stderr: tuple = ()
        self.report = None

    @property
    def total(self) -> float:
        return sum(self.times.values())


class Workload:
    """One seeded input set. `setup` builds the inputs, `ops` lists one
    round of operations (each with a `key` naming its input), `round` gives
    them in a round's order, `run` times one operation the way users run it,
    `run_inprocess` runs it through the library for the traced pass, and
    `check` returns the operation's problems (empty when correct)."""

    name = ""
    why = ""
    # A timed run makes at least this many whole rounds, for 30 to 40
    # samples and a steady mean per input; its tails are the highest
    # percentile that leaves ten of the minimum sample count above it.
    min_rounds = 6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []
        self._answers: dict = {}

    def rng(self, tag: str = "") -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def round(self, index: int) -> list:
        return self.ops

    def run_inprocess(self, op) -> Outcome:
        return self.run(op)


# --- cli_utterances -----------------------------------------------------------


class CliUtterances(Workload):
    name = "cli_utterances"
    why = ("The annotator's path: pdlsl extract then pdlsl check as subprocesses on seeded "
           "40-200 posture utterances and the shipped fixtures; mostly extract, cli and model I/O.")
    POSTURES = (40, 80, 120, 160, 200)
    SIGNS = 10
    OVERRIDES = 5
    min_rounds = 5

    def setup(self) -> None:
        rng = self.rng()
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        # One lexicon for every seed: with ten signs, one costly sign would
        # otherwise make check time depend on the seed.
        signs = [("ROUTE", gen.ROUTE)] + gen.gen_signs(random.Random(self.name), self.SIGNS)
        lexicon = inputs / "lexicon.pdlsl"
        lexicon.write_text(gen.lexicon_text(signs), encoding="utf-8")
        self.ops = []
        for i, postures in enumerate(self.POSTURES):
            fault = rng.choice((None, None) + gen.FAULTS)
            doc, plan = gen.gen_utterance(rng, postures, fault)
            overrides = gen.gen_overrides(rng, postures, self.OVERRIDES)
            tracking = inputs / f"u{i}.tracking.json"
            tracking.write_text(json.dumps(doc), encoding="utf-8")
            ov_path = inputs / f"u{i}.overrides"
            ov_path.write_text(gen.overrides_text(overrides), encoding="utf-8")
            self.ops.append({
                "key": f"u{i}", "tracking": tracking, "lexicon": lexicon, "overrides": ov_path,
                "dominant": ("right", "left")[i % 2], "frames": len(doc["frames"]),
                "plan": plan, "signs": signs, "override_cells": overrides,
            })
        for fixture in FIXTURES:
            tracking = EXAMPLES / f"{fixture}.tracking.json"
            frames = len(json.loads(tracking.read_text(encoding="utf-8"))["frames"])
            self.ops.append({
                "key": fixture, "tracking": tracking, "lexicon": EXAMPLES / "route.pdlsl",
                "overrides": EXAMPLES / "route.overrides", "dominant": "right",
                "frames": frames, "plan": None, "signs": None,
            })

    def _argv(self, op) -> tuple[list[str], list[str]]:
        model = self.workdir / f"{op['key']}.model.json"
        report = self.workdir / f"{op['key']}.report.json"
        extract = ["extract", str(op["tracking"]), "-o", str(model)]
        check = ["check", str(model), str(op["lexicon"]), "--overrides", str(op["overrides"]),
                 "--dominant", op["dominant"], "-o", str(report)]
        return extract, check

    def run(self, op) -> Outcome:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        runs, times = [], []
        for argv in self._argv(op):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=env,
                                  capture_output=True, text=True, cwd=self.workdir)
            times.append(time.perf_counter() - start)
            runs.append(proc)
        outcome = Outcome(extract=times[0], check=times[1])
        outcome.codes = tuple(p.returncode for p in runs)
        outcome.stderr = tuple(p.stderr for p in runs)
        return outcome

    def run_inprocess(self, op) -> Outcome:
        import pdlsl.cli

        codes, errors, times = [], [], []
        for argv in self._argv(op):
            buffer = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(buffer):
                try:
                    code = pdlsl.cli.main(argv)
                except Exception:  # reported as a failed operation
                    code = 1
                    traceback.print_exc()
            times.append(time.perf_counter() - start)
            codes.append(code)
            errors.append(buffer.getvalue())
        outcome = Outcome(extract=times[0], check=times[1])
        outcome.codes, outcome.stderr = tuple(codes), tuple(errors)
        return outcome

    def check(self, op, outcome: Outcome) -> list[str]:
        key = op["key"]
        outcome.frames = op["frames"]
        problems = [f"{key}: exit code {c}" for c in outcome.codes if c != 0]
        problems += [f"{key}: traceback" for e in outcome.stderr if "Traceback" in e]
        if problems:
            return problems
        try:
            model_text = (self.workdir / f"{key}.model.json").read_text(encoding="utf-8")
            report_text = (self.workdir / f"{key}.report.json").read_text(encoding="utf-8")
            verdicts = reference.report_verdicts(json.loads(report_text))
            doc = json.loads(model_text)
            diagnostics = [json.loads(line) for line in outcome.stderr[0].splitlines() if line]
            found = [(d["diagnostic"], d.get("frame"), d.get("hand")) for d in diagnostics]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{key}: unreadable output ({exc})"]
        signs = 1 if op["signs"] is None else len(op["signs"])
        outcome.pairs = signs * len(verdicts)
        seen = (model_text, report_text, outcome.stderr[0])
        if self._answers.get(key) == seen:
            return []
        if op["plan"] is None:
            expected = FIXTURE_ANSWERS[key]
        else:
            problems += [f"{key}: {p}" for p in reference.planted_problems(doc, op["plan"])]
            if found != reference.expected_diagnostics(op["plan"]):
                problems.append(f"{key}: diagnostics {found}")
            expected = reference.reference_verdicts(doc, op["signs"], op["dominant"],
                                                    op["override_cells"])
        if verdicts != expected:
            problems.append(f"{key}: verdicts differ from the known answer")
        if not problems:
            self._answers[key] = seen
        return problems


# --- lexicon_check -------------------------------------------------------------


class LexiconCheck(Workload):
    name = "lexicon_check"
    why = ("The per-(state, sign) check path in-process: decode a model file, parse a 300-sign "
           "lexicon, verify with 20 overrides; exercises check, core and model lookups, "
           "no extraction.")
    POSTURES = (40, 70, 100, 130, 160)
    SIGNS = 300
    OVERRIDES = 20

    def setup(self) -> None:
        import pdlsl

        rng = self.rng()
        self.signs = gen.gen_signs(rng, self.SIGNS)
        self.lexicon_text = gen.lexicon_text(self.signs)
        self.models = []
        for postures in self.POSTURES:
            fault = rng.choice((None, None) + gen.FAULTS)
            doc, plan = gen.gen_utterance(rng, postures, fault)
            model, _ = pdlsl.extract_model(pdlsl.tracking_from_json(doc))
            overrides = gen.gen_overrides(rng, postures, self.OVERRIDES)
            self.models.append({
                "text": json.dumps(pdlsl.model_to_json(model), indent=2) + "\n",
                "plan": plan, "overrides": overrides,
                "overrides_text": gen.overrides_text(overrides),
            })
        self.ops = [{"key": i, "model": i} for i in range(len(self.models))]

    def round(self, index: int) -> list:
        # Handedness alternates from one operation to the next; with an odd
        # number of models, each model meets both over two rounds.
        first = index * len(self.ops)
        return [dict(op, dominant=("right", "left")[(first + j) % 2])
                for j, op in enumerate(self.ops)]

    def run(self, op) -> Outcome:
        import pdlsl

        handedness = pdlsl.Handedness(op["dominant"])
        inputs = self.models[op["model"]]
        start = time.perf_counter()
        model = pdlsl.model_from_json(json.loads(inputs["text"]))
        lexicon = pdlsl.parse_lexicon(self.lexicon_text)
        overrides = pdlsl.parse_overrides(inputs["overrides_text"])
        report = pdlsl.verify(model, lexicon, handedness, overrides)
        outcome = Outcome(check=time.perf_counter() - start)
        outcome.report = report
        outcome.pairs = model.state_count * len(lexicon.entries)
        return outcome

    def check(self, op, outcome: Outcome) -> list[str]:
        key = (op["model"], op["dominant"])
        inputs = self.models[op["model"]]
        if key not in self._answers:
            doc = json.loads(inputs["text"])
            problems = reference.planted_problems(doc, inputs["plan"])
            answer = reference.reference_verdicts(doc, self.signs, op["dominant"],
                                                  inputs["overrides"])
            self._answers[key] = (problems, answer)
        problems, answer = self._answers[key]
        if reference.report_verdicts(outcome.report.to_json()) != answer:
            problems = problems + ["verdicts differ from the reference"]
        return [f"model {op['model']} {op['dominant']}: {p}" for p in problems]


# --- star_chain -----------------------------------------------------------------


class StarChain(Workload):
    name = "star_chain"
    why = ("Relational closure worst case: verify of three star signs on move(R,E) chains of "
           "30-50 states; the prefilter never prunes, so the model's relation algebra dominates.")
    STATES = (30, 35, 40, 45, 50)
    min_rounds = 7

    def setup(self) -> None:
        rng = self.rng()
        self.lexicon_text = gen.lexicon_text(list(gen.STAR_SIGNS))
        self.ops = []
        for n in self.STATES:
            doc, verdicts = gen.gen_chain(rng, n)
            self.ops.append({"key": n, "doc": doc, "verdicts": verdicts, "states": n})

    def round(self, index: int) -> list:
        order = list(self.ops)
        self.rng(f"round{index}").shuffle(order)
        return order

    def run(self, op) -> Outcome:
        import pdlsl

        # Fresh objects per operation, so nothing the program might cache on
        # a model or lexicon carries over from the previous round.
        model = pdlsl.model_from_json(op["doc"])
        lexicon = pdlsl.parse_lexicon(self.lexicon_text)
        start = time.perf_counter()
        report = pdlsl.verify(model, lexicon, pdlsl.Handedness.RIGHT_DOMINANT)
        outcome = Outcome(check=time.perf_counter() - start)
        outcome.report = report
        outcome.pairs = op["states"] * len(lexicon.entries)
        return outcome

    def check(self, op, outcome: Outcome) -> list[str]:
        key = op["states"]
        if key not in self._answers:
            ref = reference.reference_verdicts(op["doc"], list(gen.STAR_SIGNS), "right")
            if ref != op["verdicts"]:
                raise RuntimeError(f"chain of {key}: reference and analytic verdicts disagree")
            self._answers[key] = True
        if reference.report_verdicts(outcome.report.to_json()) != op["verdicts"]:
            return [f"chain of {key} states: verdicts differ from the analytic answer"]
        return []


WORKLOADS = {w.name: w for w in (CliUtterances, LexiconCheck, StarChain)}


# --- Statistics -------------------------------------------------------------------


def quantile(values: list[float], percent: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = percent / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples above it."""
    return math.floor(100 * (1 - 10 / samples))


def growth_exponent(sizes: list[float], seconds: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def best_time(fn, repeats: int, prepare=lambda: ()) -> float:
    best = math.inf
    for _ in range(repeats):
        args = prepare()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


# --- Timed run ---------------------------------------------------------------------


def calibrate(samples: list[float]) -> None:
    """Time the calibration loop three times. It allocates nothing the
    garbage collector tracks, so the program's heap does not slow it."""
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        samples.append(time.perf_counter() - start)


def timed_run(wl: Workload, seconds: int) -> dict:
    calibration: list[float] = []
    setups: list[float] = []
    while len(setups) < 3 or (len(setups) < 9 and sum(setups) < 2.0):
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
        calibrate(calibration)

    # Set-up comes first in the run; it is scaled by its own calibrations.
    setup_scale = CALIBRATION_S / statistics.fmean(calibration)
    rounds = wl.min_rounds
    percentile = tail_percentile(rounds * len(wl.ops))
    per_input: dict = {op["key"]: [] for op in wl.ops}
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < rounds or time.perf_counter() < deadline:
        for op in wl.round(index):
            outcome = wl.run(op)
            calibrate(calibration)
            found = wl.check(op, outcome)
            per_input[op["key"]].append(outcome)
            problems += found
            attempted += 1
            failed += bool(found)
        index += 1
    scale = CALIBRATION_S / statistics.fmean(calibration)

    # Inputs differ in size, so a typical value is the median over inputs of
    # each input's mean over the rounds; tails pool every sample. The mean
    # spreads least from run to run on a machine whose speed drifts by tens
    # of percent over seconds to minutes (the minimum and the median over
    # rounds both spread more).
    samples = [o for outcomes in per_input.values() for o in outcomes]
    inputs = len(per_input)

    def typical(step: str | None) -> list[float]:
        return [statistics.fmean(o.total if step is None else o.times[step] for o in outcomes)
                for outcomes in per_input.values()]

    def pooled(step: str | None) -> list[float]:
        return [o.total if step is None else o.times[step] for o in samples]

    note = f"median over {inputs} inputs of their mean over {index} rounds"
    tail = f"p{percentile} of all samples"
    pairs = sum(outcomes[0].pairs for outcomes in per_input.values())

    def seconds_row(raw: float, note: str) -> tuple:
        return (raw * scale, len(samples), f"{note}; {raw:.4g} s uncalibrated")

    def rate_row(amount: float, raw_seconds: float, what: str) -> tuple:
        raw = amount / raw_seconds
        return (raw / scale, len(samples), f"{what} over mean times; {raw:.4g}/s uncalibrated")

    metrics = {
        "setup_s": (statistics.median(setups) * setup_scale, len(setups),
                    f"median of set-ups; {statistics.median(setups):.4g} s uncalibrated"),
        "op_p50_s": seconds_row(statistics.median(typical(None)), note),
        "check_p50_s": seconds_row(statistics.median(typical("check")), note),
        "sign_states_per_s": rate_row(pairs, sum(typical("check")), "pairs"),
    }
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliUtterances) else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, 1, "peak")
    # Printed, not gated: tails carry the machine's slow phases and spread
    # by 10-17 % from run to run even when calibrated.
    extra = {
        "op_tail_s": seconds_row(quantile(pooled(None), percentile), tail),
        "check_tail_s": seconds_row(quantile(pooled("check"), percentile), tail),
        "failed_ratio": (failed / attempted, attempted, "failed / attempted"),
    }
    if isinstance(wl, CliUtterances):
        frames = sum(outcomes[0].frames for outcomes in per_input.values())
        extra["extract_p50_s"] = seconds_row(statistics.median(typical("extract")), note)
        extra["extract_tail_s"] = seconds_row(quantile(pooled("extract"), percentile), tail)
        extra["frames_per_s"] = rate_row(frames, sum(typical(None)), "frames")
    extra["calibration_s"] = (statistics.fmean(calibration), len(calibration),
                              f"mean loop time; times above are scaled by {scale:.4f}")
    return {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed,
            "problems": problems}


# --- Traced run ----------------------------------------------------------------------


def import_seconds(repeats: int = 5) -> float:
    """`import pdlsl` in a fresh interpreter, timed inside the child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time; t = time.perf_counter(); import pdlsl; print(time.perf_counter() - t)"
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        samples.append(float(out))
    return statistics.median(samples)


def scaling_series(seed: int) -> dict[str, float]:
    """Growth exponents of extraction in frames, verification of the star
    signs in chain length and verification in lexicon size. Untraced,
    best of a few runs for the short ones."""
    import pdlsl

    rng = random.Random(f"scaling:{seed}")
    frames, seconds = [], []
    for postures, repeats in ((40, 3), (80, 2), (158, 1), (315, 1)):
        doc, _ = gen.gen_utterance(rng, postures)
        seconds.append(best_time(
            lambda: pdlsl.extract_model(pdlsl.tracking_from_json(doc)), repeats))
        frames.append(gen.frames_for(postures))
    out = {"extract.frames_exponent": growth_exponent(frames, seconds)}

    star_text = gen.lexicon_text(list(gen.STAR_SIGNS))
    states, seconds = [], []
    for n, repeats in ((20, 3), (30, 2), (40, 1)):
        doc, _ = gen.gen_chain(rng, n)
        seconds.append(best_time(
            lambda m, lex: pdlsl.verify(m, lex, pdlsl.Handedness.RIGHT_DOMINANT), repeats,
            lambda: (pdlsl.model_from_json(doc), pdlsl.parse_lexicon(star_text))))
        states.append(n)
    out["model.chain_exponent"] = growth_exponent(states, seconds)

    signs = gen.gen_signs(rng, 400)
    doc, _ = gen.gen_utterance(rng, 100)
    model_doc = pdlsl.model_to_json(pdlsl.extract_model(pdlsl.tracking_from_json(doc))[0])
    overrides = gen.overrides_text(gen.gen_overrides(rng, 100, LexiconCheck.OVERRIDES))
    sizes, seconds = [], []
    for count in (50, 100, 200, 400):
        text = gen.lexicon_text(signs[:count])
        seconds.append(best_time(
            lambda m, lex, ov: pdlsl.verify(m, lex, pdlsl.Handedness.RIGHT_DOMINANT, ov), 2,
            lambda: (pdlsl.model_from_json(model_doc), pdlsl.parse_lexicon(text),
                     pdlsl.parse_overrides(overrides))))
        sizes.append(count)
    out["check.lexicon_exponent"] = growth_exponent(sizes, seconds)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(passes: list[Tracer]) -> dict[str, float]:
    counts = passes[0].counts

    def inclusive(name: str) -> float:
        return statistics.fmean(t.inclusive[name] for t in passes)

    def own(name: str) -> float:
        return statistics.fmean(t.self_time[name] for t in passes)

    out = {"cli.main_self_s": own("cli.main"),
           "extract.build_model_self_s": own("extract.build_model"),
           "check.verify_self_s": own("check.verify")}
    for name in ("extract.tracking_from_json", "extract.normalize_sequence",
                 "extract.validate_sequence", "extract.segment", "extract.posture_valuation",
                 "extract.transition_action", "model.model_to_json", "model.model_from_json",
                 "model.interpret_action", "model.eval_formula", "parsing.parse_lexicon",
                 "core.ground", "core.contains_alias", "check.apply_overrides"):
        out[f"{name}_s"] = inclusive(name)
    for name in ("extract.compute_velocities", "geometry.classify_direction",
                 "model.interpret_action", "model.eval_formula", "model.atom_value",
                 "parsing.parse_atom", "core.ground", "core.contains_alias"):
        out[f"{name}_calls"] = counts[name]
    out["geometry.vec2_inits"] = counts["geometry.vec2"]
    for name in ("extract.frames", "extract.states", "extract.diagnostics", "check.pairs"):
        out[name] = counts[name]
    evals = counts["model.eval_formula"]
    out["check.prefilter_pass_ratio"] = _ratio(evals, counts["check.pairs"])
    out["check.useful_ratio"] = _ratio(counts["check.proposals"], evals)
    out["check.possible_share"] = _ratio(counts["check.possibles"], counts["check.proposals"])
    return out


def traced_run(wl: Workload, spans: str | None) -> dict:
    wl.setup()
    problems: list[str] = []
    attempted = failed = 0

    def run_round(tracer: Tracer | None) -> float:
        nonlocal attempted, failed
        total = 0.0
        for i, op in enumerate(wl.round(0)):
            if tracer is None:
                outcome = wl.run_inprocess(op)
            else:
                outcome = tracer.run_op(i, lambda: wl.run_inprocess(op))
            found = wl.check(op, outcome)
            problems.extend(found)
            attempted += 1
            failed += bool(found)
            total += outcome.total
        return total

    # A warm-up round first, then untraced and traced rounds alternate, so
    # neither first-touch costs nor drift in machine speed bias the
    # overhead ratio.
    run_round(None)
    passes, traced, untraced = [], [], []
    for _ in range(2):
        untraced.append(run_round(None))
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_op(-1, wl.setup)
            traced.append(run_round(tracer))
        finally:
            tracer.uninstall()
        passes.append(tracer)
    if passes[0].counts != passes[1].counts:
        differ = sorted(k for k in passes[0].counts | passes[1].counts
                        if passes[0].counts[k] != passes[1].counts[k])
        problems.append(f"counts differ between two traced passes: {differ}")
        failed += 1
    if spans:
        passes[0].write_spans(spans)

    values = layer_metrics(passes)
    values["cli.import_s"] = import_seconds()
    values["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    values.update(scaling_series(wl.seed))
    return {"values": values, "attempted": attempted, "problems": problems, "failed": failed}


# --- Reporting -------------------------------------------------------------------------


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run in an export that has no .git at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1, write the spans as JSON lines")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (SRC / "pdlsl" / "__init__.py", EXAMPLES / "route.pdlsl", spec_path)
               if not p.is_file()]
    if missing:
        print(f"bench/run.py: missing {', '.join(map(str, missing))}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pdlsl.cli  # noqa: F401  (compiles the package before any timing)

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            result = traced_run(wl, args.spans)
            rows = {name: (value, 1, "traced pass") for name, value in result["values"].items()}
            extra = {}
        else:
            result = timed_run(wl, args.seconds)
            rows, extra = result["metrics"], result["extra"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    provenance = {"git": git_sha(), "python": sys.version.split()[0], "nproc": os.cpu_count(),
                  "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace}
    print(f"pdlsl benchmark: {json.dumps(provenance)}")
    print(f"why {wl.name}: {wl.why}")
    print(f"{'metric':34} {'value':>14}  {'unit':8} {'n':>5}  note")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(op_tail_s="s", check_tail_s="s", extract_p50_s="s", extract_tail_s="s",
                 frames_per_s="1/s", failed_ratio="1", calibration_s="s")
    for name in [m["name"] for m in group] + list(extra):
        value, count, note = rows[name] if name in rows else extra[name]
        print(f"{name:34} {value:14.6g}  {units.get(name, '1'):8} {count:5d}  {note}")
    if not args.trace and not isinstance(wl, CliUtterances):
        print("extract_p50_s, extract_tail_s, frames_per_s: not applicable "
              "(no extraction in operations)")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]} for m in group},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
