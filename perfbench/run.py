"""Benchmark the ``basketminer mine`` CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload sparse|dense|quest --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it needs no install, because
every child runs ``python -m basketminer.cli`` with ``src`` on
PYTHONPATH. One run:

1. writes the workload's input for the seed (untimed, see workloads.py);
2. mines it with the independent reference miner (untimed);
3. times ``SETUP_REPEATS`` fresh interpreters that import basketminer
   and load the input with ``cli.load_db`` (``setup_s``);
4. runs ``mine`` children one at a time until the next one would end
   after ``--seconds``. Each child's stdout must match the reference
   (and, at the pinned seed, the pinned SHA-256) or the child counts as
   failed. With ``--trace 1`` the children alternate between plain and
   traced (traced.py) ones, and the traced ones give the per-layer
   numbers.

``wall_s`` and ``setup_s`` scale each child's wall time by the machine's
speed around it, as ``SpeedProbe`` measures it; the report lines also give
the unscaled medians.

The last stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).
``error_rate`` is ``failed / attempted``. The exit code is 0 only if
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import reference
from proc import ChildResult, Launcher, exit_on_sigterm, python_env
from traced import COUNT_SPAN
from workloads import WORKLOADS, Workload, write_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINS = BENCH / "pins.json"

SETUP_REPEATS = 7
# The speed_probe() time that a scale of 1 stands for; see SpeedProbe.
PROBE_NOMINAL_S = 0.2
MIN_CHILDREN = 2  # of each kind: plain, and with --trace 1 traced
CHILD_TIMEOUT_S = 60.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
# Layer span name -> time metric. The spans come from traced.py.
LAYER_SPANS = {
    "core.ingest": "core.ingest_s",
    "fpgrowth.build": "fpgrowth.build_s",
    "fpgrowth.mine": "fpgrowth.mine_s",
    "apriori.singletons": "apriori.singletons_s",
    "apriori.levels": "apriori.levels_s",
    "rules.generate": "rules.generate_s",
    "cli.render": "cli.render_s",
}
PER_LAYER = {
    "core.ingest_s": "s", "core.transactions": "count",
    "core.items": "count", "core.input_bytes": "bytes",
    "fpgrowth.build_s": "s", "fpgrowth.tree_nodes": "count",
    "fpgrowth.mine_s": "s", "fpgrowth.itemsets": "count",
    "apriori.singletons_s": "s", "apriori.levels_s": "s",
    "apriori.levels": "count", "apriori.candidates": "count",
    "apriori.peak_candidates": "count", "apriori.candidate_yield": "ratio",
    "rules.generate_s": "s", "rules.splits": "count",
    "rules.emitted": "count", "rules.yield": "ratio",
    "cli.render_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio", "trace.unaccounted_s": "s",
}


def speed_probe() -> float:
    """Seconds for a fixed pure-Python workload of tuple keys, dict lookups
    and list appends, the kind of work the miners do."""
    started = time.perf_counter()
    rng = random.Random(1)
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(150_000):
        table.setdefault((rng.randrange(5000), rng.randrange(50)), []).append(i)
    sum(map(len, table.values()))
    return time.perf_counter() - started


class SpeedProbe:
    """The machine's speed around each child, from ``speed_probe`` run
    just before and just after it in this process.

    ``scale()`` is PROBE_NOMINAL_S over the mean of those two probe times;
    a child's wall time times its scale is the time it would have taken
    on a machine where the probe takes PROBE_NOMINAL_S.
    """

    def __init__(self):
        self.last = speed_probe()

    def scale(self) -> float:
        before, self.last = self.last, speed_probe()
        return PROBE_NOMINAL_S / ((before + self.last) / 2)


class OutputGate:
    """Checks each distinct stdout once against the reference result."""

    def __init__(self, workload: Workload, want: reference.Expected,
                 pinned_sha: str | None):
        self.output = workload.option("--output")
        self.want = want
        self.pinned_sha = pinned_sha
        self.verdicts: dict[str, list[str]] = {}

    def check(self, stdout: Path) -> list[str]:
        data = stdout.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if sha not in self.verdicts:
            problems = reference.check_output(data.decode("utf-8", "replace"),
                                              self.output, self.want)
            if self.pinned_sha is not None and sha != self.pinned_sha:
                problems.append(f"stdout sha256 {sha} != pinned {self.pinned_sha}")
            self.verdicts[sha] = problems
        return self.verdicts[sha]


def child_problems(result: ChildResult, stdout: Path, stderr: Path,
                   gate: OutputGate) -> list[str]:
    if result.timed_out:
        return [f"timed out after {CHILD_TIMEOUT_S:.0f} s"]
    if result.exit_code != 0:
        tail = stderr.read_text(encoding="utf-8", errors="replace")[-500:]
        return [f"exit code {result.exit_code}: {tail.strip()}"]
    return gate.check(stdout)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_figures(trace: dict, wall_s: float) -> tuple[dict[str, float], float]:
    """Self time per layer metric, and the wall time no layer accounts for."""
    own = self_times(trace["spans"])
    times = dict.fromkeys(LAYER_SPANS.values(), 0.0)
    covered = 0.0
    for span in trace["spans"]:
        if span["name"] in LAYER_SPANS:
            times[LAYER_SPANS[span["name"]]] += own[span["id"]]
        if span["name"] in LAYER_SPANS or span["name"] == COUNT_SPAN:
            covered += own[span["id"]]
    return times, wall_s - covered


def per_layer_metrics(traces: list[tuple[dict, ChildResult]],
                      plain: list[ChildResult]) -> dict[str, float]:
    figures = [layer_figures(trace, child.wall_s) for trace, child in traces]
    metrics = {name: statistics.median(times[name] for times, _ in figures)
               for name in LAYER_SPANS.values()}
    counters = traces[-1][0]["counters"]
    for name in PER_LAYER:
        if PER_LAYER[name] in ("count", "bytes"):
            metrics[name] = counters.get(name, 0)
    candidates = counters.get("apriori.candidates", 0)
    metrics["apriori.candidate_yield"] = (
        counters.get("apriori.frequent_k2", 0) / candidates if candidates else 0.0)
    splits = counters.get("rules.splits", 0)
    metrics["rules.yield"] = counters.get("rules.emitted", 0) / splits if splits else 0.0
    traced_wall = statistics.median(child.wall_s for _, child in traces)
    plain_wall = statistics.median(child.wall_s for child in plain)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    metrics["trace.unaccounted_s"] = statistics.median(rest for _, rest in figures)
    return metrics


def scaled_median(children: list[ChildResult], scales: list[float]) -> float:
    return statistics.median(c.wall_s * k for c, k in zip(children, scales))


def measure_setup(launcher: Launcher, speed: SpeedProbe, workload: Workload,
                  input_path: Path, env: dict[str, str], workdir: Path
                  ) -> tuple[list[ChildResult], list[float], list[str]]:
    """Fresh interpreters that only import and ingest, with their scales;
    the first one (which also writes bytecode caches) is not counted."""
    code = ("import sys, basketminer\n"
            "from basketminer.cli import load_db\n"
            "load_db(sys.argv[1], sys.argv[2], skip_header=sys.argv[3] == '1')\n")
    args = ["-c", code, str(input_path), workload.file_format,
            "1" if workload.skip_header else "0"]
    children, scales = [], []
    for _ in range(SETUP_REPEATS + 1):
        result = launcher.run(args, env, workdir / "setup.out",
                              workdir / "setup.err", CHILD_TIMEOUT_S)
        if result.exit_code != 0:
            tail = (workdir / "setup.err").read_text(encoding="utf-8",
                                                     errors="replace")[-500:]
            return children, scales, [
                f"setup child exit code {result.exit_code}: {tail}"]
        children.append(result)
        scales.append(speed.scale())
    return children[1:], scales[1:], []


def run(args: argparse.Namespace, launcher: Launcher
        ) -> tuple[dict, list[str], list[str]]:
    """Returns the result object, the report lines and every problem."""
    workload = WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    pinned = args.seed == pins["seed"]
    workdir = OUT / f"{workload.name}-{args.seed}"
    source = write_input(workload, args.seed, workdir)
    report = [f"workload {workload.name} seed {args.seed}: input {source.path.name} "
              f"sha256={source.sha256} N={source.transactions} "
              f"items={source.items} bytes={source.size_bytes}"]
    problems = []
    if pinned and source.sha256 != pins["input_sha256"][workload.name]:
        problems.append(f"input sha256 {source.sha256} != pinned "
                        f"{pins['input_sha256'][workload.name]}")
    want = reference.expected(source.path, workload.file_format,
                              workload.skip_header,
                              Fraction(workload.option("--min-support")),
                              Fraction(workload.option("--min-confidence")))
    report.append(f"reference: {len(want.itemsets)} frequent itemsets, "
                  f"{len(want.rules)} rules")
    gate = OutputGate(workload, want,
                      pins["stdout_sha256"][workload.name] if pinned else None)
    env = python_env(SRC)

    speed = SpeedProbe()
    setup, setup_scales, setup_problems = measure_setup(
        launcher, speed, workload, source.path, env, workdir)
    problems += setup_problems

    mine = ["-m", "basketminer.cli", "mine", "--input", str(source.path),
            *workload.mine_args]
    stdout, stderr = workdir / "mine.out", workdir / "mine.err"
    plain: list[ChildResult] = []
    plain_scales: list[float] = []
    traces: list[tuple[dict, ChildResult]] = []
    attempted = failed = 0
    started = time.perf_counter()
    while not setup_problems:
        traced = bool(args.trace) and attempted % 2 == 1
        spans = workdir / f"spans-{attempted}.json"
        child_args = ([str(BENCH / "traced.py"), str(spans), workload.name,
                       str(attempted), *mine[2:]] if traced else mine)
        result = launcher.run(child_args, env, stdout, stderr, CHILD_TIMEOUT_S)
        scale = speed.scale()
        attempted += 1
        measured = time.perf_counter() - started
        found = child_problems(result, stdout, stderr, gate)
        if traced and not found:
            trace = json.loads(spans.read_text(encoding="utf-8"))
            counters = trace["counters"]
            mined = counters.get("fpgrowth.itemsets",
                                 counters.get("apriori.itemsets"))
            if mined != len(want.itemsets):
                found = [f"traced run mined {mined} itemsets, reference "
                         f"{len(want.itemsets)}"]
            elif traces and counters != traces[0][0]["counters"]:
                found = ["work counters differ between traced runs"]
            else:
                traces.append((trace, result))
        elif not traced and not found:
            plain.append(result)
            plain_scales.append(scale)
        if found:
            failed += 1
            problems += [f"mine child {attempted}: {p}" for p in found]
            if result.timed_out:
                break
        if failed and attempted >= MIN_CHILDREN:
            break
        # Stop before a child that would likely overrun --seconds.
        enough = len(plain) >= MIN_CHILDREN and (not args.trace or
                                                  len(traces) >= MIN_CHILDREN)
        if enough and measured * (attempted + 1) / attempted > args.seconds:
            break

    metrics: dict[str, float] = {}
    if plain and setup and (traces or not args.trace):
        e2e = {"wall_s": scaled_median(plain, plain_scales),
               "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
               "setup_s": scaled_median(setup, setup_scales)}
        layers = per_layer_metrics(traces, plain) if args.trace else {}
        chosen = layers if args.trace else e2e
        units = PER_LAYER if args.trace else END_TO_END
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in chosen.items()}
        report += [f"{name} {value:.6g} {END_TO_END[name]}"
                   for name, value in e2e.items()]
        report += [f"{name} {value:.6g} {PER_LAYER[name]}" if isinstance(value, float)
                   else f"{name} {value} {PER_LAYER[name]}"
                   for name, value in layers.items()]
        report.append(f"measured: wall {statistics.median(r.wall_s for r in plain):.6g} s, "
                      f"setup {statistics.median(r.wall_s for r in setup):.6g} s, "
                      f"speed scale {statistics.median(plain_scales + setup_scales):.4g}")
        report.append(f"samples: {len(plain)} mine children, {len(traces)} "
                      f"traced, {len(setup)} setup children")
    report.append(f"error_rate {failed / max(attempted, 1):.6g} ratio "
                  f"({failed} failed of {attempted} attempted)")
    result = {"correct": not problems and bool(metrics),
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    (workdir / "report.json").write_text(json.dumps(
        {"input": {"path": str(source.path.relative_to(ROOT)),
                   "sha256": source.sha256, "transactions": source.transactions,
                   "items": source.items, "bytes": source.size_bytes},
         "problems": problems,
         "setup_children": [asdict(r) for r in setup],
         "setup_scales": setup_scales,
         "mine_children": [asdict(r) for r in plain],
         "mine_scales": plain_scales,
         "traced_children": [asdict(r) for _, r in traces], "result": result},
        indent=2), encoding="utf-8")
    return result, report, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "basketminer" / "cli.py").is_file():
        print(f"error: no basketminer sources under {SRC}", file=sys.stderr)
        return 2
    exit_on_sigterm()
    with Launcher() as launcher:
        result, report, problems = run(args, launcher)
    for line in report:
        print(line)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
