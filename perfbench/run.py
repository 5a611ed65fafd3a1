"""Same-host fig07 ledger: time one commit's fig07 regeneration.

    python3 perfbench/run.py --workload fig07-full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every set-up, timed pass and check runs
in a fresh ``python3 perfbench/worker.py`` process with
``PYTHONPATH=src``; this process only schedules them and reports.

``--trace 0`` prints the end-to-end metrics (time at the reference
speed of ``reference.py``, memory, store bytes, failures, the gap to the
paper), the same times in host seconds, and, as the last line, a JSON
object whose ``metrics`` are the ``end_to_end`` entries of
``BENCHMARK.json``.
``--trace 1`` runs one untraced, one traced and one profiled pass and
reports the ``per_layer`` entries instead: counts and self times per
layer, the ``cProfile`` split by subpackage, simulated-time totals and
the tracing overhead. It also prints every end-to-end metric of the
untraced pass, the sampled workloads' accuracy against full-detail
runs among them. It also checks that every count repeats exactly
between the traced and the profiled pass, and that the predicted zeros
in ``predictions.json`` hold.

``attempted`` counts the design-point runs of the timed passes;
``failed`` counts those that failed a correctness check (see
``worker.check``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import PAPER_WORST_CPC8, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every step must finish inside the contract's 180 s per invocation.
DEADLINE_S = 170.0
#: Reference chunks timed before and after each set-up.
SETUP_CHUNKS = 5

#: Per-layer names fed by the program's own ``kernel.*`` counters
#: (``REPRO_OBS=metrics``), summed over the figure's runs.
_KERNEL = {
    "engine.cycles_executed": "kernel.cycles_executed",
    "engine.cycles_skipped": "kernel.cycles_skipped",
    "engine.skips": "kernel.skips",
    "engine.component_steps": "kernel.component_steps",
    "engine.component_steps_avoided": "kernel.component_steps_avoided",
    "engine.wakes": "kernel.wakes",
    "engine.events_run": "kernel.events_run",
    "backend.commit_cycles_batched": "kernel.commit_cycles_batched",
    "frontend.redirect_cycles_batched": "kernel.redirect_cycles_batched",
    "interconnect.busy_batched": "kernel.interconnect_busy_batched",
    "kernels.replay_walk_engaged": "kernel.replay_walk_engaged",
}

#: Units whose metrics are counts: they must repeat exactly between
#: passes of one commit and seed.
_COUNT_UNITS = ("count", "bytes", "cycles")


class StepFailed(RuntimeError):
    def __init__(self, step: str, code: int, stderr: str) -> None:
        super().__init__(f"{step} exited with {code}:\n{stderr}")
        self.code = code


class Steps:
    """Runs worker steps in fresh processes under one deadline."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def run(
        self, step: str, *extra: str, trace: int = 0, tree: Path | None = None
    ) -> tuple[dict, float, Path]:
        """One step; returns its JSON output, its host seconds from
        process start to exit, and the output's path."""
        self.count += 1
        out = self.work / f"{self.count:02d}-{step}.json"
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            step,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--out", str(out),
            "--trace", str(trace),
        ]
        if tree is not None:
            command += ["--tree", str(tree)]
        command += list(extra)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_OBS"] = "metrics" if trace else "off"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StepFailed(step, -1, "out of time before the step started")
        started = time.perf_counter()
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise StepFailed(step, -1, f"timed out after {exc.timeout:.0f} s") from None
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            raise StepFailed(step, done.returncode, done.stderr[-4000:])
        print(f"perfbench: {step} (trace {trace}) {elapsed:.2f} s", file=sys.stderr)
        return json.loads(out.read_text()), elapsed, out

    def tree(self, name: str) -> Path:
        path = self.work / name
        path.mkdir()
        return path


def source_digest() -> str:
    """SHA-256 over ``src/``: names the measured code in a checkout that
    is not a git repository."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def declared_metrics() -> tuple[dict, dict]:
    """Names and units of the ``end_to_end`` and ``per_layer`` metrics,
    as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in declared[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples above it, and its
    percentile; the maximum when that sample would not lie above the
    median (fewer than 22 samples)."""
    ordered = sorted(values)
    if len(ordered) < 22:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# -- measuring -----------------------------------------------------------------


def measure(
    steps: Steps, workload, setup_count: int, pass_traces: list[int], accuracy: bool
) -> tuple[dict, list[dict], list[tuple[float, float]]]:
    """Set-ups, one pass per entry of ``pass_traces`` (its trace level),
    then the check; returns the check, the passes in order, and the
    set-up times as (host seconds, seconds at the reference speed).

    Pass ``i`` runs on set-up ``i % setup_count``, right after that
    set-up, so the passes of a run spread over its whole length. The
    check also gets the warm workload's cold results.
    """
    setups, colds = [], []
    probe = reference.Reference()
    passes: dict[int, tuple[dict, str]] = {}
    spans = ROOT / ".perfbench" / f"spans-{workload.name}.json"
    for tree_index in range(setup_count):
        tree = steps.tree(f"tree{tree_index}")
        # The worker samples the host's speed once it runs; chunks on
        # either side cover the interpreter's start and exit.
        before = [probe.chunk()[0] for _ in range(SETUP_CHUNKS)]
        result, elapsed, out = steps.run("setup", tree=tree)
        after = [probe.chunk()[0] for _ in range(SETUP_CHUNKS)]
        host = elapsed - result["sampler_s"]
        setups.append((host, host * reference.speed([*before, *result["speeds"], *after])))
        if workload.warm:
            colds += ["--cold", str(out)]
        for index in range(tree_index, len(pass_traces), setup_count):
            trace = pass_traces[index]
            extra = ["--spans", str(spans)] if trace == 1 else []
            result, _, out = steps.run("pass", *extra, trace=trace, tree=tree)
            passes[index] = (result, str(out))
    ordered = [passes[index] for index in sorted(passes)]
    extra = ["--accuracy"] if accuracy else []
    checked, _, _ = steps.run("check", *extra, *colds, *(out for _, out in ordered))
    return checked, [result for result, _ in ordered], setups


def at_reference_speed(run: dict) -> tuple[float, list[float]]:
    """An untraced pass's wall time and design-point run times at the
    reference speed: host seconds times the mean speed the chunks
    sampled over the pass, and over each run (``reference.py``). A run
    too short to hold a chunk takes the pass's speed."""
    speeds = run["speeds"]
    pass_speed = reference.speed(speeds)
    runs = [
        seconds * (reference.speed(speeds[first:end]) if end > first else pass_speed)
        for seconds, (first, end) in zip(run["run_s"], run["run_chunks"])
    ]
    return run["wall_s"] * pass_speed, runs


def end_to_end(
    passes: list[dict], setups: list[tuple[float, float]]
) -> tuple[dict, dict, dict]:
    """The gated metrics, their notes, and the same times in host seconds."""
    scaled = [at_reference_speed(p) for p in passes]
    walls = [wall for wall, _ in scaled]
    runs = [seconds for _, run_s in scaled for seconds in run_s]
    host_runs = [seconds for p in passes for seconds in p["run_s"]]
    tail_s, tail_pct = tail(runs)
    metrics = {
        "wall_s": statistics.median(walls),
        "sim_minst_per_s": statistics.median(
            p["represented_instructions"] / wall / 1e6 for p, wall in zip(passes, walls)
        ),
        "setup_s": statistics.median(reference_s for _, reference_s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "run_p50_s": statistics.median(runs),
        "run_tail_s": tail_s,
        "store_mb": statistics.median(p["store_bytes"] for p in passes) / 1e6,
    }
    host = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "sim_minst_per_s": statistics.median(
            p["represented_instructions"] / p["wall_s"] / 1e6 for p in passes
        ),
        "setup_s": statistics.median(host_s for host_s, _ in setups),
        "run_p50_s": statistics.median(host_runs),
        "run_tail_s": tail(host_runs)[0],
    }
    notes = {
        "wall_s": f"median over passes: {len(walls)}",
        "setup_s": f"median over set-ups: {len(setups)}",
        "run_p50_s": f"{len(runs)} design-point runs",
        "run_tail_s": (
            f"p{math.floor(tail_pct)} of {len(runs)} runs, 10 above it"
            if tail_pct < 100
            else f"maximum: only {len(runs)} runs, too few for ten above a tail"
        ),
    }
    return metrics, notes, host


def print_end_to_end(workload, units, passes, setups, checked, failed, attempted) -> dict:
    """Print every end-to-end metric by name and unit; return the gated ones."""
    metrics, notes, host = end_to_end(passes, setups)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:18s} {metrics[name]:>14.6g} {unit}{note}")
    print("  times above are at the reference speed; in host seconds, ungated:")
    for name, value in host.items():
        print(f"  {'host ' + name:18s} {value:>14.6g} {units[name]}")
    worst = passes[0]["worst_cpc8"]
    print(f"  {'failed_frac':18s} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} runs)")
    print(f"  {'paper_gap_cpc8':18s} {abs(worst - PAPER_WORST_CPC8):>14.6g} ratio  "
          f"(worst cpc=8 ratio {worst:.4f} vs paper ~{PAPER_WORST_CPC8}; "
          "the model has no hardware reference)")
    if not workload.sampling:
        return metrics
    if "sampled_ratio_err" in checked:
        print(f"  {'sampled_ratio_err':18s} {checked['sampled_ratio_err']:>14.6g} ratio  "
              f"(cpc=8/baseline vs full detail on {','.join(workload.accuracy_benchmarks)})")
        print(f"  {'ci_miss_frac':18s} {checked['ci_miss_frac']:>14.6g} ratio  "
              f"({checked['ci_unreported']} points report no interval; "
              "such a point counts as a miss)")
    else:
        print("  sampled_ratio_err, ci_miss_frac: printed by --trace 1, which pays "
              "for the full-detail reruns")
    return metrics


# -- traced run ---------------------------------------------------------------


def layer_metrics(run: dict, plain: dict, checked: dict) -> dict:
    """The per-layer metrics of one traced pass; ``plain`` is the
    untraced pass of the same run."""
    layers = run["layers"]
    calls, self_s, counts = layers["calls"], layers["self_s"], layers["counts"]
    program = run["program"]
    intervals = {"detail": 0, "warm": 0, "skip": 0}
    for payload in run["results"].values():
        for kind, count in ((payload.get("sampling") or {}).get("intervals") or {}).items():
            intervals[kind] += count
    steps = program.get("kernel.component_steps", 0)
    avoided = program.get("kernel.component_steps_avoided", 0)
    metrics = {
        "trace.calls": calls.get("trace", 0),
        "trace.busy_s": self_s.get("trace", 0.0),
        "trace.records": counts.get("trace.records", 0),
        "trace.bytes_read": counts.get("trace.bytes_read", 0),
        "machine.builds": calls.get("machine", 0),
        "machine.build_s": self_s.get("machine", 0.0),
        **{f"sampling.intervals.{kind}": count for kind, count in intervals.items()},
        "sampling.slices": calls.get("sampling.slice", 0),
        "sampling.slice_s": self_s.get("sampling.slice", 0.0),
        "sampling.warm_intervals": counts.get("sampling.warm_intervals", 0),
        "sampling.warm_blocks": counts.get("sampling.warm_blocks", 0),
        "sampling.warm_s": self_s.get("sampling.warm", 0.0),
        "sampling.probe_warm_intervals": counts.get("sampling.probe_warm_intervals", 0),
        "sampling.ckpt_gets": calls.get("sampling.ckpt_get", 0),
        "sampling.ckpt_hits": counts.get("sampling.ckpt_hits", 0),
        "sampling.ckpt_misses": counts.get("sampling.ckpt_misses", 0),
        "sampling.ckpt_puts": calls.get("sampling.ckpt_put", 0),
        "sampling.ckpt_get_s": self_s.get("sampling.ckpt_get", 0.0),
        "sampling.ckpt_put_s": self_s.get("sampling.ckpt_put", 0.0),
        "sampling.ckpt_bytes": counts.get("sampling.ckpt_bytes", 0),
        "sampling.simulate_s": self_s.get("sampling.simulate", 0.0),
        "sampling.ratio_err": checked.get("sampled_ratio_err", 0.0),
        "sampling.ci_miss_frac": checked.get("ci_miss_frac", 0.0),
        "engine.runs": calls.get("engine", 0),
        "engine.sim_s": self_s.get("engine", 0.0),
        **{name: program.get(source, 0) for name, source in _KERNEL.items()},
        "engine.steps_avoided_frac": avoided / (steps + avoided) if steps + avoided else 0.0,
        "campaign.runs": program.get("campaign.runs.executed", 0),
        "campaign.retries": program.get("campaign.retries", 0),
        "campaign.run_s": self_s.get("campaign.run", 0.0),
        "campaign.result_get_s": self_s.get("campaign.result_get", 0.0),
        "campaign.result_put_s": self_s.get("campaign.result_put", 0.0),
        "experiments.self_s": run["wall_s"] - layers["top_s"],
        **run["sim"],
        "sim.paper_gap_cpc8": abs(run["worst_cpc8"] - PAPER_WORST_CPC8),
        "obs.trace_overhead": run["wall_s"] / plain["wall_s"] - 1.0,
    }
    return metrics


def counter_disagreements(run: dict) -> list[str]:
    """Where the spans' counts disagree with the program's own counters."""
    layers, program = run["layers"], run["program"]
    counts = layers["counts"]
    pairs = {
        "warming.intervals": counts.get("sampling.warm_intervals", 0)
        + counts.get("sampling.probe_warm_intervals", 0),
        "store.checkpoint.requests.hit": counts.get("sampling.ckpt_hits", 0),
        "store.checkpoint.requests.miss": counts.get("sampling.ckpt_misses", 0),
        "store.checkpoint.put_s.count": layers["calls"].get("sampling.ckpt_put", 0),
        "store.result.put_s.count": layers["calls"].get("campaign.result_put", 0),
    }
    return [
        f"{name} = {program.get(name, 0)}, spans counted {value}"
        for name, value in pairs.items()
        if program.get(name, 0) != value
    ]


def count_mismatches(units: dict, metric_sets: list[dict]) -> list[str]:
    """Count metrics that do not repeat exactly across passes."""
    names = [name for name, unit in units.items() if unit in _COUNT_UNITS]
    return [
        name
        for name in names
        if len({json.dumps(metrics.get(name)) for metrics in metric_sets}) > 1
    ]


def prediction_failures(name: str, metrics: dict) -> list[str]:
    predictions = json.loads((HERE / "predictions.json").read_text())
    failures = []
    for metric in predictions["expected_zero"].get(name, []):
        if metrics[metric] != 0:
            failures.append(f"{metric} = {metrics[metric]}, predicted 0")
    for metric in predictions["expected_positive"].get(name, []):
        if not metrics[metric] > 0:
            failures.append(f"{metric} = {metrics[metric]}, predicted > 0")
    return failures


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    end_units, layer_units = declared_metrics()
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    steps = Steps(workload.name, args.seed, work)
    try:
        if args.trace:
            # Full-detail accuracy reruns cost most of a timed pass, so
            # only the traced run pays for them.
            checked, passes, setups = measure(
                steps, workload, 1 if workload.warm else 3, [0, 1, 2], accuracy=True
            )
        else:
            count = workload.passes(args.seconds)
            checked, passes, setups = measure(
                steps,
                workload,
                workload.setups if workload.warm else max(workload.setups, count),
                [0] * count,
                accuracy=False,
            )
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if exc.code > 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = passes[0]["env"]
    attempted = sum(len(p["run_s"]) for p in passes)
    failed = checked["failed"]
    correct = failed == 0
    print(f"== perfbench {workload.name} seed={args.seed} trace={args.trace} ==")
    print(
        f"env: kernel_backend={env['kernel_backend']} python={env['python']} "
        f"nproc={env['nproc']} seed={args.seed} commit={git_commit() or 'n/a'} "
        f"src_sha256={source_digest()}"
    )
    print(
        f"workload: scale={workload.scale} "
        f"benchmarks={','.join(workload.benchmarks) if workload.benchmarks else 'all 24'} "
        f"sampling={workload.sampling or 'none'} "
        f"trace_source={'corpus (.trcz)' if workload.warm else 'synthesis'} jobs=1 machine=acmp"
    )
    print(f"check: reference-engine draws {', '.join(checked['drawn'])}")
    for reason in checked["reasons"]:
        print(f"check FAILED: {reason}")
    if args.trace:
        print("end-to-end, from the untraced pass:")
        print_end_to_end(workload, end_units, passes[:1], setups, checked, failed, attempted)
        metrics = layer_metrics(passes[1], passes[0], checked)
        profiled = layer_metrics(passes[2], passes[0], checked)
        metrics.update(
            (f"{module}.self_share", share) for module, share in passes[2]["shares"].items()
        )
        mismatched = count_mismatches(layer_units, [metrics, profiled])
        mismatched += [
            name for name, value in passes[0]["sim"].items()
            if value != metrics[name] and name not in mismatched
        ]
        print("per layer, from the traced pass (self_share from the profiled pass):")
        for name, unit in layer_units.items():
            value = metrics[name]
            shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
            print(f"  {name:36s} {shown} {unit}")
        disagreements = counter_disagreements(passes[1])
        for disagreement in disagreements:
            print(f"counter cross-check FAILED: {disagreement}")
        if not disagreements:
            print("counter cross-check: spans agree with warming.*, store.* counters")
        if mismatched:
            print(f"count determinism: NOT REPEATED across passes: {', '.join(mismatched)}")
        else:
            counted = sum(1 for unit in layer_units.values() if unit in _COUNT_UNITS)
            print(f"count determinism: all {counted} counts repeat exactly across the passes")
        predicted = prediction_failures(workload.name, metrics)
        for failure in predicted:
            print(f"prediction FAILED: {failure}")
        if not predicted:
            print("predictions: every predicted zero and non-zero holds")
        correct = correct and not predicted and not disagreements
        units = layer_units
    else:
        metrics = print_end_to_end(
            workload, end_units, passes, setups, checked, failed, attempted
        )
        units = end_units
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
