"""One benchmark step in a fresh interpreter: set-up, timed pass or check.

``run.py`` starts this script once per step, so no pass inherits the
per-process memos of another (``repro.campaign.runner._traces_cached``,
``_checkpoint_store_cached``, the ``CheckpointStore`` payload memo, the
transient-cycle memo and ``ExperimentContext``'s own result memo).
Each step writes one JSON document to ``--out``.

    python3 perfbench/worker.py setup --workload W --seed N --tree DIR --out F
    python3 perfbench/worker.py pass  --workload W --seed N --tree DIR --out F [--trace 0|1|2]
    python3 perfbench/worker.py check --workload W --seed N --out F PASS.json...

``--trace 1`` wraps the layers' entry points in spans (``layers.py``)
and records the program's own counters (``REPRO_OBS=metrics``, set by
the caller); ``--trace 2`` also runs the pass under ``cProfile``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import layers
import reference
from workloads import REFERENCE_DRAWS, WORKLOADS

#: Exit status when the kernel backend is not the pure-Python one a
#: clean checkout selects.
WRONG_BACKEND = 3


def environment() -> dict:
    from repro.kernels import backend_name

    return {
        "kernel_backend": backend_name(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def require_pure_backend() -> dict:
    env = environment()
    if env["kernel_backend"] != "py":
        print(
            f"refusing to run: kernel backend is {env['kernel_backend']!r}, "
            "but a clean checkout runs the pure-Python kernels (remove the "
            "built repro/kernels/_native*.so and unset REPRO_KERNELS)",
            file=sys.stderr,
        )
        sys.exit(WRONG_BACKEND)
    return env


def context(workload, seed: int, tree: Path | None, *, capture: bool = False):
    from repro.experiments.common import ExperimentContext

    kwargs = {}
    if workload.benchmarks is not None:
        kwargs["benchmarks"] = list(workload.benchmarks)
    if tree is not None:
        kwargs["cache_dir"] = tree / "store"
        if workload.warm:
            corpus = tree / "corpus"
            kwargs["capture_traces" if capture else "event_dir"] = corpus
    return ExperimentContext(
        scale=workload.scale,
        seed=seed,
        jobs=1,
        machine="acmp",
        sampling=workload.sampling,
        **kwargs,
    )


def result_key(benchmark: str, config) -> str:
    return f"{benchmark}|{config.label()}"


def comparable(payload: dict) -> dict:
    """A result payload without its checkpoint traffic, which differs
    between a cold pass, a warm pass and a run with no store at all."""
    sampling = payload.get("sampling")
    if sampling is not None and "checkpoints" in sampling:
        payload = dict(payload, sampling={k: v for k, v in sampling.items() if k != "checkpoints"})
    return payload


def figure_results(ctx) -> dict:
    """Every design point of the figure, serialized."""
    from repro.experiments import fig07_naive_sharing as fig07
    from repro.machine.serialization import result_to_dict

    return {
        result_key(name, config): result_to_dict(ctx.run(name, config))
        for name, config in fig07.design_points(ctx)
    }


def discard_results(store: Path) -> None:
    """Empty the result store but keep its checkpoint tree."""
    if not store.is_dir():
        return
    for entry in store.iterdir():
        if entry.name == "checkpoints":
            continue
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def simulated_counts(results: dict) -> dict:
    """Simulated-time totals over the figure's runs (never host time)."""
    from repro.backend.backend import STALL_CAUSES

    counts = {
        "sim.cycles": 0,
        "sim.committed": 0,
        "sim.icache_misses": 0,
        "sim.bus_wait_cycles": 0,
    }
    counts.update({f"sim.stall_cycles.{cause}": 0 for cause in STALL_CAUSES})
    for payload in results.values():
        counts["sim.cycles"] += payload["cycles"]
        for core in payload["cores"]:
            counts["sim.committed"] += core["committed"]
            for cause, cycles in core["stall_cycles"].items():
                counts[f"sim.stall_cycles.{cause}"] += cycles
        for group in payload["cache_groups"]:
            counts["sim.icache_misses"] += group["misses"]
            counts["sim.bus_wait_cycles"] += group["bus_wait_cycles"]
    return counts


def represented_instructions(payload: dict) -> int:
    sampling = payload.get("sampling")
    if sampling is not None:
        return sampling["total_instructions"]
    return sum(core["committed"] for core in payload["cores"])


def flatten_metrics(payload) -> dict:
    """A metrics payload as ``name[.outcome|.kind]`` -> summed value."""
    flat: dict[str, float] = {}
    for row in payload or []:
        labels = row.get("labels", {})
        name = row["name"]
        for label in ("outcome", "kind"):
            if label in labels:
                name += "." + labels[label]
        if row["type"] == "histogram":
            flat[name + ".count"] = flat.get(name + ".count", 0) + row["count"]
            flat[name + ".total"] = flat.get(name + ".total", 0.0) + row["total"]
        else:
            flat[name] = flat.get(name, 0) + row["value"]
    return flat


# -- steps ------------------------------------------------------------------


def setup(args, workload) -> dict:
    """Prepare one tree for timed passes.

    For ``fig07-sampled-warm`` that is the workload's whole set-up: a cold
    sampled pass that captures the traces as a ``.trcz`` corpus and
    fills the checkpoint tree, after which the result store is
    discarded. The cold pass's results are kept for the check. A
    sampler times the host's speed throughout (``reference.py``).
    """
    sampler = reference.Sampler()
    sampler.start()
    from repro.campaign.store import ResultStore

    env = require_pure_backend()
    tree = Path(args.tree)
    ResultStore(tree / "store")
    out = {"env": env}
    if workload.warm:
        from repro.experiments import fig07_naive_sharing as fig07

        ctx = context(workload, args.seed, tree, capture=True)
        fig07.run(ctx)
        out["results"] = figure_results(ctx)
        discard_results(tree / "store")
    sampler.stop()
    out["speeds"] = sampler.speeds
    out["sampler_s"] = sampler.spent_s
    return out


def timed_pass(args, workload) -> dict:
    from repro.experiments import fig07_naive_sharing as fig07

    env = require_pure_backend()
    tree = Path(args.tree)
    store = tree / "store"
    discard_results(store)
    run_s: list[float] = []
    run_chunks: list[tuple[int, int]] = []
    tracer = reports = profile = sampler = None
    if args.trace:
        tracer, reports = layers.LayerTracer(), []
        layers.install(tracer, reports)
    else:
        # Only untraced passes sample the host's speed: chunks inside a
        # traced pass would land in the layers' spans.
        sampler = reference.Sampler()
    layers.install_run_timer(run_s, sampler, run_chunks)
    ctx = context(workload, args.seed, tree)
    bytes_before = tree_bytes(store)
    if args.trace == 2:
        import cProfile

        profile = cProfile.Profile()
    if sampler is not None:
        spent = sampler.spent_s
        sampler.start()
    started = time.perf_counter()
    figure = profile.runcall(fig07.run, ctx) if profile is not None else fig07.run(ctx)
    if sampler is not None:
        sampler.stop()
    wall = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if sampler is not None:
        # The chunks ran inside the timed region and the sampler's
        # buffer stays resident; the pass's own figures exclude both.
        wall -= sampler.spent_s - spent
        rss_mb -= len(sampler.reference.memory) / 2**20
    results = figure_results(ctx)
    out = {
        "env": env,
        "wall_s": wall,
        "run_s": run_s,
        "peak_rss_mb": rss_mb,
        "store_bytes": tree_bytes(store) - bytes_before,
        "represented_instructions": sum(
            represented_instructions(p) for p in results.values()
        ),
        "worst_cpc8": figure.summary["worst_cpc8_ratio"],
        "results": results,
        "sim": simulated_counts(results),
    }
    if sampler is not None:
        out["speeds"] = sampler.speeds
        out["run_chunks"] = run_chunks
    if tracer is not None:
        from repro.obs.recorder import metrics_registry

        registry = metrics_registry()
        program = flatten_metrics(registry.to_payload() if registry else [])
        for report in reports:
            for name, value in flatten_metrics(report.metrics).items():
                program[name] = program.get(name, 0) + value
        out["layers"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "top_s": tracer.top_s,
        }
        out["program"] = program
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.chrome_trace()))
    if profile is not None:
        import pstats

        out["shares"] = layers.module_shares(pstats.Stats(profile))
    return out


def check(args, workload) -> dict:
    """Correctness outside the timed region.

    * Every pass of the run must give the same results.
    * Design points drawn from the seed are rerun on the reference
      engine (``cycle_skip=False``, no checkpoint store) and must match
      bit for bit.
    * ``fig07-sampled-warm`` passes must equal the set-up's cold pass
      and must not miss in the checkpoint tree.
    * With ``--accuracy``, on the sampled workloads, the baseline and
      cpc=8 points of ``accuracy_benchmarks`` run at full detail to
      score the sampled cpc=8/baseline ratio and the sampled 95 %
      intervals.

    Returns ``failed`` (failed design-point checks, at most one per run
    of a pass), the reasons, and the accuracy figures.
    """
    from repro.experiments import fig07_naive_sharing as fig07
    from repro.machine.serialization import result_to_dict
    from repro.machine.simulator import simulate
    from repro.sampling import simulate_sampled
    from repro.sampling.plan import resolve_plan
    from repro.trace.synthesis import synthesize_benchmark

    require_pure_backend()
    passes = [json.loads(Path(path).read_text()) for path in args.passes]
    cold = [json.loads(Path(path).read_text())["results"] for path in args.cold]
    ctx = context(workload, args.seed, None)
    configs = {
        result_key(name, config): (name, config)
        for name, config in fig07.design_points(ctx)
    }
    plan = resolve_plan(workload.sampling)
    traces: dict = {}

    def traces_for(name, config):
        key = (name, config.core_count)
        if key not in traces:
            traces[key] = synthesize_benchmark(
                name, thread_count=config.core_count, scale=workload.scale, seed=args.seed
            )
        return traces[key]

    bad: dict[tuple[int, str], str] = {}
    reference = passes[0]["results"] if passes else {}
    drawn = random.Random(args.seed).sample(sorted(configs), REFERENCE_DRAWS)
    for key in drawn:
        name, config = configs[key]
        rerun = comparable(
            result_to_dict(
                simulate_sampled(config, traces_for(name, config), plan, cycle_skip=False)
            )
        )
        for index, run in enumerate(passes):
            if comparable(run["results"].get(key, {})) != rerun:
                bad.setdefault((index, key), "differs from the reference engine")
    for index, run in enumerate(passes):
        results = run["results"]
        for key in configs:
            payload = results.get(key)
            if payload is None:
                bad.setdefault((index, key), "missing")
                continue
            if comparable(payload) != comparable(reference.get(key, {})):
                bad.setdefault((index, key), "differs between passes")
            for cold_results in cold:
                if comparable(payload) != comparable(cold_results.get(key, {})):
                    bad.setdefault((index, key), "warm result differs from the cold pass")
            if workload.warm:
                misses = (payload.get("sampling") or {}).get("checkpoints", {}).get("misses", 0)
                if misses:
                    bad.setdefault((index, key), f"{misses} checkpoint misses")
    out = {
        "failed": len(bad),
        "reasons": sorted(f"pass {i}: {key}: {why}" for (i, key), why in bad.items()),
        "drawn": drawn,
    }
    if args.accuracy and workload.accuracy_benchmarks and reference:
        errors, covered, unreported = [], [], 0
        base_config = ctx.model.baseline_config()
        cpc8_config = ctx.model.shared_config(
            cores_per_cache=8, icache_kb=32, bus_count=1, line_buffers=4
        )
        for name in workload.accuracy_benchmarks:
            full, sampled = [], []
            for config in (base_config, cpc8_config):
                detail = simulate(config, traces_for(name, config))
                estimate = reference[result_key(name, config)]
                full.append(detail.cycles)
                sampled.append(estimate["cycles"])
                half = (estimate.get("sampling") or {}).get("errors", {}).get("cycles")
                unreported += half is None
                # No reported interval cannot cover the full-detail value.
                covered.append(
                    half is not None
                    and abs(estimate["cycles"] - detail.cycles) <= half * estimate["cycles"]
                )
            exact = full[1] / full[0]
            errors.append(abs(sampled[1] / sampled[0] - exact) / exact)
        out["sampled_ratio_err"] = max(errors)
        out["ci_miss_frac"] = 1.0 - sum(covered) / len(covered)
        out["ci_unreported"] = f"{unreported} of {len(covered)}"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "pass", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tree")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1, 2))
    parser.add_argument("--spans", help="write the pass's spans here (--trace 1|2)")
    parser.add_argument("--accuracy", action="store_true",
                        help="score the sampled figure against full-detail runs")
    parser.add_argument("--cold", action="append", default=[],
                        help="set-up output whose results warm passes must equal")
    parser.add_argument("passes", nargs="*", help="pass outputs to check")
    args = parser.parse_intermixed_args(argv)
    workload = WORKLOADS[args.workload]
    step = {"setup": setup, "pass": timed_pass, "check": check}[args.step]
    out = step(args, workload)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
