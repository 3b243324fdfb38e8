"""Benchmark of the tgmc checker, end to end and layer by layer.

Usage (from the root of a checkout; no install needed, ``src/`` is used):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

A run repeats whole rounds of one workload (see ``workloads.py``) until
``--seconds`` seconds have passed, so it makes at least one round.  A round
runs every manifest of the workload through ``tgmc.harness.run_manifest``
with one worker.  After each round, outside the timed region, every verdict
is checked by ``verify.py``.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
the layers are traced (``tracing.py``) and the run reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when two rounds of the run disagree on a verdict or a state count.

``--workload all`` runs each workload in a process of its own and prints a
table.  The workloads are fixed instance lists: ``--seed`` is recorded but
changes no input.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

from tracing import Tracer
from workloads import BENCH_DIR, OUT_DIR, SRC, WORKLOADS, import_tgmc

SETUP_PROBES_PER_BURST = 10
PARSE_REPEATS = 7
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def probe_setup(workload) -> float:
    """Seconds a fresh interpreter takes to set up (see ``setup_probe.py``)."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
               str(SRC)] + [str(path) for path in workload.manifests]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)


def probe_burst(workload) -> list[float]:
    return [probe_setup(workload) for _ in range(SETUP_PROBES_PER_BURST)]


def measure_parse(tgmc) -> float:
    """Median milliseconds to parse the four builtin models."""
    texts = [(SRC / "tgmc" / "models" / f"{name}.tg").read_text(encoding="utf-8")
             for name in tgmc.BUILTIN_NAMES]
    samples = []
    for _ in range(PARSE_REPEATS):
        started = time.perf_counter()
        for text in texts:
            tgmc.parse_model(text)
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def run_round(tgmc, workload):
    """Run the workload's manifests once; returns (records of the checks
    that ran, wall seconds)."""
    gc.collect()
    records = []
    started = time.perf_counter()
    for path in workload.manifests:
        records += tgmc.run_manifest(str(path), jobs=1,
                                     symmetry=workload.symmetry)
    wall = time.perf_counter() - started
    return [r for r in records if r.verdict != "skip"], wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    tgmc = import_tgmc()
    from verify import Verifier

    for model in tgmc.BUILTIN_NAMES:
        tgmc.load_builtin(model)
    parse_ms = measure_parse(tgmc) if trace else None
    verifier = Verifier(workload)
    tracer = Tracer()
    if trace:
        tracer.install(tgmc)

    rounds, walls, layers, setups = 0, [], [], []
    if not trace:
        probe_setup(workload)   # a warm-up that fills the byte-code cache
        setups = probe_burst(workload)
    attempted = failed = 0
    failures: dict[str, str] = {}
    outcomes = None
    correct = True
    started = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - started < seconds:
            tracer.reset()
            records, wall = run_round(tgmc, workload)
            if trace:
                layers.append(tracer.layer_metrics())
                round_spans = tracer.spans()
            rounds += 1
            walls.append(wall)
            attempted += len(records)
            for record in records:
                reason = verifier.failure(record)
                if reason is not None:
                    failed += 1
                    failures[f"{record.case.model} [{record.case.params}] "
                             f"{record.case.spec}"] = reason
            signature = [(r.case, r.verdict, r.states_stored, r.transitions)
                         for r in records]
            if outcomes is None:
                outcomes = signature
            elif signature != outcomes:
                correct = False
            print(f"round {rounds}: {len(records)} checks in {wall:.3f} s",
                  flush=True)
            # Set-up is probed in a burst before the first round and after
            # every round, so that its samples span the run as the rounds do.
            if not trace:
                setups += probe_burst(workload)
    finally:
        tracer.uninstall()

    for label, reason in failures.items():
        print(f"FAILED {label}: {reason}")
    # A shared machine runs slow and fast for spells longer than a round;
    # over a run's few rounds the mean varied less between runs than the
    # median or the minimum did.
    wall_s = statistics.fmean(walls)
    if trace:
        metrics = {"dsl.parse_ms": parse_ms}
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            # Counts repeat in every round; keep them whole numbers.
            metrics[key] = (statistics.median_low(values)
                            if isinstance(values[0], int)
                            else statistics.median(values))
        units = {key: layer_unit(key) for key in metrics}
        print(f"traced wall_s {wall_s:.4f} s over {rounds} round(s)")
    else:
        metrics = {
            # The machine's other load comes in spells of seconds that slow
            # a probe by up to half.  Over the 30 to 70 probes of a run,
            # their median varied less between runs than their minimum or
            # a low quantile did.
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    out = {"workload": name, "seed": seed, "rounds": rounds,
           "wall_s_per_round": walls, "setup_s_samples": setups,
           "result": result}
    if trace:
        out["last_round_spans"] = round_spans
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}{'.traced' if trace else ''}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return result


def run_all(args) -> int:
    """Each workload in a process of its own, then a table of the results."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
            return 2
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<18} {'metric':<28} {'value':>12}  unit")
    for name, result in results.items():
        print(f"{name:<18} {'attempted / failed':<28} "
              f"{result['attempted']:>6} / {result['failed']}"
              f"{'' if result['correct'] else '  (rounds disagree)'}")
        for key, metric in result["metrics"].items():
            print(f"{name:<18} {key:<28} {metric['value']:>12.4f}  {metric['unit']}")
    print(json.dumps(results))
    ok = all(r["correct"] and not r["failed"] for r in results.values())
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_tgmc()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
