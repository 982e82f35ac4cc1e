"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

The runner imports ``repro`` from ``src/``, builds the workload's inputs
from ``--seed`` several times (the median is ``setup_s``), then repeats
the workload until ``--seconds`` would be exceeded (at least once) and
reports medians over the repetitions.  Every repetition runs the
workload's correctness checks, and every model-level value and count must
repeat exactly between repetitions and between runs with the same seed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` records spans around every call into a layer and prints the
per-layer metrics instead, with the spans written to
``perfbench/out/trace-<workload>-<seed>.json``.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: the box is small and shared, and a second thread
# fighting the interpreter for a core only adds noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 3
#: Largest share of a traced repetition that no layer span may cover.
COVERAGE_TOLERANCE = 0.05

#: Per-layer rates derived from other per-layer values.
DERIVED = {
    "simulation.requests_per_s": lambda v: v["simulation.requests"] / v["simulation.simulate_s"],
    "workloads.ingest_rows_per_s": lambda v: v["workloads.ingest_rows"] / v["workloads.ingest_s"],
    "cluster.replay_rps": lambda v: 2 * v["cluster.reads"]
    / (v["cluster.lru_replay_s"] + v["cluster.functional_replay_s"]),
    "erasure.write_mbps": lambda v: v["erasure.bytes"] / 2**20
    / (v["erasure.encode_s"] + v["erasure.cache_build_s"]),
    "erasure.read_mbps": lambda v: v["erasure.bytes"] / 2**20 / v["erasure.decode_s"],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def layer_values(tracer, root, names):
    """Span-derived per-layer values of one traced repetition."""
    values = {}
    for name in names:
        if name.endswith(".self_s"):
            continue
        spans = tracer.named(name[: -len("_s")], within=root) if name.endswith("_s") else []
        if spans:
            values[name] = sum(span.duration for span in spans)
    for layer, seconds in tracer.self_times(root).items():
        values[f"{layer}.self_s"] = seconds
    return values


def source_digest():
    """Digest of the program and benchmark sources: runs of different code
    never compare fingerprints."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(reps, workload, seed, failures):
    """Model-level values must repeat exactly across repetitions and runs."""
    reference = reps[0].outcome
    for index, rep in enumerate(reps[1:], start=1):
        for key, value in rep.outcome.items():
            if value != reference.get(key):
                failures.append(f"nondeterministic {key}: rep 0 {reference.get(key)!r}, rep {index} {value!r}")
    path = OUT / "fingerprints" / f"{workload}-{seed}-{source_digest()}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        for key, value in reference.items():
            if key in previous and previous[key] != value:
                failures.append(f"nondeterministic {key}: earlier run {previous[key]!r}, now {value!r}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(reference, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from tracing import NULL_TRACER, Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - STARTED
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = Tracer(f"{args.workload}-{args.seed}") if args.trace else NULL_TRACER
    per_layer_names = [metric["name"] for metric in spec["per_layer"]]
    failures = []
    reps, rep_times, rep_layers = [], [], []

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        setup_times = []
        setup_layers = []
        for _ in range(SETUP_REPEATS):
            workload = WORKLOADS[args.workload]()
            gc.collect()
            with tracer.span("setup") as root:
                started = time.perf_counter()
                workload.setup(args.seed, Path(workdir), tracer)
                setup_times.append(time.perf_counter() - started)
            if tracer.enabled:
                setup_layers.append(layer_values(tracer, root, ["workloads.model_s"]))

        measure_start = time.perf_counter()
        while True:
            gc.collect()
            try:
                with tracer.span("rep") as root:
                    started = time.perf_counter()
                    rep = workload.run(tracer)
                    rep_times.append(time.perf_counter() - started)
            except Exception:
                traceback.print_exc()
                failures.append(f"{args.workload} raised during repetition {len(reps)}")
                break
            reps.append(rep)
            print(f"repetition {len(reps)}: {rep_times[-1]:.3f} s", file=sys.stderr)
            if tracer.enabled:
                rep_layers.append(layer_values(tracer, root, per_layer_names))
            elapsed = time.perf_counter() - measure_start
            if elapsed + rep_times[-1] > args.seconds:
                break

        extras = {}
        if reps and tracer.enabled and hasattr(workload, "traced_extras"):
            timings = {key: median([layers[key] for layers in rep_layers]) for key in rep_layers[0]}
            try:
                extras = workload.traced_extras(tracer, reps, timings)
            except Exception:
                traceback.print_exc()
                failures.append(f"{args.workload} raised during the traced extras")

    attempted = sum(rep.attempted for rep in reps) or 1
    for rep in reps:
        failures.extend(rep.failures)
    if reps:
        check_determinism(reps, args.workload, args.seed, failures)
    failed_reads = sum(rep.failed_reads for rep in reps)
    unit_times = [unit for rep, seconds in zip(reps, rep_times) for unit in (rep.unit_times or [seconds])]

    if not args.trace:
        metrics = {
            "setup_s": import_s + median(setup_times),
            "run_s": median(unit_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - (len(failures) + failed_reads) / attempted,
            "objective": reps[0].outcome["objective"] if reps else 0.0,
            "cache_frac": reps[0].outcome["cache_frac"] if reps else 0.0,
        }
        declared = spec["end_to_end"]
    else:
        metrics = dict(reps[0].outcome) if reps else {}
        for key in {key for rep in reps for key in rep.timing}:
            metrics[key] = median([rep.timing[key] for rep in reps if key in rep.timing])
        for key in {key for layers in rep_layers for key in layers}:
            metrics[key] = median([layers.get(key, 0.0) for layers in rep_layers])
        metrics["workloads.model_s"] = median([v.get("workloads.model_s", 0.0) for v in setup_layers])
        metrics.update(extras)
        for name, derive in DERIVED.items():
            try:
                metrics[name] = derive(metrics)
            except (KeyError, ZeroDivisionError):
                pass
        uncovered = [layers.get("rep.self_s", 0.0) / seconds for layers, seconds in zip(rep_layers, rep_times)]
        metrics["trace.run_s"] = median(unit_times)
        metrics["trace.uncovered_frac"] = median(uncovered)
        if uncovered and max(uncovered) > COVERAGE_TOLERANCE:
            failures.append(f"layer spans leave {max(uncovered):.1%} of a repetition uncovered "
                            f"(tolerance {COVERAGE_TOLERANCE:.0%}): a span is missing")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        declared = spec["per_layer"]
        # Only declared names are printed; a layer idle in this workload reads 0.
        metrics = {name: value for name, value in metrics.items() if name in per_layer_names}

    result = {}
    for metric in declared:
        value = metrics.get(metric["name"], 0.0)
        if not math.isfinite(value):
            failures.append(f"{metric['name']} is not finite")
            value = 0.0
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:32s} {value:>16.6g} {metric['unit']}")
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    correct = not failures and not failed_reads and bool(reps)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures) + failed_reads, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
