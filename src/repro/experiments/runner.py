"""Command-line runner for the declarative experiment registry.

``python -m repro.experiments <name>`` (or the ``sprout-experiments``
console script) regenerates any table or figure of the paper through the
:mod:`repro.api` experiment registry.  Each experiment carries per-scale
parameter sets: ``--scale fast`` runs a reduced but shape-preserving
configuration in seconds; ``--scale paper`` runs the full configuration of
the paper (1000 files, 1800-second benchmarks), which takes considerably
longer.  Uniform flags forwarded to every experiment that supports them:

* ``--engine {batch,event,...}`` -- override the simulation engine,
* ``--seed N`` -- override the experiment's root seed,
* ``--fault NAME`` / ``--fault-param KEY=VALUE`` -- inject a registered
  fault schedule into experiments that replay the emulated cluster
  (``repro.api.list_faults()``),
* ``--controller NAME`` / ``--controller-param KEY=VALUE`` -- drive the
  workload stream through a registered online controller in experiments
  that support one (``repro.api.list_controllers()``),
* ``--jobs N`` -- run sweep points on N worker processes (default: all
  cores; results are bit-identical to ``--jobs 1``),
* ``--cache`` / ``--no-cache`` -- serve per-point results from the
  content-addressed cache under ``~/.cache/repro`` (``REPRO_CACHE_DIR``
  overrides the directory),
* ``--progress`` -- report completed/total sweep points on stderr,
* ``--json`` -- emit the machine-readable result instead of the text report,
* ``--list`` -- show every registered experiment, solver, engine, baseline,
  cache policy, fault generator, controller and workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, Optional, Tuple

# Importing the package registers every experiment module with the registry.
import repro.experiments  # noqa: F401  (self-registration side effect)
from repro.api.registry import (
    BASELINES,
    CONTROLLERS,
    ENGINES,
    EXPERIMENTS as EXPERIMENT_REGISTRY,
    FAULTS,
    POLICIES,
    SOLVERS,
    WORKLOADS,
)
from repro.api.serialize import json_dumps


def run_experiment(
    name: str,
    scale: str = "fast",
    *,
    engine: Optional[str] = None,
    seed: Optional[int] = None,
    workload: Optional[str] = None,
    workload_params: Optional[Dict[str, object]] = None,
    faults: Optional[str] = None,
    fault_params: Optional[Dict[str, object]] = None,
    controller: Optional[str] = None,
    controller_params: Optional[Dict[str, object]] = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    progress: Optional[bool] = None,
    as_json: bool = False,
) -> str:
    """Run one registered experiment and return its formatted report.

    ``workload``/``workload_params`` select a registered workload for
    experiments that take one (the ``scenario`` experiment; dropped
    otherwise, like ``engine``/``seed``).  ``faults``/``fault_params``
    inject a registered fault schedule into experiments that replay the
    emulated cluster (same drop rule); ``controller``/``controller_params``
    drive the workload stream through a registered online controller (same
    drop rule).  ``jobs`` fans sweep points out over that many worker
    processes, ``cache`` serves repeated points from the content-addressed
    result cache and ``progress`` reports completed/total points on stderr
    (all three follow the same drop rule).  With ``as_json=True`` the
    report is a JSON document carrying the full typed result; otherwise it
    is the experiment's text rendering under a timing header.
    """
    spec = EXPERIMENT_REGISTRY.get(name)
    started = time.time()
    result = spec.run(
        scale=scale,
        engine=engine,
        seed=seed,
        workload=workload,
        workload_params=workload_params or None,
        faults=faults,
        fault_params=fault_params or None,
        controller=controller,
        controller_params=controller_params or None,
        jobs=jobs,
        cache=cache,
        progress=progress,
    )
    elapsed = time.time() - started
    if as_json:
        return json_dumps(
            {
                "experiment": name,
                "title": spec.title,
                "scale": scale,
                # Uniform flags the experiment does not accept are dropped by
                # spec.run; null them here so the payload never claims an
                # engine/seed the run did not actually use.
                "engine": engine if engine is not None and spec.accepts("engine") else None,
                "seed": seed if seed is not None and spec.accepts("seed") else None,
                "elapsed_seconds": elapsed,
                "result": result,
            }
        )
    header = f"=== {name}: {spec.title} (scale={scale}, {elapsed:.1f}s) ==="
    return f"{header}\n{spec.format(result)}\n"


def parse_param_pairs(
    pairs: Optional[list], flag: str = "--workload-param"
) -> Dict[str, object]:
    """Parse repeated ``KEY=VALUE`` flags into a parameter dict.

    Values are JSON-decoded when possible (``amplitude=0.5`` -> float,
    ``hot=[1,2]`` -> list) and kept as plain strings otherwise
    (``path=trace.csv``).  ``flag`` only names the offending option in the
    error message.
    """
    params: Dict[str, object] = {}
    for pair in pairs or []:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ValueError(f"{flag} expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def parse_workload_params(pairs: Optional[list]) -> Dict[str, object]:
    """Parse repeated ``--workload-param KEY=VALUE`` flags (see above)."""
    return parse_param_pairs(pairs, "--workload-param")


def _section_lines(entries) -> list:
    """Sorted, de-duplicated ``name  description`` lines for one section."""
    unique = {}
    for name, description in entries:
        unique.setdefault(name, description)
    if not unique:
        return ["  <none>"]
    width = max(len(name) for name in unique)
    return [
        f"  {name:<{width}}  {unique[name]}".rstrip()
        for name in sorted(unique)
    ]


def format_listing() -> str:
    """Render every registered component as the ``--list`` report.

    Each section is sorted and de-duplicated by name; experiments show
    their one-line description from the :class:`ExperimentSpec` next to
    the title.
    """
    lines = ["Registered experiments:"]
    lines.extend(
        _section_lines(
            (
                name,
                f"{spec.title} -- {spec.description}" if spec.description else spec.title,
            )
            for name, spec in EXPERIMENT_REGISTRY.items()
        )
    )
    sections = (
        ("solvers", SOLVERS),
        ("engines", ENGINES),
        ("baselines", BASELINES),
        ("cache policies", POLICIES),
        ("fault generators", FAULTS),
        ("controllers", CONTROLLERS),
    )
    for label, registry in sections:
        lines.append("")
        lines.append(f"Registered {label}:")
        lines.extend(
            _section_lines(
                (name, spec.description) for name, spec in registry.items()
            )
        )
    # Workloads additionally show their kind (stationary / non-stationary /
    # trace), so the zoo is legible at a glance.
    lines.append("")
    lines.append("Registered workloads:")
    lines.extend(
        _section_lines(
            (name, f"[{spec.kind}] {spec.description}".rstrip())
            for name, spec in WORKLOADS.items()
        )
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line parser."""
    parser = argparse.ArgumentParser(
        prog="sprout-experiments",
        description="Regenerate the tables and figures of the Sprout paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=EXPERIMENT_REGISTRY.names() + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument(
        "--scale",
        choices=["fast", "paper"],
        default="fast",
        help="'fast' runs a reduced shape-preserving configuration; "
        "'paper' runs the full-size configuration",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES.names(),
        default=None,
        help="override the simulation engine for experiments that simulate",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the experiment's root random seed",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOADS.names(),
        default=None,
        help="registered workload for experiments that take one "
        "(the 'scenario' experiment)",
    )
    parser.add_argument(
        "--workload-param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        dest="workload_params",
        help="workload builder parameter (repeatable); values are parsed "
        "as JSON with plain-string fallback, e.g. "
        "--workload-param path=trace.csv --workload-param amplitude=0.5",
    )
    parser.add_argument(
        "--fault",
        choices=FAULTS.names(),
        default=None,
        dest="faults",
        help="registered fault schedule injected into experiments that "
        "replay the emulated cluster (the 'scenario', 'fig12' and "
        "'fig13' experiments)",
    )
    parser.add_argument(
        "--fault-param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        dest="fault_params",
        help="fault generator parameter (repeatable); values are parsed "
        "as JSON with plain-string fallback, e.g. "
        "--fault-param crash_rate=1e-4 --fault-param downtime_ms=30000",
    )
    parser.add_argument(
        "--controller",
        choices=CONTROLLERS.names(),
        default=None,
        help="registered online controller driving the workload stream in "
        "experiments that support one (the 'scenario' and 'fig14' "
        "experiments)",
    )
    parser.add_argument(
        "--controller-param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        dest="controller_params",
        help="controller builder parameter (repeatable); values are parsed "
        "as JSON with plain-string fallback, e.g. "
        "--controller-param window=300 --controller-param churn_budget=64",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep-style experiments (default: all "
        "cores; results are bit-identical to --jobs 1)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="serve repeated sweep points from the content-addressed "
        "result cache under ~/.cache/repro (REPRO_CACHE_DIR overrides "
        "the directory); --no-cache forces fresh solves",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        default=None,
        help="report completed/total sweep points on stderr while running",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable JSON result instead of the text report",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_components",
        help="list every registered experiment, solver, engine, baseline, "
        "cache policy, fault generator, controller and workload",
    )
    return parser


def main(argv=None) -> int:
    """Entry point of the ``sprout-experiments`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_components:
        print(format_listing())
        return 0
    if args.experiment is None:
        parser.error("an experiment name (or 'all', or --list) is required")
    try:
        workload_params = parse_workload_params(args.workload_params)
        fault_params = parse_param_pairs(args.fault_params, "--fault-param")
        controller_params = parse_param_pairs(
            args.controller_params, "--controller-param"
        )
    except ValueError as error:
        parser.error(str(error))
    names = EXPERIMENT_REGISTRY.names() if args.experiment == "all" else [args.experiment]
    reports = [
        run_experiment(
            name,
            args.scale,
            engine=args.engine,
            seed=args.seed,
            workload=args.workload,
            workload_params=workload_params,
            faults=args.faults,
            fault_params=fault_params,
            controller=args.controller,
            controller_params=controller_params,
            jobs=args.jobs,
            cache=args.cache,
            progress=args.progress,
            as_json=args.as_json,
        )
        for name in names
    ]
    if args.as_json and len(reports) > 1:
        # Keep 'all --json' a single valid JSON document.
        print("[\n" + ",\n".join(reports) + "\n]")
    else:
        for report in reports:
            print(report)
    return 0


def _legacy_runner(name: str) -> Callable[[str], str]:
    def run(scale: str) -> str:
        spec = EXPERIMENT_REGISTRY.get(name)
        return spec.format(spec.run(scale=scale))

    return run


#: Backwards-compatible view of the registry under the pre-1.1 public name:
#: name -> (description, runner), exactly the dict this module used to hold.
EXPERIMENTS: Dict[str, Tuple[str, Callable[[str], str]]] = {
    name: (spec.title, _legacy_runner(name))
    for name, spec in EXPERIMENT_REGISTRY.items()
}


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
