"""Declarative experiment registry: one :class:`ExperimentSpec` per figure.

Each experiment module in :mod:`repro.experiments` decorates its ``run``
function with :func:`register_experiment`, supplying a title and per-scale
parameter sets.  The CLI (``python -m repro.experiments``), the benchmark
suite and tests all execute experiments through the registry, so the
``_run_figX(scale)`` wrapper layer the runner used to carry is gone:

    @register_experiment(
        "fig4",
        title="Latency vs cache size (Fig. 4)",
        scales={"fast": {"num_files": 100}},
    )
    def run(cache_sizes=None, num_files=1000, ...):
        ...
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.api.registry import EXPERIMENTS
from repro.exceptions import RegistryError


@dataclass
class ExperimentSpec:
    """A registered experiment: runner, title and per-scale parameter sets.

    Attributes
    ----------
    name:
        Registry name (``"fig3"`` ... ``"tables"``).
    title:
        Human-readable description shown by ``--list`` and report headers.
    runner:
        The experiment's ``run`` function.
    module:
        Dotted module path; ``format_result`` is resolved from it lazily.
    scales:
        Mapping from scale name to the keyword arguments of that scale
        (``"paper"`` is the full-size configuration, usually ``{}``).
    """

    name: str
    title: str
    runner: Callable[..., Any]
    module: str
    scales: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        # Every experiment exposes both canonical scales; missing entries
        # fall back to the runner's own defaults.
        for scale in ("fast", "paper"):
            self.scales.setdefault(scale, {})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def scale_names(self) -> List[str]:
        """Registered scale names."""
        return sorted(self.scales)

    def kwargs_for(self, scale: str) -> Dict[str, Any]:
        """The parameter set of one scale (a copy)."""
        if scale not in self.scales:
            raise RegistryError(
                f"experiment {self.name!r} has no scale {scale!r}; "
                f"available scales: {', '.join(self.scale_names())}"
            )
        return dict(self.scales[scale])

    def accepts(self, param: str) -> bool:
        """Whether the runner's signature takes ``param``."""
        signature = inspect.signature(self.runner)
        if param in signature.parameters:
            return True
        return any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in signature.parameters.values()
        )

    # ------------------------------------------------------------------
    # Execution and rendering
    # ------------------------------------------------------------------

    #: Overrides every CLI run forwards; dropped (not an error) when the
    #: runner's signature does not take them.
    UNIFORM_FLAGS = (
        "engine",
        "seed",
        "workload",
        "workload_params",
        "faults",
        "fault_params",
        "controller",
        "controller_params",
        "jobs",
        "cache",
        "progress",
    )

    def run(self, scale: str = "fast", **overrides: Any) -> Any:
        """Run the experiment at ``scale`` and return its typed result.

        ``overrides`` are merged over the scale's parameter set.  ``None``
        values are dropped, and the uniform CLI flags (:attr:`UNIFORM_FLAGS`)
        are dropped when the runner does not accept them; any other
        parameter the runner does not accept is an error, so typos don't
        silently run with defaults.
        """
        kwargs = self.kwargs_for(scale)
        for key, value in overrides.items():
            if value is None:
                continue
            if not self.accepts(key):
                if key in self.UNIFORM_FLAGS:
                    continue
                raise RegistryError(
                    f"experiment {self.name!r} does not accept parameter {key!r}"
                )
            kwargs[key] = value
        return self.runner(**kwargs)

    def format(self, result: Any) -> str:
        """Render a result with the experiment module's ``format_result``."""
        module = importlib.import_module(self.module)
        return module.format_result(result)


def register_experiment(
    name: str,
    *,
    title: str,
    scales: Optional[Mapping[str, Mapping[str, Any]]] = None,
    description: str = "",
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering an experiment ``run`` function.

    Returns the function unchanged, so direct ``run(**kwargs)`` calls and
    registry execution run the same code.
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        doc = (func.__doc__ or "").strip()
        first_doc_line = doc.splitlines()[0] if doc else ""
        spec = ExperimentSpec(
            name=name,
            title=title,
            runner=func,
            module=func.__module__,
            scales={key: dict(value) for key, value in (scales or {}).items()},
            description=description or first_doc_line,
        )
        EXPERIMENTS.register(name, spec)
        return func

    return decorate


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name."""
    return EXPERIMENTS.get(name)


def run_experiment(name: str, scale: str = "fast", **overrides: Any) -> Any:
    """Run a registered experiment and return its typed result object.

    This is the programmatic facade; the CLI wraps it with report
    formatting (see :mod:`repro.experiments.runner`).
    """
    return get_experiment(name).run(scale=scale, **overrides)
