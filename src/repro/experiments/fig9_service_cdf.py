"""Fig. 9 / Table IV: chunk service-time distribution per chunk size.

The paper measures the read service time of chunks of 1, 4, 16, 64 and
256 MB at the HDD-backed OSDs of its testbed, plots the CDFs (Fig. 9) and
tabulates the mean and variance of each size (Table IV); those moments feed
the optimization.  The emulated cluster draws its OSD service times from
distributions fitted to exactly those moments, so this experiment samples
the emulated devices, rebuilds the empirical CDFs and compares the sample
moments against the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.api.experiments import register_experiment
from repro.cluster.devices import HDD_SERVICE_TABLE, hdd_service_for_chunk_size


@dataclass
class ServiceTimeCdf:
    """Empirical CDF of one chunk size's service time."""

    chunk_size_mb: int
    samples_ms: np.ndarray
    table_mean_ms: float
    table_variance_ms2: float

    @property
    def sample_mean_ms(self) -> float:
        """Mean of the sampled service times."""
        return float(self.samples_ms.mean())

    @property
    def sample_variance_ms2(self) -> float:
        """Variance of the sampled service times."""
        return float(self.samples_ms.var())

    def cdf_at(self, value_ms: float) -> float:
        """Empirical CDF evaluated at ``value_ms``."""
        return float(np.mean(self.samples_ms <= value_ms))

    def percentile(self, q: float) -> float:
        """Latency percentile of the sample."""
        return float(np.percentile(self.samples_ms, q))


@dataclass
class Fig9Result:
    """Empirical CDFs for every measured chunk size."""

    cdfs: List[ServiceTimeCdf] = field(default_factory=list)
    samples_per_size: int = 0

    def table_iv_rows(self) -> List[Dict[str, float]]:
        """Rows comparing sampled vs published moments (Table IV)."""
        rows = []
        for cdf in self.cdfs:
            rows.append(
                {
                    "chunk_size_mb": cdf.chunk_size_mb,
                    "paper_mean_ms": cdf.table_mean_ms,
                    "measured_mean_ms": cdf.sample_mean_ms,
                    "paper_variance": cdf.table_variance_ms2,
                    "measured_variance": cdf.sample_variance_ms2,
                }
            )
        return rows


def _simulated_service_samples(
    service, samples_per_size: int, seed: int, engine: str, utilization: float = 0.02
) -> np.ndarray:
    """Draw service samples by replaying reads through a simulation engine.

    A single (1,1)-coded probe file on one OSD-like node is read at low
    utilization, so the recorded per-request latencies are (almost pure)
    service-time draws from the emulated device -- the full read path of the
    chosen engine rather than a direct call to ``service.sample``.
    """
    from repro.core.model import FileSpec, StorageSystemModel
    from repro.simulation.simulator import SimulationConfig, StorageSimulator

    arrival_rate = utilization / service.mean
    model = StorageSystemModel(
        services=[service],
        files=[
            FileSpec(
                file_id="probe",
                n=1,
                k=1,
                placement=[0],
                arrival_rate=arrival_rate,
            )
        ],
        cache_capacity=0,
    )
    horizon = samples_per_size / arrival_rate
    simulator = StorageSimulator(model, placement=None, engine=engine)
    result = simulator.run(SimulationConfig(horizon=horizon, seed=seed))
    return result.metrics.all_latencies()


@register_experiment(
    "fig9",
    title="Chunk service-time CDF (Fig. 9 / Table IV)",
    description="emulated HDD service-time distributions against the measured moments",
    scales={"fast": {"samples_per_size": 5000}, "paper": {"samples_per_size": 20000}},
)
def run(
    chunk_sizes_mb: Sequence[int] = (1, 4, 16, 64, 256),
    samples_per_size: int = 5000,
    seed: int = 2016,
    via_simulator: bool = False,
    engine: str = "batch",
) -> Fig9Result:
    """Sample the emulated HDD service-time distributions.

    With ``via_simulator=True`` the samples are produced by replaying reads
    of a single-chunk probe file through the chosen simulation ``engine``
    instead of sampling the distribution object directly, exercising the
    full emulated read path.
    """
    rng = np.random.default_rng(seed)
    result = Fig9Result(samples_per_size=samples_per_size)
    for chunk_size in chunk_sizes_mb:
        service = hdd_service_for_chunk_size(chunk_size)
        if via_simulator:
            samples = _simulated_service_samples(
                service, samples_per_size, seed, engine
            )
        else:
            samples = np.asarray(
                service.sample(rng, size=samples_per_size), dtype=float
            )
        table_row = HDD_SERVICE_TABLE[chunk_size]
        result.cdfs.append(
            ServiceTimeCdf(
                chunk_size_mb=chunk_size,
                samples_ms=samples,
                table_mean_ms=table_row["mean_ms"],
                table_variance_ms2=table_row["variance_ms2"],
            )
        )
    return result


def format_result(result: Fig9Result) -> str:
    """Render Table IV (paper vs emulated moments) and CDF landmarks."""
    lines = [
        "Fig. 9 / Table IV -- chunk service time at HDD OSDs "
        f"({result.samples_per_size} samples per size)",
        f"{'chunk (MB)':>11} {'paper mean':>11} {'emul mean':>11} "
        f"{'paper var':>12} {'emul var':>12} {'p50 (ms)':>10} {'p95 (ms)':>10}",
    ]
    for cdf in result.cdfs:
        lines.append(
            f"{cdf.chunk_size_mb:>11} {cdf.table_mean_ms:>11.2f} "
            f"{cdf.sample_mean_ms:>11.2f} {cdf.table_variance_ms2:>12.2f} "
            f"{cdf.sample_variance_ms2:>12.2f} {cdf.percentile(50):>10.2f} "
            f"{cdf.percentile(95):>10.2f}"
        )
    return "\n".join(lines)
