"""Workload definitions behind the unified :class:`Workload` protocol.

Every workload -- the paper's stationary defaults, the non-stationary
synthetic zoo (diurnal cycles, flash crowds, popularity drift) and
ingested real traces -- implements the same protocol: ``model()`` yields
the stationary system description and ``sample(rng, horizon)`` draws a
:class:`RequestStream` the engines replay.  Select workloads by name via
``Scenario(workload=...)``; the paper's constants and model builders live
in :mod:`repro.workloads.catalog`.
"""

from repro.workloads.base import (
    RequestStream,
    StationaryWorkload,
    Workload,
    as_workload,
    zipf_weights,
)
from repro.workloads.catalog import (
    DEFAULT_ARRIVAL_RATE_PATTERN,
    DEFAULT_CHUNK_SIZE_MB,
    DEFAULT_CODE,
    DEFAULT_SERVICE_RATES,
    TABLE_I_ARRIVAL_RATES,
    TABLE_III_WORKLOAD,
    aggregate_rate_to_per_object,
    paper_default_model,
    table_i_time_bins,
    table_iii_arrival_rates,
    ten_file_model,
)
from repro.workloads.generator import CosbenchWorkload, WorkloadStage
from repro.workloads.rates import SlidingWindowRateEstimator
from repro.workloads.zoo import (
    DiurnalWorkload,
    FlashCrowdWorkload,
    PopularityDriftWorkload,
)

__all__ = [
    # protocol
    "Workload",
    "RequestStream",
    "StationaryWorkload",
    "as_workload",
    "zipf_weights",
    # catalog (canonical constants and builders)
    "DEFAULT_ARRIVAL_RATE_PATTERN",
    "DEFAULT_CHUNK_SIZE_MB",
    "DEFAULT_CODE",
    "DEFAULT_SERVICE_RATES",
    "paper_default_model",
    "ten_file_model",
    "TABLE_I_ARRIVAL_RATES",
    "TABLE_III_WORKLOAD",
    "table_i_time_bins",
    "table_iii_arrival_rates",
    "aggregate_rate_to_per_object",
    # the zoo
    "DiurnalWorkload",
    "FlashCrowdWorkload",
    "PopularityDriftWorkload",
    # misc drivers
    "SlidingWindowRateEstimator",
    "CosbenchWorkload",
    "WorkloadStage",
]
