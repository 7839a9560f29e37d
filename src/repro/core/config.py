"""IM-PIR deployment configuration.

Ties together the PIM platform description, the clustering strategy and the
host-side evaluation parameters.  The defaults reproduce the paper's standard
setup: 2,048 DPUs with 16 tasklets each, a single DPU cluster, and host-side
DPF evaluation with batched AES-NI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.pim.config import PIMConfig

#: Amortised AES-block cost per evaluated GGM leaf.  IM-PIR's host evaluation
#: (like Google's DPF library and Lam et al.) derives both children of a node
#: from a single fixed-key AES invocation (Matyas-Meyer-Oseas with the
#: seed-doubling trick), so a full-domain evaluation costs about one AES block
#: per leaf rather than two.
DEFAULT_BLOCKS_PER_LEAF = 1.0


@dataclass(frozen=True)
class IMPIRConfig:
    """Configuration of one IM-PIR database server."""

    pim: PIMConfig = field(default_factory=PIMConfig)
    #: DPU clusters (Fig. 8): 1 means every query uses all DPUs sequentially;
    #: ``C > 1`` runs up to ``C`` queries' dpXOR phases concurrently, provided
    #: each cluster's MRAM can hold the full database.
    num_clusters: int = 1
    #: Host worker threads performing per-query DPF evaluations in batch mode
    #: (defaults to every hardware thread of the PIM server's host CPU).
    eval_workers: Optional[int] = None
    #: Host threads cooperating on a single query's evaluation in latency mode
    #: (defaults to every hardware thread).
    latency_eval_threads: Optional[int] = None
    #: Amortised AES blocks charged per evaluated leaf by the cost model.
    blocks_per_leaf: float = DEFAULT_BLOCKS_PER_LEAF
    #: Fraction of each DPU's MRAM kept free for selector/result buffers.
    mram_reserve_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.num_clusters <= 0:
            raise ConfigurationError("num_clusters must be positive")
        if self.num_clusters > self.pim.num_dpus:
            raise ConfigurationError(
                f"cannot form {self.num_clusters} clusters from {self.pim.num_dpus} DPUs"
            )
        if self.eval_workers is not None and self.eval_workers <= 0:
            raise ConfigurationError("eval_workers must be positive")
        if self.latency_eval_threads is not None and self.latency_eval_threads <= 0:
            raise ConfigurationError("latency_eval_threads must be positive")
        if self.blocks_per_leaf <= 0:
            raise ConfigurationError("blocks_per_leaf must be positive")
        if not 0.0 <= self.mram_reserve_fraction < 1.0:
            raise ConfigurationError("mram_reserve_fraction must be in [0, 1)")

    @property
    def effective_eval_workers(self) -> int:
        """Worker threads used for batch-mode DPF evaluation."""
        if self.eval_workers is not None:
            return self.eval_workers
        return self.pim.host.total_threads

    @property
    def effective_latency_threads(self) -> int:
        """Threads cooperating on a single query's evaluation in latency mode."""
        if self.latency_eval_threads is not None:
            return self.latency_eval_threads
        return self.pim.host.total_threads

    @property
    def dpus_per_cluster(self) -> int:
        """DPUs assigned to each cluster."""
        return self.pim.num_dpus // self.num_clusters

    def with_clusters(self, num_clusters: int) -> "IMPIRConfig":
        """A copy of this configuration with a different cluster count."""
        return IMPIRConfig(
            pim=self.pim,
            num_clusters=num_clusters,
            eval_workers=self.eval_workers,
            latency_eval_threads=self.latency_eval_threads,
            blocks_per_leaf=self.blocks_per_leaf,
            mram_reserve_fraction=self.mram_reserve_fraction,
        )

    def with_pim(self, pim: PIMConfig) -> "IMPIRConfig":
        """A copy of this configuration on a different PIM platform."""
        return IMPIRConfig(
            pim=pim,
            num_clusters=self.num_clusters,
            eval_workers=self.eval_workers,
            latency_eval_threads=self.latency_eval_threads,
            blocks_per_leaf=self.blocks_per_leaf,
            mram_reserve_fraction=self.mram_reserve_fraction,
        )
