"""Configuration of the out-of-core streaming layer.

A :class:`StreamingConfig` is a frozen value object bounding how large
a chunk a streamed variable may have and how stubbornly the reader
retries failing chunks before degrading.  It is explicit,
validated at construction and passed down — a streaming dataset opened
with one budget never silently inherits another's.

The budget is the only bound on a streamed dataset's decoded chunks:
no result cache stores them, and every chunk is read on its caller's
thread, so nothing reads ahead of the consumer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.policy import RetryPolicy
from repro.util.errors import StreamingError

#: default resident-bytes budget for decoded chunks (128 MiB)
DEFAULT_MEMORY_BUDGET = 128 * 2**20


@dataclass(frozen=True)
class StreamingConfig:
    """How a streaming dataset budgets and retries its chunk reads.

    Parameters
    ----------
    memory_budget_bytes:
        Hard ceiling on decoded chunk bytes the streaming layer holds
        for one read: a streamed variable with a chunk larger than this
        is refused when it is handed out.  A multi-pass fold keeps its
        first pass's chunks only when they fit under it.
    read_retries:
        Attempts per chunk (including the first) before a failure is
        quarantined and surfaced for degradation.
    retry_base_delay:
        Backoff before the first retry, in seconds (exponential with
        deterministic jitter, the :class:`RetryPolicy` contract).
    """

    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET
    read_retries: int = 3
    retry_base_delay: float = 0.005

    def __post_init__(self) -> None:
        if self.memory_budget_bytes <= 0:
            raise StreamingError(
                f"memory_budget_bytes must be positive, got {self.memory_budget_bytes}"
            )
        if self.read_retries < 1:
            raise StreamingError(
                f"read_retries must be >= 1, got {self.read_retries}"
            )
        if self.retry_base_delay < 0:
            raise StreamingError("retry_base_delay must be >= 0")

    def retry_policy(self, seed: str = "streaming") -> RetryPolicy:
        """The reader's per-chunk retry policy under this config."""
        return RetryPolicy(
            max_attempts=self.read_retries,
            base_delay=self.retry_base_delay,
            multiplier=2.0,
            max_delay=max(self.retry_base_delay * 8.0, self.retry_base_delay),
            jitter=0.1 if self.retry_base_delay > 0 else 0.0,
            seed=seed,
        )
