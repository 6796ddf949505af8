"""Service-time models of the metadata store RPCs (Figs. 12 and 13).

The paper measures, for every RPC type, the distribution of the time spent
servicing the call against the metadata store.  Three facts matter for the
reproduction:

* all RPCs exhibit **long tails**: 7 %-22 % of service times are very far
  from the median (attributed to background interference, CPU power saving
  and other effects per Li et al., "Tales of the tail");
* the **class** of an RPC strongly determines its speed: read RPCs exploit
  lockless parallel access to the shard replicas and are the fastest, while
  *cascade* RPCs (``delete_volume``, ``get_from_scratch``) are more than an
  order of magnitude slower than the fastest operations;
* write/update/delete RPCs are slower than most reads while being issued at
  comparable frequencies.

:class:`ServiceTimeModel` draws service times from a lognormal body with a
Pareto tail mixture, with per-RPC medians encoding the Fig. 13 ordering;
an RPC takes its factor's ordinal when it runs, and the service times are
one gather after the replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import RPC_CODE
from repro.trace.records import RpcName

__all__ = ["ServiceTimeModel", "LatencyParameters", "DEFAULT_MEDIANS_MS",
           "shard_skew_factors"]


#: Median service time (milliseconds) of each RPC, ordered as in Fig. 13:
#: reads are the fastest (a few ms), writes sit around 10-40 ms and cascade
#: operations take hundreds of ms.
DEFAULT_MEDIANS_MS: dict[RpcName, float] = {
    # reads
    RpcName.LIST_VOLUMES: 3.0,
    RpcName.LIST_SHARES: 3.5,
    RpcName.GET_VOLUME_ID: 2.5,
    RpcName.GET_NODE: 3.0,
    RpcName.GET_ROOT: 2.5,
    RpcName.GET_USER_DATA: 3.5,
    RpcName.GET_USER_ID_FROM_TOKEN: 4.0,
    RpcName.GET_DELTA: 8.0,
    RpcName.GET_UPLOADJOB: 4.0,
    RpcName.GET_REUSABLE_CONTENT: 6.0,
    # writes / updates / deletes
    RpcName.MAKE_DIR: 12.0,
    RpcName.MAKE_FILE: 14.0,
    RpcName.MAKE_CONTENT: 18.0,
    RpcName.UNLINK_NODE: 15.0,
    RpcName.MOVE: 16.0,
    RpcName.CREATE_UDF: 20.0,
    RpcName.MAKE_UPLOADJOB: 15.0,
    RpcName.ADD_PART_TO_UPLOADJOB: 10.0,
    RpcName.SET_UPLOADJOB_MULTIPART_ID: 9.0,
    RpcName.TOUCH_UPLOADJOB: 8.0,
    RpcName.DELETE_UPLOADJOB: 11.0,
    # cascade
    RpcName.DELETE_VOLUME: 250.0,
    RpcName.GET_FROM_SCRATCH: 180.0,
}


@dataclass(frozen=True)
class LatencyParameters:
    """Shape parameters of the service-time distribution.

    ``sigma`` is the lognormal shape of the body; ``tail_probability`` is the
    chance that a sample falls in the long tail, in which case the body
    sample is multiplied by a Pareto factor with exponent ``tail_exponent``.
    ``shard_skew`` adds a small per-shard multiplicative offset so that
    different shards are not perfectly identical.
    """

    sigma: float = 0.55
    tail_probability: float = 0.12
    tail_exponent: float = 1.2
    tail_scale: float = 8.0
    shard_skew: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.tail_probability < 1.0:
            raise ValueError("tail_probability must be in [0, 1)")
        if self.tail_exponent <= 0:
            raise ValueError("tail_exponent must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def shard_skew_factors(seed: int, n_shards: int,
                       parameters: LatencyParameters | None = None) -> list[float]:
    """Fixed per-metadata-shard service-time multipliers, drawn from ``seed``.

    One table per cluster: every replay shard's :class:`ServiceTimeModel`
    gets the same factors, so a metadata shard is equally fast or slow
    wherever its requests are replayed.
    """
    skew = (parameters or LatencyParameters()).shard_skew
    rng = np.random.default_rng(seed)
    return (1.0 + skew * (rng.random(n_shards) - 0.5) * 2.0).tolist()


class ServiceTimeModel:
    """Draws RPC service times with long tails.

    ``shard_factors`` are the per-metadata-shard multipliers (see
    :func:`shard_skew_factors`); ``rng`` feeds the body and tail draws.
    A service time is ``base[rpc, shard] * factor``, the factor a
    lognormal body x Pareto tail draw independent of the RPC and the
    shard, so factors are drawn in kept blocks and an RPC takes the next
    factor's *ordinal* when it runs: only the count of factors taken
    decides when a block is drawn, and :meth:`service_times` is one
    gather after the run.
    """

    def __init__(self, rng: np.random.Generator, shard_factors: list[float],
                 parameters: LatencyParameters | None = None,
                 medians_ms: dict[RpcName, float] | None = None):
        self._rng = rng
        self._parameters = parameters or LatencyParameters()
        self._medians_ms = dict(DEFAULT_MEDIANS_MS)
        if medians_ms:
            self._medians_ms.update(medians_ms)
        self._median_seconds = {rpc: ms / 1000.0
                                for rpc, ms in self._medians_ms.items()}
        self._n_shards = len(shard_factors)
        self._base = np.array([[self._median_seconds[rpc] * factor
                                for factor in shard_factors]
                               for rpc in RPC_CODE])
        self._blocks: list[np.ndarray] = []
        # The current block's first ordinal, length and next position.
        self._offset = 0
        self._block_size = 0
        self._factor_index = 0

    def _refill_factors(self, block: int = 4096) -> None:
        params = self._parameters
        rng = self._rng
        factors = np.exp(params.sigma * rng.standard_normal(block))
        tails = rng.random(block) < params.tail_probability
        n_tails = int(tails.sum())
        if n_tails:
            pareto = (1.0 - rng.random(n_tails)) ** (-1.0 / params.tail_exponent) - 1.0
            factors[tails] *= 1.0 + params.tail_scale * pareto
        self._blocks.append(factors)
        self._offset += self._block_size
        self._block_size = block
        self._factor_index = 0

    def draw(self, n: int, block: bool = False) -> int:
        """Take the next ``n`` factors; return the ordinal of the first.

        As ``n`` single draws (``RpcWorker.execute`` inlines one): a
        4,096-factor block each time the current one runs out.  As one
        ``block`` draw: what the current block has left, then one block of
        at least the rest.
        """
        first = self._offset + self._factor_index
        rest = n - (self._block_size - self._factor_index)
        if rest <= 0:
            self._factor_index += n
            return first
        while True:
            self._refill_factors(max(4096, rest) if block else 4096)
            if rest <= self._block_size:
                self._factor_index = rest
                return first
            rest -= self._block_size

    def service_times(self, rpc_codes: np.ndarray, shard_ids: np.ndarray,
                      ordinals: np.ndarray) -> np.ndarray:
        """Service times (seconds) of RPCs given as ``RPC_CODE``\\ s, the
        metadata shards they ran on and the ordinals of their factors."""
        factors = (np.concatenate(self._blocks) if self._blocks
                   else np.zeros(0))
        return (self._base[rpc_codes, shard_ids % self._n_shards]
                * factors[ordinals])
