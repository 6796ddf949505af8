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

:class:`ServiceTimeModel` samples service times from a lognormal body with a
Pareto tail mixture, with per-RPC medians encoding the Fig. 13 ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Samples RPC service times with long tails.

    ``shard_factors`` are the per-metadata-shard multipliers (see
    :func:`shard_skew_factors`); ``rng`` feeds the body and tail draws.
    """

    def __init__(self, rng: np.random.Generator, shard_factors: list[float],
                 parameters: LatencyParameters | None = None,
                 medians_ms: dict[RpcName, float] | None = None):
        self._rng = rng
        self._parameters = parameters or LatencyParameters()
        self._medians_ms = dict(DEFAULT_MEDIANS_MS)
        if medians_ms:
            self._medians_ms.update(medians_ms)
        #: Per-RPC median in seconds, precomputed for the sampling fast path.
        self._median_seconds = {rpc: ms / 1000.0
                                for rpc, ms in self._medians_ms.items()}
        self._shard_factors = list(shard_factors)
        self._n_shards = len(self._shard_factors)
        # median * shard_factor, pre-multiplied per (rpc, shard): the sample
        # fast path then only draws the lognormal body and the Pareto tail.
        self._base_by_rpc = {
            rpc: [median * factor for factor in self._shard_factors]
            for rpc, median in self._median_seconds.items()
        }
        # Pre-drawn multiplicative body factors (lognormal body x Pareto
        # tail).  The factor distribution is independent of the RPC and the
        # shard — both only scale the median — so whole blocks can be drawn
        # vectorised and sample() reduces to a table lookup and a multiply.
        self._factors: list[float] = []
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
        self._factors = factors.tolist()
        self._factor_index = 0

    def sample(self, rpc: RpcName, shard_id: int = 0) -> float:
        """Sample one service time (seconds) for ``rpc`` on ``shard_id``.

        Samples come from the pooled RNG: a lognormal body around the per-RPC
        median, a Pareto tail with probability ``tail_probability`` and the
        fixed per-shard skew — the same distribution as the historical
        per-call Generator draws, at a fraction of the overhead.

        NOTE: this draw sequence (index check, :meth:`_refill_factors`,
        ``_base_by_rpc[rpc][shard_id % _n_shards] * factor``) is inlined for
        call-overhead reasons in ``RpcWorker.execute`` and the download
        (``GET_NODE``) in ``ApiServerProcess.handle_event``; any change to
        the sequence or to the pool state layout must be mirrored there, or
        the shared random stream desynchronizes between the paths.
        """
        i = self._factor_index
        if i >= len(self._factors):
            self._refill_factors()
            i = 0
        self._factor_index = i + 1
        return self._base_by_rpc[rpc][shard_id % self._n_shards] * self._factors[i]

    def sample_block(self, rpc: RpcName, shard_id: int, n: int) -> list[float]:
        """Sample ``n`` service times for ``rpc`` on ``shard_id`` at once.

        Consumes the same pooled factor stream as :meth:`sample`, so a block
        of ``n`` draws equals ``n`` successive scalar draws — batched callers
        (multipart part loops, GC sweeps) stay on the same random sequence as
        the per-call path.
        """
        base = self._base_by_rpc[rpc][shard_id % self._n_shards]
        out: list[float] = []
        remaining = n
        while remaining:
            i = self._factor_index
            available = len(self._factors) - i
            if available <= 0:
                self._refill_factors(max(4096, remaining))
                i = 0
                available = len(self._factors)
            take = available if available < remaining else remaining
            out.extend(base * f for f in self._factors[i:i + take])
            self._factor_index = i + take
            remaining -= take
        return out

