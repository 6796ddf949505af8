"""Markov operation model and burst (inter-operation gap) model.

Fig. 8 of the paper shows the user-centric transition graph between API
operations: after authenticating, clients typically list volumes and shares;
transfer operations strongly repeat (uploading or downloading a file makes
another transfer the most likely next operation, because users sync whole
directories and edit files repeatedly); ``Make`` and ``Upload`` are
interleaved because creating the metadata entry precedes the content upload.

Fig. 9 shows that the gaps between consecutive operations of the same user
follow a power law with exponent between 1 and 2 — users alternate short
bursts of many operations with long idle periods (non-Poisson behaviour).

The transition structure is *compiled* per ``(user class, volume-ops
flag)`` into :class:`CompiledChain` inverse-CDF tables (cumulative weight
rows with the time-varying ``Download`` entry kept last), so a whole session's
operation sequence can be drawn from one pre-drawn uniform block — either
step by step in O(row) scalar work, or via :meth:`CompiledChain.walk`,
which resolves every ``(state, step)`` pair with a handful of vectorised
array operations and then walks the chain with O(1) lookups per step.
:class:`BurstGapSampler` draws the Pareto gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.records import ApiOperation
from repro.util.rngpool import RngPool
from repro.workload.population import UserClass

__all__ = [
    "BurstGapSampler",
    "CompiledChain",
    "CHAIN_OPS",
    "CHAIN_OP_INDEX",
    "compiled_chain",
    "initial_state",
    "TRANSITION_TABLE",
    "INITIAL_OPERATIONS",
]


#: Operations a session starts with, right after authentication (Fig. 8 shows
#: Authenticate -> ListVolumes -> ListShares as the regular initialisation
#: flow, sometimes followed by QuerySetCaps / GetDelta / RescanFromScratch).
INITIAL_OPERATIONS: tuple[tuple[ApiOperation, float], ...] = (
    (ApiOperation.LIST_VOLUMES, 0.55),
    (ApiOperation.LIST_SHARES, 0.20),
    (ApiOperation.QUERY_SET_CAPS, 0.10),
    (ApiOperation.GET_DELTA, 0.10),
    (ApiOperation.RESCAN_FROM_SCRATCH, 0.05),
)


#: State-transition table of the operation Markov chain.  The weights encode
#: the qualitative structure of Fig. 8: transfers repeat (directory-level
#: sync, repeated file edits), Make precedes Upload, deletions come in long
#: sequences, and maintenance operations funnel into data management for
#: active sessions.
TRANSITION_TABLE: dict[ApiOperation, tuple[tuple[ApiOperation, float], ...]] = {
    ApiOperation.LIST_VOLUMES: (
        (ApiOperation.LIST_SHARES, 0.45),
        (ApiOperation.GET_DELTA, 0.25),
        (ApiOperation.DOWNLOAD, 0.12),
        (ApiOperation.MAKE, 0.10),
        (ApiOperation.QUERY_SET_CAPS, 0.08),
    ),
    ApiOperation.LIST_SHARES: (
        (ApiOperation.GET_DELTA, 0.35),
        (ApiOperation.DOWNLOAD, 0.25),
        (ApiOperation.MAKE, 0.20),
        (ApiOperation.UPLOAD, 0.10),
        (ApiOperation.LIST_VOLUMES, 0.10),
    ),
    ApiOperation.QUERY_SET_CAPS: (
        (ApiOperation.LIST_VOLUMES, 0.50),
        (ApiOperation.GET_DELTA, 0.30),
        (ApiOperation.DOWNLOAD, 0.20),
    ),
    ApiOperation.RESCAN_FROM_SCRATCH: (
        (ApiOperation.GET_DELTA, 0.40),
        (ApiOperation.DOWNLOAD, 0.40),
        (ApiOperation.LIST_VOLUMES, 0.20),
    ),
    ApiOperation.GET_DELTA: (
        (ApiOperation.DOWNLOAD, 0.45),
        (ApiOperation.MAKE, 0.20),
        (ApiOperation.UPLOAD, 0.15),
        (ApiOperation.UNLINK, 0.10),
        (ApiOperation.LIST_VOLUMES, 0.10),
    ),
    ApiOperation.MAKE: (
        (ApiOperation.UPLOAD, 0.62),
        (ApiOperation.MAKE, 0.23),
        (ApiOperation.DOWNLOAD, 0.08),
        (ApiOperation.UNLINK, 0.04),
        (ApiOperation.MOVE, 0.03),
    ),
    ApiOperation.UPLOAD: (
        (ApiOperation.UPLOAD, 0.42),
        (ApiOperation.MAKE, 0.28),
        (ApiOperation.DOWNLOAD, 0.16),
        (ApiOperation.UNLINK, 0.08),
        (ApiOperation.GET_DELTA, 0.04),
        (ApiOperation.MOVE, 0.02),
    ),
    ApiOperation.DOWNLOAD: (
        (ApiOperation.DOWNLOAD, 0.50),
        (ApiOperation.UPLOAD, 0.18),
        (ApiOperation.MAKE, 0.14),
        (ApiOperation.GET_DELTA, 0.10),
        (ApiOperation.UNLINK, 0.06),
        (ApiOperation.MOVE, 0.02),
    ),
    ApiOperation.UNLINK: (
        (ApiOperation.UNLINK, 0.55),
        (ApiOperation.UPLOAD, 0.15),
        (ApiOperation.MAKE, 0.12),
        (ApiOperation.DOWNLOAD, 0.10),
        (ApiOperation.DELETE_VOLUME, 0.03),
        (ApiOperation.GET_DELTA, 0.05),
    ),
    ApiOperation.MOVE: (
        (ApiOperation.MOVE, 0.40),
        (ApiOperation.UPLOAD, 0.20),
        (ApiOperation.DOWNLOAD, 0.20),
        (ApiOperation.MAKE, 0.20),
    ),
    ApiOperation.CREATE_UDF: (
        (ApiOperation.MAKE, 0.60),
        (ApiOperation.UPLOAD, 0.30),
        (ApiOperation.LIST_VOLUMES, 0.10),
    ),
    ApiOperation.DELETE_VOLUME: (
        (ApiOperation.LIST_VOLUMES, 0.40),
        (ApiOperation.CREATE_UDF, 0.20),
        (ApiOperation.MAKE, 0.20),
        (ApiOperation.UNLINK, 0.20),
    ),
}


@dataclass(frozen=True)
class _ClassBias:
    """Per-user-class multipliers for upload/download transitions."""

    upload: float
    download: float


_CLASS_BIAS = {
    UserClass.OCCASIONAL: _ClassBias(upload=0.5, download=0.65),
    UserClass.UPLOAD_ONLY: _ClassBias(upload=1.8, download=0.02),
    UserClass.DOWNLOAD_ONLY: _ClassBias(upload=0.02, download=1.8),
    UserClass.HEAVY: _ClassBias(upload=1.2, download=1.7),
}


#: Canonical index space of the chain states (every operation appearing in
#: the transition structure).  The compiled tables, the vectorised walks and
#: the generator's per-operation dispatch all speak these small integers;
#: ``CHAIN_OPS[index]`` recovers the enum member.
CHAIN_OPS: tuple[ApiOperation, ...] = (
    ApiOperation.LIST_VOLUMES,
    ApiOperation.LIST_SHARES,
    ApiOperation.QUERY_SET_CAPS,
    ApiOperation.RESCAN_FROM_SCRATCH,
    ApiOperation.GET_DELTA,
    ApiOperation.MAKE,
    ApiOperation.UPLOAD,
    ApiOperation.DOWNLOAD,
    ApiOperation.UNLINK,
    ApiOperation.MOVE,
    ApiOperation.CREATE_UDF,
    ApiOperation.DELETE_VOLUME,
)

CHAIN_OP_INDEX: dict[ApiOperation, int] = {op: i for i, op in enumerate(CHAIN_OPS)}

_DOWNLOAD_INDEX = CHAIN_OP_INDEX[ApiOperation.DOWNLOAD]
_VOLUME_INDICES = (CHAIN_OP_INDEX[ApiOperation.CREATE_UDF],
                   CHAIN_OP_INDEX[ApiOperation.DELETE_VOLUME])

#: Floor applied to the class upload multiplier on the ``Make`` row only.
#: ``Make -> Upload`` is a *structural* coupling (the client creates the
#: metadata entry and then uploads the content, Fig. 8), not a preference:
#: even download-leaning profiles that create a file follow up with its
#: upload, so the 0.02 class dampening that is right for steady-state
#: transfer choices must not sever the pair.
_MAKE_UPLOAD_BIAS_FLOOR = 1.0

_MAKE_INDEX = CHAIN_OP_INDEX[ApiOperation.MAKE]

_INITIAL_OPS = tuple(op for op, _ in INITIAL_OPERATIONS)
_INITIAL_INDICES = tuple(CHAIN_OP_INDEX[op] for op in _INITIAL_OPS)
_INITIAL_CUMULATIVE = tuple(
    float(c) for c in np.cumsum([w for _, w in INITIAL_OPERATIONS]))
_INITIAL_TOTAL = _INITIAL_CUMULATIVE[-1]


def initial_state(u: float) -> int:
    """Resolve one uniform into a session's first chain state (inverse CDF)."""
    x = u * _INITIAL_TOTAL
    for index, cumulative in zip(_INITIAL_INDICES, _INITIAL_CUMULATIVE):
        if x < cumulative:
            return index
    return _INITIAL_INDICES[-1]


class CompiledChain:
    """The transition structure compiled for one ``(class bias, volume flag)``.

    Every row is rearranged so the diurnally re-weighted ``Download`` entry
    comes *last*: the fixed (class-biased) weights form a static cumulative
    prefix and the download weight only stretches the total.  Resolving a
    uniform ``u`` with bias ``b`` is then ``x = u * (fixed_total + wd * b)``
    followed by *one* threshold scan — and, crucially, the scan vectorises:
    ``x >= fixed_total`` means Download, anything else is a searchsorted
    over the static prefix.  Scalar steps and block walks share these exact
    tables, so they resolve identical uniforms to identical operations.
    """

    __slots__ = ("cum_rows", "target_rows", "totals", "dl_weights",
                 "_cum3", "_targets2", "_totals_col", "_dl_col")

    def __init__(self, upload_mult: float, download_mult: float,
                 allow_volume_ops: bool):
        n_states = len(CHAIN_OPS)
        cum_rows: list[tuple[float, ...]] = []
        target_rows: list[tuple[int, ...]] = []
        totals: list[float] = []
        dl_weights: list[float] = []
        for op in CHAIN_OPS:
            fixed: list[tuple[int, float]] = []
            dl_weight = 0.0
            up_mult = upload_mult
            if op is ApiOperation.MAKE:
                up_mult = max(upload_mult, _MAKE_UPLOAD_BIAS_FLOOR)
            for target, weight in TRANSITION_TABLE[op]:
                index = CHAIN_OP_INDEX[target]
                if index == _DOWNLOAD_INDEX:
                    dl_weight = weight * download_mult
                    continue
                if index in _VOLUME_INDICES and not allow_volume_ops:
                    continue
                if target is ApiOperation.UPLOAD:
                    weight *= up_mult
                fixed.append((index, weight))
            acc = 0.0
            cum: list[float] = []
            targets: list[int] = []
            for index, weight in fixed:
                acc += weight
                cum.append(acc)
                targets.append(index)
            # The sentinel entry resolved when ``x >= fixed_total``: the
            # download target when the row has one, otherwise the last fixed
            # entry (only reachable through float round-off at ``u -> 1``).
            targets.append(_DOWNLOAD_INDEX if dl_weight > 0.0 else targets[-1])
            cum_rows.append(tuple(cum))
            target_rows.append(tuple(targets))
            totals.append(acc)
            dl_weights.append(dl_weight)
        self.cum_rows = tuple(cum_rows)
        self.target_rows = tuple(target_rows)
        self.totals = tuple(totals)
        self.dl_weights = tuple(dl_weights)
        # Padded array mirrors of the same tables for the block walk.
        width = max(len(row) for row in cum_rows)
        cum2 = np.full((n_states, width), np.inf)
        targets2 = np.zeros((n_states, width + 1), dtype=np.intp)
        for s, (cum, targets) in enumerate(zip(cum_rows, target_rows)):
            cum2[s, :len(cum)] = cum
            targets2[s, :len(targets)] = targets
            targets2[s, len(targets):] = targets[-1]
        self._cum3 = cum2[:, :, None]
        self._targets2 = targets2
        self._totals_col = np.asarray(totals)[:, None]
        self._dl_col = np.asarray(dl_weights)[:, None]

    # ------------------------------------------------------------- sampling
    def step(self, state: int, u: float, bias: float) -> int:
        """One scalar transition: the inverse CDF of row ``state`` at ``u``."""
        fixed_total = self.totals[state]
        x = u * (fixed_total + self.dl_weights[state] * bias)
        targets = self.target_rows[state]
        if x < fixed_total:
            for j, c in enumerate(self.cum_rows[state]):
                if x < c:
                    return targets[j]
        return targets[-1]

    def next_matrix(self, u: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Resolve ``(state, step)`` for *every* state over a uniform block.

        Returns an ``(n_states, n_steps)`` matrix ``m`` with ``m[s, i]`` the
        state following ``s`` under uniform ``u[i]`` and download bias
        ``bias[i]`` — the whole chain structure drawn as arrays; an actual
        walk is then one O(1) lookup per step.
        """
        x = u[None, :] * (self._totals_col + self._dl_col * bias[None, :])
        index = (self._cum3 <= x[:, None, :]).sum(axis=1)
        return np.take_along_axis(self._targets2, index, axis=1)

    def walk(self, initial_u: float, u: np.ndarray, bias: np.ndarray,
             block_threshold: int = 96) -> list[int]:
        """Draw a whole operation sequence from pre-drawn uniforms.

        ``u``/``bias`` drive the ``len(u)`` transitions after the initial
        operation (resolved from ``initial_u``).  Long blocks resolve every
        (state, step) pair vectorised first; short ones take the scalar
        steps — both paths produce bit-identical sequences for the same
        uniforms, so the cutover is purely a constant-factor choice.
        """
        state = initial_state(initial_u)
        ops = [state]
        n = len(u)
        if n >= block_threshold:
            matrix = self.next_matrix(u, bias)
            item = matrix.item
            for i in range(n):
                state = item(state, i)
                ops.append(state)
        else:
            u_list = u.tolist() if isinstance(u, np.ndarray) else u
            bias_list = bias.tolist() if isinstance(bias, np.ndarray) else bias
            step = self.step
            for ui, bi in zip(u_list, bias_list):
                state = step(state, ui, bi)
                ops.append(state)
        return ops


#: Compiled-chain cache: one instance per (user class, volume flag); the
#: tables are pure functions of the static weights, so they are shared by
#: every materializer in the process.
_COMPILED_CHAINS: dict[tuple[UserClass, bool], CompiledChain] = {}


def compiled_chain(user_class: UserClass, allow_volume_ops: bool) -> CompiledChain:
    """The compiled transition tables for one user class."""
    key = (user_class, allow_volume_ops)
    chain = _COMPILED_CHAINS.get(key)
    if chain is None:
        bias = _CLASS_BIAS[user_class]
        chain = _COMPILED_CHAINS[key] = CompiledChain(
            bias.upload, bias.download, allow_volume_ops)
    return chain


class BurstGapSampler:
    """Pareto-distributed gaps between consecutive operations of a user.

    ``P(X >= x) = (x / theta) ^ -alpha`` for ``x >= theta``; the paper fits
    alpha = 1.54 for uploads and alpha = 1.44 for unlinks, with thresholds of
    tens of seconds.  Gaps are capped so that a single session cannot exceed
    the measurement window.
    """

    def __init__(self, rng: np.random.Generator | RngPool, alpha: float = 1.5,
                 theta: float = 1.0, cap: float = 4 * 3600.0):
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1 for finite mean gaps")
        if theta <= 0:
            raise ValueError("theta must be positive")
        if isinstance(rng, RngPool):
            self._pool = rng
            self._rng = rng.generator
        else:
            self._rng = rng
            self._pool = RngPool(rng)
        self._alpha = alpha
        self._theta = theta
        self._cap = cap

    def sample(self) -> float:
        """One inter-operation gap in seconds."""
        u = self._pool.random()
        gap = self._theta * (1.0 - u) ** (-1.0 / self._alpha)
        return gap if gap < self._cap else self._cap

    def sample_many(self, n: int) -> np.ndarray:
        """Vector of ``n`` gaps."""
        return self.gaps(self._rng.random(n), self._alpha, self._theta,
                         self._cap)

    @staticmethod
    def gaps(u: np.ndarray, alpha: float, theta: float, cap: float) -> np.ndarray:
        """The capped Pareto inverse CDF over an array of uniforms."""
        return np.minimum(theta * (1.0 - u) ** (-1.0 / alpha), cap)

    @staticmethod
    def mean_truncated_gap(alpha: float, theta: float, cap: float) -> float:
        """Closed-form ``E[min(Pareto(alpha, theta), cap)]``.

        The planning pass uses this to convert a session's drawn operation
        count into the *expected realised* count ``min(n_ops, 1 + length /
        E[gap])``: sessions stop materializing once the pre-drawn timeline
        passes their end, so long heavy-tail draws that a short session
        truncates must not inflate the attack-rate baseline or the LPT
        shard weights.  The formula holds for both the scalar and the
        block-drawn (``sample_many``) gap streams — they share the same
        truncated-Pareto distribution.
        """
        return theta * (1.0 + (1.0 - (theta / cap) ** (alpha - 1.0))
                        / (alpha - 1.0))
