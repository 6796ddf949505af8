"""The Canonical authentication service (Section 3.4.1).

Authentication in U1 is OAuth-based and shared with other Canonical services:

* the first time a user connects, the desktop client submits credentials and
  the authentication service mints a token bound to a new user identifier;
* subsequent connections present the stored token;
* the API server that handles a connection asks the authentication service
  whether the token exists and has not expired, retrieves the associated
  user id and establishes the session;
* during a session the token is cached at the API server to avoid
  overloading the authentication service;
* 2.76 % of authentication requests from API servers fail.

The simulated service keeps the token registry, mirrors the token cache
behaviour and counts requests so that Fig. 15 (authentication activity) can
be reproduced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.backend.errors import AuthenticationError

__all__ = ["AuthToken", "AuthenticationService", "TokenCache"]


@dataclass(frozen=True)
class AuthToken:
    """An OAuth-style token bound to a user id."""

    token: str
    user_id: int
    issued_at: float
    expires_at: float | None = None

    def is_valid(self, now: float) -> bool:
        """Whether the token can still be used at time ``now``."""
        return self.expires_at is None or now < self.expires_at


class TokenCache:
    """Per-API-server cache of validated tokens (Section 3.4.1)."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._entries: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def get(self, token: str) -> int | None:
        """Cached user id for ``token`` or None."""
        user_id = self._entries.get(token)
        if user_id is None:
            self.misses += 1
            return None
        self.hits += 1
        return user_id

    def put(self, token: str, user_id: int) -> None:
        """Cache a validated token."""
        if len(self._entries) >= self._capacity:
            # FIFO eviction keeps the implementation simple and deterministic.
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[token] = user_id


class AuthenticationService:
    """The shared Canonical authentication service."""

    def __init__(self, rng: np.random.Generator | None = None,
                 failure_fraction: float = 0.0276):
        if not 0.0 <= failure_fraction < 1.0:
            raise ValueError("failure_fraction must be in [0, 1)")
        self._rng = rng or np.random.default_rng(0)
        self._failure_fraction = failure_fraction
        self._tokens_by_user: dict[int, AuthToken] = {}
        self._users_by_token: dict[str, AuthToken] = {}
        self.requests = 0
        self.failures = 0
        self.token_issues = 0

    # --------------------------------------------------------------- tokens
    def _mint_token(self, user_id: int, now: float) -> AuthToken:
        material = f"u1-token:{user_id}:{self.token_issues}"
        token = AuthToken(
            token=hashlib.sha256(material.encode()).hexdigest()[:32],
            user_id=user_id,
            issued_at=now,
        )
        self.token_issues += 1
        self._tokens_by_user[user_id] = token
        self._users_by_token[token.token] = token
        return token

    def issue_token(self, user_id: int, now: float) -> AuthToken:
        """First-connection flow: credentials exchanged for a new token."""
        self.requests += 1
        return self._mint_token(user_id, now)

    def token_for(self, user_id: int, now: float) -> AuthToken:
        """Return the user's current token, minting one if needed."""
        token = self._tokens_by_user.get(user_id)
        if token is None or not token.is_valid(now):
            return self.issue_token(user_id, now)
        return token

    # ----------------------------------------------------------- validation
    def validate(self, token: str, now: float, force_failure: bool = False) -> int:
        """Validate a token and return the associated user id.

        Raises :class:`AuthenticationError` when the token is unknown or
        expired, or when a transient failure is injected (``force_failure`` or the configured failure fraction).
        """
        self.requests += 1
        if force_failure or self._rng.random() < self._failure_fraction:
            self.failures += 1
            raise AuthenticationError("transient authentication failure")
        entry = self._users_by_token.get(token)
        if entry is None or not entry.is_valid(now):
            self.failures += 1
            raise AuthenticationError("unknown or expired token")
        return entry.user_id

    @property
    def failure_ratio(self) -> float:
        """Observed fraction of failed authentication requests."""
        return self.failures / self.requests if self.requests else 0.0
