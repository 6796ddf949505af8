"""Unit tests for the authentication service and token cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.auth import AuthenticationService, TokenCache
from repro.backend.errors import AuthenticationError


@pytest.fixture
def auth() -> AuthenticationService:
    return AuthenticationService(rng=np.random.default_rng(0), failure_fraction=0.0)


class TestTokens:
    def test_issue_and_validate(self, auth):
        token = auth.issue_token(user_id=42, now=100.0)
        assert auth.validate(token.token, now=200.0) == 42

    def test_token_for_reuses_existing(self, auth):
        first = auth.token_for(7, now=0.0)
        second = auth.token_for(7, now=50.0)
        assert first.token == second.token

    def test_distinct_users_get_distinct_tokens(self, auth):
        assert auth.token_for(1, 0.0).token != auth.token_for(2, 0.0).token

    def test_unknown_token_rejected(self, auth):
        with pytest.raises(AuthenticationError):
            auth.validate("bogus", now=0.0)

    def test_forced_failure(self, auth):
        token = auth.token_for(1, 0.0)
        with pytest.raises(AuthenticationError):
            auth.validate(token.token, now=1.0, force_failure=True)
        assert auth.failure_ratio > 0

    def test_forced_failure_draws_no_random_number(self):
        # A forced denial short-circuits before the failure-fraction draw,
        # so denied opens leave the service's draw sequence untouched.
        rng = np.random.default_rng(3)
        auth = AuthenticationService(rng=rng, failure_fraction=0.5)
        token = auth.token_for(1, 0.0)
        state = rng.bit_generator.state
        with pytest.raises(AuthenticationError):
            auth.validate(token.token, 1.0, True)
        assert rng.bit_generator.state == state

    def test_random_failures_close_to_configured_rate(self):
        auth = AuthenticationService(rng=np.random.default_rng(1),
                                     failure_fraction=0.1)
        token = auth.token_for(1, 0.0)
        failures = 0
        for _ in range(2000):
            try:
                auth.validate(token.token, now=1.0)
            except AuthenticationError:
                failures += 1
        assert 0.05 < failures / 2000 < 0.16

    def test_failure_fraction_validation(self):
        with pytest.raises(ValueError):
            AuthenticationService(failure_fraction=1.0)



class TestTokenCache:
    def test_hit_and_miss_accounting(self):
        cache = TokenCache(capacity=2)
        assert cache.get("t1") is None
        cache.put("t1", 1)
        assert cache.get("t1") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_fifo_eviction(self):
        cache = TokenCache(capacity=2)
        cache.put("t1", 1)
        cache.put("t2", 2)
        cache.put("t3", 3)
        assert cache.get("t1") is None
        assert cache.get("t3") == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TokenCache(capacity=0)
