"""Unit tests for the S3-like object store."""

from __future__ import annotations

import pytest

from repro.backend.datastore import ObjectStore
from repro.backend.errors import InvalidTransitionError, UnknownContentError
from repro.util.units import MB


class TestSimplePut:
    def test_put_and_get(self):
        store = ObjectStore()
        assert store.put("h1", 1000) is True
        assert "h1" in store
        assert store.size_of("h1") == 1000
        assert store.get("h1") == 1000
        assert store.accounting.bytes_downloaded == 1000

    def test_duplicate_put_is_deduplicated(self):
        store = ObjectStore()
        store.put("h1", 1000)
        assert store.put("h1", 1000) is False
        assert store.accounting.bytes_stored == 1000
        assert store.accounting.logical_bytes == 2000
        assert store.accounting.dedup_hits == 1
        assert store.deduplication_ratio() == pytest.approx(0.5)

    def test_link_requires_existing_content(self):
        store = ObjectStore()
        with pytest.raises(UnknownContentError):
            store.link("missing")
        store.put("h1", 500)
        store.link("h1")
        assert store._refcounts.get("h1", 0) == 2
        assert store.accounting.dedup_saved_bytes == 500

    def test_unlink_respects_refcounts(self):
        store = ObjectStore()
        store.put("h1", 100)
        store.link("h1")
        assert store.unlink("h1") is False      # still referenced
        assert store.unlink("h1") is True       # physically removed
        assert "h1" not in store
        assert store.unlink("h1") is False      # already gone

    def test_get_unknown_content_raises(self):
        with pytest.raises(UnknownContentError):
            ObjectStore().get("nope")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ObjectStore().put("h1", -1)
        with pytest.raises(ValueError):
            ObjectStore(chunk_bytes=0)

    def test_monthly_cost_estimate(self):
        store = ObjectStore()
        store.put("h1", 1024 ** 3)
        assert store.accounting.monthly_cost_estimate() == pytest.approx(0.03)


class TestMultipart:
    def test_multipart_lifecycle(self):
        store = ObjectStore(chunk_bytes=5 * MB)
        multipart_id = store.initiate_multipart("h-big", 12 * MB)
        assert store.pending_multiparts() == 1
        assert store.upload_part(multipart_id, 5 * MB) == 1
        assert store.upload_part(multipart_id, 5 * MB) == 2
        assert store.upload_part(multipart_id, 2 * MB) == 3
        stored = store.complete_multipart(multipart_id, "h-big")
        assert stored == 12 * MB
        assert store.pending_multiparts() == 0
        assert store.size_of("h-big") == 12 * MB
        assert store.accounting.bytes_uploaded == 12 * MB

    def test_abort_discards_parts(self):
        store = ObjectStore()
        multipart_id = store.initiate_multipart("h", 10 * MB)
        store.upload_part(multipart_id, 5 * MB)
        store.abort_multipart(multipart_id)
        assert store.pending_multiparts() == 0
        assert "h" not in store

    def test_unknown_multipart_id(self):
        store = ObjectStore()
        with pytest.raises(UnknownContentError):
            store.upload_part("mp-404", 100)

    def test_complete_twice_rejected(self):
        store = ObjectStore()
        multipart_id = store.initiate_multipart("h", 1 * MB)
        store.upload_part(multipart_id, 1 * MB)
        store.complete_multipart(multipart_id, "h")
        with pytest.raises(UnknownContentError):
            store.complete_multipart(multipart_id, "h")

    def test_part_after_abort_rejected(self):
        store = ObjectStore()
        multipart_id = store.initiate_multipart("h", 1 * MB)
        upload = store._multipart(multipart_id)  # noqa: SLF001 - white-box check
        upload.aborted = True
        with pytest.raises(InvalidTransitionError):
            upload.add_part(100)

    def test_multipart_dedup_on_completion(self):
        store = ObjectStore()
        store.put("h-dup", 3 * MB)
        multipart_id = store.initiate_multipart("h-dup", 3 * MB)
        store.upload_part(multipart_id, 3 * MB)
        store.complete_multipart(multipart_id, "h-dup")
        assert store.accounting.dedup_hits == 1
        assert store.accounting.bytes_stored == 3 * MB
