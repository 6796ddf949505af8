"""Unit tests for the uploadjob state machine (Appendix A / Fig. 17)."""

from __future__ import annotations

import pytest

from repro.backend.errors import InvalidTransitionError
from repro.backend.uploadjob import (
    GARBAGE_COLLECTION_AGE,
    UPLOAD_CHUNK_BYTES,
    UploadJob,
    UploadJobState,
)


def _job(total_bytes=12 * 1024 * 1024, chunk=5 * 1024 * 1024) -> UploadJob:
    return UploadJob(job_id=1, user_id=7, node_id=3, volume_id=2,
                     content_hash="sha1:abc", total_bytes=total_bytes,
                     created_at=1000.0, chunk_bytes=chunk)


class TestHappyPath:
    def test_chunk_size_is_5mb(self):
        assert UPLOAD_CHUNK_BYTES == 5 * 1024 * 1024
        job = UploadJob(job_id=1, user_id=7, node_id=3, volume_id=2,
                        content_hash="sha1:abc", total_bytes=1, created_at=0.0)
        assert job.chunk_bytes == UPLOAD_CHUNK_BYTES

    def test_full_lifecycle(self):
        job = _job()
        assert job.state is UploadJobState.CREATED
        assert job.expected_parts == 3

        job.assign_multipart_id("mp-1", when=1001.0)
        assert job.state is UploadJobState.MULTIPART_ASSIGNED

        assert job.add_part(5 * 1024 * 1024, when=1002.0) == 1
        assert job.add_part(5 * 1024 * 1024, when=1003.0) == 2
        assert not job.is_complete
        assert job.add_part(2 * 1024 * 1024, when=1004.0) == 3
        assert job.is_complete
        assert job.progress == pytest.approx(1.0)

        job.commit(when=1005.0)
        assert job.state is UploadJobState.COMMITTED
        assert job.state.is_terminal

    def test_resume_point_tracks_uploaded_bytes(self):
        job = _job()
        job.assign_multipart_id("mp-1", when=1001.0)
        job.add_part(5 * 1024 * 1024, when=1002.0)
        assert job.uploaded_bytes == 5 * 1024 * 1024

    def test_zero_byte_upload(self):
        job = _job(total_bytes=0)
        assert job.expected_parts == 0
        assert job.is_complete
        job.assign_multipart_id("mp-1", when=1001.0)
        job.commit(when=1002.0)
        assert job.state is UploadJobState.COMMITTED


class TestInvalidTransitions:
    def test_add_part_before_multipart_id(self):
        job = _job()
        with pytest.raises(InvalidTransitionError):
            job.add_part(1024, when=1001.0)

    def test_commit_before_completion(self):
        job = _job()
        job.assign_multipart_id("mp-1", when=1001.0)
        job.add_part(1024, when=1002.0)
        with pytest.raises(InvalidTransitionError):
            job.commit(when=1003.0)

    def test_part_overflow_rejected(self):
        job = _job(total_bytes=1024, chunk=4096)
        job.assign_multipart_id("mp-1", when=1001.0)
        with pytest.raises(InvalidTransitionError):
            job.add_part(2048, when=1002.0)

    def test_part_larger_than_chunk_rejected(self):
        job = _job()
        job.assign_multipart_id("mp-1", when=1001.0)
        with pytest.raises(ValueError):
            job.add_part(6 * 1024 * 1024, when=1002.0)

    def test_double_multipart_assignment(self):
        job = _job()
        job.assign_multipart_id("mp-1", when=1001.0)
        with pytest.raises(InvalidTransitionError):
            job.assign_multipart_id("mp-2", when=1002.0)

    def test_empty_multipart_id_rejected(self):
        with pytest.raises(ValueError):
            _job().assign_multipart_id("", when=1001.0)

    def test_cancel_twice_rejected(self):
        job = _job()
        job.cancel(when=1001.0)
        with pytest.raises(InvalidTransitionError):
            job.cancel(when=1002.0)

    def test_terminal_states_reject_everything(self):
        job = _job()
        job.assign_multipart_id("mp-1", when=1001.0)
        job.cancel(when=1002.0)
        with pytest.raises(InvalidTransitionError):
            job.add_part(1024, when=1003.0)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            UploadJob(job_id=1, user_id=1, node_id=1, volume_id=1,
                      content_hash="x", total_bytes=-1, created_at=0.0)


class TestGarbageCollection:
    def test_touch_refreshes_young_jobs(self):
        job = _job()
        assert job.touch(when=job.created_at + 3600.0) is False
        assert job.state is UploadJobState.CREATED

    def test_touch_collects_stale_jobs(self):
        job = _job()
        job.assign_multipart_id("mp-1", when=1001.0)
        collected = job.touch(when=1001.0 + GARBAGE_COLLECTION_AGE + 1.0)
        assert collected
        assert job.state is UploadJobState.GARBAGE_COLLECTED

    def test_touch_never_collects_terminal_jobs(self):
        job = _job()
        job.cancel(when=1001.0)
        assert job.touch(when=1e12) is False
        assert job.state is UploadJobState.CANCELLED
