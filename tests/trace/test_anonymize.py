"""Unit tests for repro.trace.anonymize."""

from __future__ import annotations

from repro.trace.anonymize import Anonymizer
from repro.trace.dataset import TraceDataset
from tests.conftest import make_rpc, make_session, make_storage


class TestAnonymizer:
    def test_user_mapping_is_stable(self):
        anonymizer = Anonymizer()
        assert anonymizer.anonymize_user_id(42) == anonymizer.anonymize_user_id(42)
        assert anonymizer.anonymize_user_id(42) != anonymizer.anonymize_user_id(43)

    def test_different_secrets_give_different_mappings(self):
        a = Anonymizer(secret=b"one")
        b = Anonymizer(secret=b"two")
        assert a.anonymize_user_id(42) != b.anonymize_user_id(42)

    def test_node_zero_stays_zero(self):
        anonymizer = Anonymizer()
        assert anonymizer.anonymize_node_id(0) == 0
        # Any other id is pseudonymised: deterministically, never to itself.
        assert anonymizer.anonymize_node_id(5) == Anonymizer().anonymize_node_id(5)
        assert anonymizer.anonymize_node_id(5) != 5

    def test_hash_mapping_preserves_equality(self):
        anonymizer = Anonymizer()
        assert anonymizer.anonymize_hash("sha1:aaa") == anonymizer.anonymize_hash("sha1:aaa")
        assert anonymizer.anonymize_hash("sha1:aaa") != anonymizer.anonymize_hash("sha1:bbb")
        assert anonymizer.anonymize_hash("") == ""

    def test_extension_preserved_or_stripped(self):
        dataset = TraceDataset(storage=[make_storage(extension="mp3")])
        keep = Anonymizer(preserve_extensions=True).anonymize(dataset)
        strip = Anonymizer(preserve_extensions=False).anonymize(dataset)
        assert keep.storage[0].extension == "mp3"
        assert strip.storage[0].extension == ""

    def test_dataset_anonymisation_preserves_structure(self):
        dataset = TraceDataset(
            storage=[make_storage(user_id=1, node_id=10, content_hash="h1"),
                     make_storage(user_id=1, node_id=10, content_hash="h1",
                                  timestamp=5),
                     make_storage(user_id=2, node_id=11, content_hash="h1",
                                  timestamp=9)],
            rpc=[make_rpc(user_id=1)], sessions=[make_session(user_id=2)])
        anonymous = Anonymizer().anonymize(dataset)

        assert len(anonymous) == len(dataset)
        # Same user/node/hash keep the same pseudonym across records.
        assert anonymous.storage[0].user_id == anonymous.storage[1].user_id
        assert anonymous.storage[0].node_id == anonymous.storage[1].node_id
        assert anonymous.storage[0].content_hash == anonymous.storage[2].content_hash
        # Different users map to different pseudonyms.
        assert anonymous.storage[0].user_id != anonymous.storage[2].user_id
        # Raw identifiers never leak through.
        assert anonymous.storage[0].user_id != 1
        assert anonymous.storage[0].content_hash != "h1"
        # Timestamps, sizes and operations are untouched.
        assert anonymous.storage[1].timestamp == dataset.storage[1].timestamp
        assert anonymous.storage[1].size_bytes == dataset.storage[1].size_bytes
