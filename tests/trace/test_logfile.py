"""Unit tests for repro.trace.logfile (naming, CSV round-trip)."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.trace.dataset import TraceDataset
from repro.trace.logfile import (
    LogfileName,
    ParseError,
    read_trace_directory,
    write_trace_directory,
)
from repro.trace.records import ApiOperation, RpcName, SessionEvent
from tests.conftest import make_rpc, make_session, make_storage


class TestLogfileName:
    def test_parse_paper_example(self):
        name = LogfileName.parse("production-whitecurrant-23-20140128")
        assert name.environment == "production"
        assert name.machine == "whitecurrant"
        assert name.process == 23
        assert name.date == dt.date(2014, 1, 28)

    def test_round_trip(self):
        name = LogfileName(environment="production", machine="gooseberry",
                           process=7, date=dt.date(2014, 2, 3))
        assert LogfileName.parse(str(name)) == name

    def test_machine_names_with_dashes(self):
        name = LogfileName.parse("production-api-node-1-3-20140115")
        assert name.machine == "api-node-1"
        assert name.process == 3

    def test_csv_suffix_accepted(self):
        name = LogfileName.parse("production-whitecurrant-23-20140128.csv")
        assert name.process == 23

    @pytest.mark.parametrize("bad", [
        "whitecurrant-23", "production--23-20140128", "production-x-y-z",
        "production-x-1-2014012",
    ])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ParseError):
            LogfileName.parse(bad)

    def test_for_record_uses_utc_date(self, tmp_path):
        record = make_storage(timestamp=0.0, server="whitecurrant", process=5)
        (path,) = write_trace_directory(tmp_path, TraceDataset(storage=[record]))
        name = LogfileName.parse(path.name)
        assert name.machine == "whitecurrant"
        assert name.process == 5
        assert name.date == dt.date(2014, 1, 11)


class TestRoundTrip:
    def _sample_records(self):
        return [
            make_storage(timestamp=1, operation=ApiOperation.UPLOAD, size_bytes=123,
                         content_hash="abc", extension="mp3", is_update=True),
            make_rpc(timestamp=2, rpc=RpcName.MAKE_FILE, service_time=0.012,
                     shard_id=4),
            make_session(timestamp=3, event=SessionEvent.DISCONNECT,
                         session_length=55.5, storage_operations=7),
        ]

    @staticmethod
    def _dataset(records) -> TraceDataset:
        storage, rpc, session = records
        return TraceDataset(storage=[storage], rpc=[rpc], sessions=[session])

    def test_logfile_round_trip(self, tmp_path):
        records = self._sample_records()
        paths = write_trace_directory(tmp_path, self._dataset(records))
        assert [path.name for path in paths] == ["production-api0-0-20140111.csv"]
        loaded = read_trace_directory(tmp_path)
        assert [*loaded.storage, *loaded.rpc, *loaded.sessions] == records

    def test_malformed_rows_raise_or_skip(self, tmp_path):
        (path,) = write_trace_directory(tmp_path,
                                        self._dataset(self._sample_records()))
        rows = path.read_text().splitlines()
        # A storage row in the layout before the outcome columns is valid.
        old_layout = rows[0].rsplit(",", 2)[0]
        path.write_text("\n".join(rows + [old_layout, "garbage,row"]) + "\n")
        with pytest.raises(ParseError):
            read_trace_directory(tmp_path)
        loaded = read_trace_directory(tmp_path, skip_malformed=True)
        assert len(loaded) == 4
        assert (loaded.storage[-1].error_kind, loaded.storage[-1].retries) == ("", 0)

    def test_directory_round_trip(self, tmp_path):
        records = [[], [], []]
        for day in range(2):
            for stream, record in zip(records, self._sample_records()):
                record.timestamp += day * 86400.0
                stream.append(record)
        dataset = TraceDataset(*records)
        paths = write_trace_directory(tmp_path / "trace", dataset)
        assert len(paths) == 2  # one logfile per day (same server/process)
        loaded = read_trace_directory(tmp_path / "trace")
        assert len(loaded) == len(dataset)
        assert loaded.upload_bytes() == dataset.upload_bytes()

    def test_directory_ignores_non_csv(self, tmp_path):
        directory = tmp_path / "trace"
        directory.mkdir()
        (directory / "README.txt").write_text("not a logfile")
        loaded = read_trace_directory(directory)
        assert loaded.is_empty
