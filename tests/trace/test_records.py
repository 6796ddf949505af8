"""Unit tests for repro.trace.records."""

from __future__ import annotations

import pytest

from repro.trace.records import (
    DATA_MANAGEMENT_OPERATIONS,
    MUTATING_OPERATIONS,
    ApiOperation,
    RPC_CLASS_BY_NAME,
    RpcClass,
    RpcName,
    rpc_class_of,
)
from tests.conftest import make_rpc, make_session, make_storage


class TestApiOperation:
    def test_data_management_classification(self):
        assert ApiOperation.UPLOAD.is_data_management
        assert ApiOperation.UNLINK.is_data_management
        assert ApiOperation.DELETE_VOLUME.is_data_management
        assert not ApiOperation.LIST_VOLUMES.is_data_management
        assert not ApiOperation.GET_DELTA.is_data_management
        assert not ApiOperation.OPEN_SESSION.is_data_management

    def test_mutating_classification(self):
        # Every data-management operation but a download changes metadata.
        assert MUTATING_OPERATIONS == (DATA_MANAGEMENT_OPERATIONS
                                       - {ApiOperation.DOWNLOAD})

    def test_transfer_classification(self):
        assert ApiOperation.UPLOAD.is_transfer
        assert ApiOperation.DOWNLOAD.is_transfer
        assert not ApiOperation.MAKE.is_transfer

    def test_session_management_classification(self):
        # Session management is neither data management nor a transfer.
        for op in (ApiOperation.AUTHENTICATE, ApiOperation.OPEN_SESSION,
                   ApiOperation.CLOSE_SESSION):
            assert not op.is_data_management and not op.is_transfer

    def test_operations_from_table2_exist(self):
        expected = {"Upload", "Download", "Make", "Unlink", "Move", "CreateUDF",
                    "DeleteVolume", "GetDelta", "ListVolumes", "ListShares",
                    "Authenticate"}
        values = {op.value for op in ApiOperation}
        assert expected <= values


class TestRpcClassification:
    def test_every_rpc_has_a_class(self):
        for rpc in RpcName:
            assert rpc_class_of(rpc) in RpcClass

    def test_cascade_rpcs(self):
        assert rpc_class_of(RpcName.DELETE_VOLUME) is RpcClass.CASCADE
        assert rpc_class_of(RpcName.GET_FROM_SCRATCH) is RpcClass.CASCADE

    def test_read_rpcs(self):
        for rpc in (RpcName.LIST_VOLUMES, RpcName.GET_NODE, RpcName.GET_DELTA,
                    RpcName.GET_USER_ID_FROM_TOKEN):
            assert rpc_class_of(rpc) is RpcClass.READ

    def test_write_rpcs(self):
        for rpc in (RpcName.MAKE_FILE, RpcName.MAKE_CONTENT, RpcName.UNLINK_NODE,
                    RpcName.ADD_PART_TO_UPLOADJOB):
            assert rpc_class_of(rpc) is RpcClass.WRITE

    def test_mapping_is_total(self):
        assert set(RPC_CLASS_BY_NAME) == set(RpcName)

    def test_table4_upload_rpcs_present(self):
        upload_rpcs = {RpcName.ADD_PART_TO_UPLOADJOB, RpcName.DELETE_UPLOADJOB,
                       RpcName.GET_REUSABLE_CONTENT, RpcName.GET_UPLOADJOB,
                       RpcName.MAKE_CONTENT, RpcName.MAKE_UPLOADJOB,
                       RpcName.SET_UPLOADJOB_MULTIPART_ID, RpcName.TOUCH_UPLOADJOB}
        assert upload_rpcs <= set(RpcName)


class TestRecordConstruction:
    def test_storage_record_properties(self):
        assert not make_storage(operation=ApiOperation.UPLOAD).failed
        failed = make_storage(operation=ApiOperation.UPLOAD)
        failed.error_kind = "timeout"
        assert failed.failed

    def test_rpc_record_class_property(self):
        record = make_rpc(rpc=RpcName.DELETE_VOLUME)
        assert record.rpc_class is RpcClass.CASCADE

    def test_session_record_defaults(self):
        record = make_session()
        assert record.session_length == -1.0
        assert record.storage_operations == 0
