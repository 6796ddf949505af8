"""Record types of the U1 back-end trace.

The vocabulary follows Section 3.1 and Section 4 of the paper:

* API operations (Table 2): ``ListVolumes``, ``ListShares``, ``PutContent``
  (Upload), ``GetContent`` (Download), ``Make``, ``Unlink``, ``Move``,
  ``CreateUDF``, ``DeleteVolume``, ``GetDelta`` and ``Authenticate``, plus
  the session open/close and client-side maintenance operations that appear
  in the user-centric request graph (Fig. 8).
* RPC calls (Table 2 and Table 4 / Fig. 12): the ``dal.*`` data-access-layer
  calls issued by RPC workers against the sharded PostgreSQL metadata store
  and the ``auth.*`` call against the Canonical authentication service.
* Session events: connects, disconnects and authentication outcomes.

Every record carries the provenance the paper's logfiles carry: the physical
machine name, the server process number on that machine and a timestamp.
Timestamps are POSIX seconds; :data:`TRACE_EPOCH` is the start of the
measurement window (2014-01-11 00:00 UTC).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "TRACE_EPOCH",
    "DATA_MANAGEMENT_OPERATIONS",
    "MUTATING_OPERATIONS",
    "ApiOperation",
    "VolumeType",
    "NodeKind",
    "RpcName",
    "RpcClass",
    "SessionEvent",
    "StorageRecord",
    "RpcRecord",
    "SessionRecord",
    "RPC_CLASS_BY_NAME",
    "rpc_class_of",
]

#: POSIX timestamp of 2014-01-11 00:00:00 UTC, the start of the 30-day trace.
TRACE_EPOCH: float = 1389398400.0


class ApiOperation(str, enum.Enum):
    """API operations issued by desktop clients (Table 2 / Fig. 7a / Fig. 8)."""

    UPLOAD = "Upload"                     # PutContent
    DOWNLOAD = "Download"                 # GetContent
    MAKE = "Make"                         # make file / make dir
    UNLINK = "Unlink"
    MOVE = "Move"
    CREATE_UDF = "CreateUDF"
    DELETE_VOLUME = "DeleteVolume"
    GET_DELTA = "GetDelta"
    LIST_VOLUMES = "ListVolumes"
    LIST_SHARES = "ListShares"
    AUTHENTICATE = "Authenticate"
    OPEN_SESSION = "OpenSession"
    CLOSE_SESSION = "CloseSession"
    QUERY_SET_CAPS = "QuerySetCaps"
    RESCAN_FROM_SCRATCH = "RescanFromScratch"

    @property
    def is_data_management(self) -> bool:
        """True for operations that manage data/metadata in user volumes.

        The paper calls a user *active* in a given hour when the user issues
        data-management operations (uploads, downloads, makes, deletions,
        moves, volume management), as opposed to session maintenance.
        """
        return self in _DATA_MANAGEMENT_OPERATIONS

    @property
    def is_transfer(self) -> bool:
        """True for operations that move file contents to/from Amazon S3."""
        return self in (ApiOperation.UPLOAD, ApiOperation.DOWNLOAD)

_DATA_MANAGEMENT_OPERATIONS = frozenset({
    ApiOperation.UPLOAD,
    ApiOperation.DOWNLOAD,
    ApiOperation.MAKE,
    ApiOperation.UNLINK,
    ApiOperation.MOVE,
    ApiOperation.CREATE_UDF,
    ApiOperation.DELETE_VOLUME,
})

#: Public view of the data-management operation set, for hot paths that
#: prefer one frozenset lookup over the per-record enum property.
DATA_MANAGEMENT_OPERATIONS = _DATA_MANAGEMENT_OPERATIONS

#: Operations that change metadata: a fault window may reject them as
#: writes, and a successful one notifies the user's other sessions.  The
#: live request path and the offline fault simulator both classify by it.
MUTATING_OPERATIONS = frozenset({
    ApiOperation.UPLOAD,
    ApiOperation.UNLINK,
    ApiOperation.MAKE,
    ApiOperation.MOVE,
    ApiOperation.CREATE_UDF,
    ApiOperation.DELETE_VOLUME,
})


class VolumeType(str, enum.Enum):
    """The three volume types of the U1 storage protocol (Section 3.1.1)."""

    ROOT = "root"
    UDF = "udf"
    SHARED = "shared"


class NodeKind(str, enum.Enum):
    """Nodes are either files or directories (Section 3.1.1)."""

    FILE = "file"
    DIRECTORY = "directory"


class RpcName(str, enum.Enum):
    """RPC calls against the metadata store / auth service.

    Grouped exactly as in Fig. 12: file-system management RPCs, upload
    management RPCs (Table 4, Appendix A) and other read-only RPCs.
    """

    # -- file-system management (Table 2, Fig. 12a) -------------------------
    LIST_VOLUMES = "dal.list_volumes"
    LIST_SHARES = "dal.list_shares"
    MAKE_DIR = "dal.make_dir"
    MAKE_FILE = "dal.make_file"
    UNLINK_NODE = "dal.unlink_node"
    MOVE = "dal.move"
    CREATE_UDF = "dal.create_udf"
    DELETE_VOLUME = "dal.delete_volume"
    GET_DELTA = "dal.get_delta"
    GET_VOLUME_ID = "dal.get_volume_id"
    # -- upload management (Table 4, Fig. 12b) -------------------------------
    MAKE_CONTENT = "dal.make_content"
    MAKE_UPLOADJOB = "dal.make_uploadjob"
    GET_UPLOADJOB = "dal.get_uploadjob"
    ADD_PART_TO_UPLOADJOB = "dal.add_part_to_uploadjob"
    SET_UPLOADJOB_MULTIPART_ID = "dal.set_uploadjob_multipart_id"
    TOUCH_UPLOADJOB = "dal.touch_uploadjob"
    DELETE_UPLOADJOB = "dal.delete_uploadjob"
    GET_REUSABLE_CONTENT = "dal.get_reusable_content"
    # -- other read-only RPCs (Fig. 12c) -------------------------------------
    GET_USER_ID_FROM_TOKEN = "auth.get_user_id_from_token"
    GET_FROM_SCRATCH = "dal.get_from_scratch"
    GET_NODE = "dal.get_node"
    GET_ROOT = "dal.get_root"
    GET_USER_DATA = "dal.get_user_data"


class RpcClass(str, enum.Enum):
    """RPC categories used in Fig. 13.

    ``READ`` RPCs exploit lockless parallel access to shard replicas and are
    the fastest; ``WRITE`` (write/update/delete) RPCs are slower; ``CASCADE``
    RPCs involve other operations (e.g. deleting a volume deletes all the
    nodes it contains) and are more than an order of magnitude slower.
    """

    READ = "read"
    WRITE = "write"
    CASCADE = "cascade"


RPC_CLASS_BY_NAME: dict[RpcName, RpcClass] = {
    RpcName.LIST_VOLUMES: RpcClass.READ,
    RpcName.LIST_SHARES: RpcClass.READ,
    RpcName.GET_DELTA: RpcClass.READ,
    RpcName.GET_VOLUME_ID: RpcClass.READ,
    RpcName.GET_UPLOADJOB: RpcClass.READ,
    RpcName.GET_REUSABLE_CONTENT: RpcClass.READ,
    RpcName.GET_USER_ID_FROM_TOKEN: RpcClass.READ,
    RpcName.GET_NODE: RpcClass.READ,
    RpcName.GET_ROOT: RpcClass.READ,
    RpcName.GET_USER_DATA: RpcClass.READ,
    RpcName.MAKE_DIR: RpcClass.WRITE,
    RpcName.MAKE_FILE: RpcClass.WRITE,
    RpcName.UNLINK_NODE: RpcClass.WRITE,
    RpcName.MOVE: RpcClass.WRITE,
    RpcName.CREATE_UDF: RpcClass.WRITE,
    RpcName.MAKE_CONTENT: RpcClass.WRITE,
    RpcName.MAKE_UPLOADJOB: RpcClass.WRITE,
    RpcName.ADD_PART_TO_UPLOADJOB: RpcClass.WRITE,
    RpcName.SET_UPLOADJOB_MULTIPART_ID: RpcClass.WRITE,
    RpcName.TOUCH_UPLOADJOB: RpcClass.WRITE,
    RpcName.DELETE_UPLOADJOB: RpcClass.WRITE,
    RpcName.DELETE_VOLUME: RpcClass.CASCADE,
    RpcName.GET_FROM_SCRATCH: RpcClass.CASCADE,
}


def rpc_class_of(name: RpcName) -> RpcClass:
    """Return the :class:`RpcClass` of an RPC name."""
    return RPC_CLASS_BY_NAME[name]


class SessionEvent(str, enum.Enum):
    """Session-management events captured in the trace (Section 7.3)."""

    CONNECT = "connect"
    DISCONNECT = "disconnect"
    AUTH_REQUEST = "auth_request"
    AUTH_OK = "auth_ok"
    AUTH_FAIL = "auth_fail"


@dataclass(slots=True)
class StorageRecord:
    """One completed API (storage) operation.

    Attributes mirror what the production logfiles expose after
    anonymisation: no file names or contents, only sizes, opaque content
    hashes and the file extension (kept by Canonical to enable the
    file-type analyses of Section 5.3).
    """

    timestamp: float
    server: str
    process: int
    user_id: int
    session_id: int
    operation: ApiOperation
    node_id: int = 0
    volume_id: int = 0
    volume_type: VolumeType = VolumeType.ROOT
    node_kind: NodeKind = NodeKind.FILE
    size_bytes: int = 0
    content_hash: str = ""
    extension: str = ""
    is_update: bool = False
    shard_id: int = -1
    caused_by_attack: bool = False
    #: Outcome of the request: "" for success, else the injected-fault kind
    #: ("service_unavailable", "shard_read_only", "storage_node_down"; see
    #: :mod:`repro.backend.errors`).
    error_kind: str = ""
    #: Retry attempts the API server's mitigation made before this outcome.
    retries: int = 0

    @property
    def failed(self) -> bool:
        """True when the request ended in a user-visible error."""
        return bool(self.error_kind)


@dataclass(slots=True)
class RpcRecord:
    """One RPC call against the metadata store, with its service time."""

    timestamp: float
    server: str
    process: int
    user_id: int
    session_id: int
    rpc: RpcName
    shard_id: int
    service_time: float
    api_operation: ApiOperation | None = None
    caused_by_attack: bool = False

    @property
    def rpc_class(self) -> RpcClass:
        """The read/write/cascade class of this RPC (Fig. 13)."""
        return rpc_class_of(self.rpc)


@dataclass(slots=True)
class SessionRecord:
    """One session-management event (connect/disconnect/authentication)."""

    timestamp: float
    server: str
    process: int
    user_id: int
    session_id: int
    event: SessionEvent
    caused_by_attack: bool = False
    # Metadata filled on DISCONNECT events so that session-level analyses do
    # not need to re-join connect/disconnect pairs: length of the session in
    # seconds and the number of storage operations it performed.
    session_length: float = field(default=-1.0)
    storage_operations: int = field(default=0)
