"""The U1 storage protocol: entities and operations (Section 3.1).

The protocol (``ubuntuone-storageprotocol`` in the real system, TCP +
protocol buffers) defines three entity types — nodes, volumes and sessions —
and the API operations clients can issue against them.  The simulator keeps
the same vocabulary so that the emitted trace speaks the paper's language.
"""

from repro.backend.protocol.entities import (
    Node,
    NodeId,
    Volume,
    VolumeId,
    SessionHandle,
)
from repro.backend.protocol.operations import ApiRequest, ApiResponse, UPLOAD_CHUNK_BYTES

__all__ = [
    "Node",
    "NodeId",
    "Volume",
    "VolumeId",
    "SessionHandle",
    "ApiRequest",
    "ApiResponse",
    "UPLOAD_CHUNK_BYTES",
]
