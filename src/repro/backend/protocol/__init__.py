"""The U1 storage protocol's entities (Section 3.1).

The protocol (``ubuntuone-storageprotocol`` in the real system, TCP +
protocol buffers) defines three entity types — nodes, volumes and sessions —
and the API operations clients can issue against them
(:class:`~repro.trace.records.ApiOperation`).  The simulator keeps the same
vocabulary so that the emitted trace speaks the paper's language.
"""

from repro.backend.protocol.entities import (
    Node,
    NodeId,
    Volume,
    VolumeId,
    SessionHandle,
)

__all__ = [
    "Node",
    "NodeId",
    "Volume",
    "VolumeId",
    "SessionHandle",
]
