"""Byte-size constants and helpers.

The paper reports traffic in MBytes/GBytes/TBytes and bins files by size in
MBytes (Fig. 2b, Fig. 4b).  These helpers keep the unit conversions in a
single place.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB
TB: int = 1024 * GB

SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0
DAY: float = 86400.0
WEEK: float = 7 * DAY
MONTH: float = 30 * DAY


def format_bytes(num_bytes: float) -> str:
    """Render a byte count using the largest sensible binary unit.

    >>> format_bytes(2048)
    '2.00 KB'
    >>> format_bytes(3 * 1024 ** 3)
    '3.00 GB'
    """
    if num_bytes < 0:
        raise ValueError("byte count must be non-negative")
    for unit, name in ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")):
        if num_bytes >= unit:
            return f"{num_bytes / unit:.2f} {name}"
    return f"{num_bytes:.0f} B"


def format_duration(seconds: float) -> str:
    """Render a duration using the largest sensible unit.

    >>> format_duration(90)
    '1.5 min'
    """
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    for unit, name in ((DAY, "days"), (HOUR, "h"), (MINUTE, "min")):
        if seconds >= unit:
            return f"{seconds / unit:.1f} {name}"
    return f"{seconds:.3f} s"


