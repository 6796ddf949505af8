"""Unit tests for repro.util.units."""

from __future__ import annotations

import pytest

from repro.util.units import (
    DAY,
    GB,
    HOUR,
    KB,
    MB,
    TB,
    format_bytes,
    format_duration,
)


class TestConstants:
    def test_byte_units_are_powers_of_1024(self):
        assert MB == 1024 * KB
        assert GB == 1024 * MB
        assert TB == 1024 * GB

    def test_time_units(self):
        assert HOUR == 3600
        assert DAY == 24 * HOUR


class TestFormatBytes:
    @pytest.mark.parametrize("value,expected", [
        (0, "0 B"),
        (512, "512 B"),
        (2 * KB, "2.00 KB"),
        (3 * MB, "3.00 MB"),
        (5 * GB, "5.00 GB"),
        (2 * TB, "2.00 TB"),
    ])
    def test_formats(self, value, expected):
        assert format_bytes(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestFormatDuration:
    def test_minutes(self):
        assert format_duration(90) == "1.5 min"

    def test_days(self):
        assert format_duration(2 * DAY) == "2.0 days"

    def test_seconds(self):
        assert format_duration(0.5) == "0.500 s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-3)


