"""Table 1: comparison of packet-processing capabilities."""

from __future__ import annotations

from typing import List, Tuple

from repro.perfmodel.devices import table1_rows


def table1() -> List[Tuple[str, str, str, str]]:
    """(device, packets per sec, bandwidth, processing delay) rows of Table 1."""
    return table1_rows()
