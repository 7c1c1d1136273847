"""Memory request types exchanged between the CPU model and the DRAM."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class RequestType(enum.Enum):
    """Direction of a memory request (read or write)."""

    READ = "read"
    WRITE = "write"


@dataclass
class MemoryRequest:
    """One cache-line request from a core to a memory channel.

    Times are in memory-bus cycles.  ``instruction_pos`` ties a read
    back to the issuing core's trace position so the ROB model knows
    which retirement it unblocks.
    """

    req_type: RequestType
    core: int
    channel: int
    rank: int
    bank: int
    row: int
    column: int
    arrival: float
    instruction_pos: int = 0
    #: Set when the request is a scheme-generated companion (e.g. the
    #: extra ECC transaction of Figure 13) rather than demand traffic.
    companion: bool = False
    issue_time: Optional[float] = None
    completion_time: Optional[float] = None
