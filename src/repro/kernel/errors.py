"""Kernel error taxonomy.

Errors fall into two classes with very different security treatment:

- **Loud errors** (subclasses of :class:`KernelError`) are raised into the
  calling process.  They are only used where the failure reveals nothing
  about other processes' labels: malformed arguments, operating on a port
  the caller does not own, resource exhaustion of the caller's own memory.

- **Silent failures** never surface to any process.  Label checks that fail
  drop the message without notice (paper Section 4: reliable delivery
  notification would let a process leak information through careful label
  changes).  The kernel records these in a diagnostic
  :class:`DropLog` that tests and experiments may inspect out-of-band —
  the simulated programs themselves must never read it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple


class KernelError(Exception):
    """Base class for errors the kernel raises into the calling process."""


class InvalidArgument(KernelError):
    """Malformed syscall argument (bad label, unknown port, bad address)."""


class NotOwner(KernelError):
    """The caller does not hold receive rights for the port it named."""


class ResourceExhausted(KernelError):
    """The simulated machine is out of memory (or another hard resource)."""


class SimulationError(Exception):
    """A bug in simulation harness usage (not a modelled kernel error):
    e.g. yielding a non-syscall object, or calling ep_yield outside an
    event process."""


# -- silent-drop diagnostics ----------------------------------------------------

#: Reasons a message can be silently dropped.
DROP_LABEL_CHECK = "label-check"          # requirement (1) of Figure 4
DROP_DECONT_PRIVILEGE = "decont-privilege"  # requirements (2)/(3)
DROP_PORT_LABEL = "port-label"            # requirement (4)
DROP_DEAD_PORT = "dead-port"              # receiver exited / port dissociated
DROP_QUEUE_LIMIT = "queue-limit"          # resource exhaustion
DROP_FAULT = "fault-injected"             # repro.faults injected drop
DROP_REASONS = (
    DROP_LABEL_CHECK,
    DROP_DECONT_PRIVILEGE,
    DROP_PORT_LABEL,
    DROP_DEAD_PORT,
    DROP_QUEUE_LIMIT,
    DROP_FAULT,
)


#: Most recent drop records a :class:`DropLog` keeps for inspection.  The
#: per-reason counts stay exact however many drops fall off the tail.
DROP_TAIL = 1024


class DropLog:
    """Out-of-band record of silently dropped messages.

    Only the experiment harness and the test suite read this; simulated
    programs have no syscall that exposes it (it would otherwise be a
    storage channel).  It keeps exact counts (a total and one per reason)
    and the last :data:`DROP_TAIL` ``(reason, sender, where)`` records, so
    its memory stays fixed however long a run drops messages.
    """

    def __init__(self) -> None:
        self.total = 0
        self.by_reason: Dict[str, int] = {}
        self.tail: Deque[Tuple[str, str, str]] = deque(maxlen=DROP_TAIL)

    @property
    def records(self) -> List[Tuple[str, str, str]]:
        """The recent records, oldest first (at most :data:`DROP_TAIL`)."""
        return list(self.tail)

    def on_drop(self, reason: str, sender: str, where: str, seq: Optional[int]) -> None:
        """The kernel's drop event (this log is attached to every kernel)."""
        self.total += 1
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1
        self.tail.append((reason, sender, where))

    def count(self, reason: str = "") -> int:
        if not reason:
            return self.total
        return self.by_reason.get(reason, 0)

    def clear(self) -> None:
        self.total = 0
        self.by_reason.clear()
        self.tail.clear()
