"""Runtime IFC sanitizer: differential checking of the fused label paths.

The kernel's hot paths (:mod:`repro.core.labelops`) are fused,
sparsity-aware implementations of the Figure 4 operations; the naive
:class:`~repro.core.labels.Label` operators are the executable
specification.  With the sanitizer enabled (``KernelConfig(sanitize=True)``,
``python -m repro run --sanitize``, or the ``REPRO_SANITIZE=1``
environment variable) every IPC is re-evaluated through the naive
operators and the two answers are compared:

- the delivery verdict of ``check_send`` must equal
  ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` (and requirement (4) ``DR ⊑ pR``)
  computed on plain Labels;
- the send-label effect must equal ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆)``;
- the receive-label effect must equal ``QR ← QR ⊔ DR`` exactly;
- monotonicity invariants must hold independently of the reference:
  absent a decontaminating ``DS`` the send label only ever rises, and
  the receive label only ever rises.

Disagreements are recorded as structured :class:`Violation` records
(surfaced through :class:`repro.sim.trace.FlowTracer` transcripts) and,
in strict mode (the default), raised as :class:`SanitizerViolation` —
any violation means a label-engine bug, never a program bug, so failing
loudly is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.chunks import ChunkedLabel
from repro.core.labels import Label
from repro.kernel.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.kernel.message import QueuedMessage
    from repro.kernel.ports import Port
    from repro.kernel.process import Task


class SanitizerViolation(SimulationError):
    """Raised in strict mode when fused and naive label math disagree."""


#: Violation kinds.
EFFECTIVE_SEND_MISMATCH = "effective-send-mismatch"
CHECK_MISMATCH = "check-mismatch"
SEND_EFFECT_MISMATCH = "send-effect-mismatch"
RECEIVE_EFFECT_MISMATCH = "receive-effect-mismatch"
SEND_LABEL_LOWERED = "send-label-lowered"
RECEIVE_LABEL_LOWERED = "receive-label-lowered"


@dataclass(frozen=True)
class Violation:
    """One disagreement between the fused path and the specification."""

    seq: int
    kind: str
    sender: str
    receiver: str
    port: int
    detail: str

    def format(self) -> str:
        return (
            f"SANITIZER[{self.kind}] #{self.seq} "
            f"{self.sender} => {self.receiver} port={self.port:#x}: {self.detail}"
        )


@dataclass
class DeliverySnapshot:
    """Pre-delivery state + the naive prediction of what must happen."""

    qs_before: Label
    qr_before: Label
    es: Label
    ds: Label
    dr: Label
    expected_delivered: bool
    expected_qs: Optional[Label]
    expected_qr: Optional[Label]


class LabelSanitizer:
    """Cross-checks every IPC against the naive Label operators."""

    def __init__(self, kernel: "Kernel", strict: bool = True, sample: int = 1):
        self.kernel = kernel
        self.strict = strict
        #: Sampled sanitizing (repro.cluster's per-shard safety net): only
        #: every Nth send check or delivery is re-derived; N = 1 checks all.
        #: The sampled subset is a pure function of the IPC sequence.
        self.sample = sample
        self._tick = 0
        self.violations: List[Violation] = []
        self.checked_sends = 0
        self.checked_deliveries = 0
        self._seq = 0

    def due(self) -> bool:
        """True when this opportunity falls on the sample (the kernel asks
        before each send check and each delivery)."""
        self._tick += 1
        if self._tick < self.sample:
            return False
        self._tick = 0
        return True

    # -- recording ----------------------------------------------------------------

    def _record(
        self, kind: str, sender: str, receiver: str, port: int, detail: str
    ) -> None:
        self._seq += 1
        violation = Violation(self._seq, kind, sender, receiver, port, detail)
        self.violations.append(violation)
        self.kernel.debug_log("sanitizer", violation.format())
        if self.strict:
            raise SanitizerViolation(violation.format())

    # -- send-time hook (ES = PS ⊔ CS) ---------------------------------------------

    def check_effective_send(
        self,
        sender: str,
        port: int,
        ps: ChunkedLabel,
        cs: ChunkedLabel,
        es: ChunkedLabel,
    ) -> None:
        self.checked_sends += 1
        expected = ps.to_label() | cs.to_label()
        actual = es.to_label()
        if actual != expected:
            self._record(
                EFFECTIVE_SEND_MISMATCH,
                sender,
                "<send>",
                port,
                f"fused ES = PS ⊔ CS produced {actual!r}, naive gives {expected!r}",
            )

    # -- delivery hooks ------------------------------------------------------------

    def before_deliver(
        self, task: "Task", entry: "Port", qmsg: "QueuedMessage"
    ) -> DeliverySnapshot:
        qs = task.send_label.to_label()
        qr = task.receive_label.to_label()
        es = qmsg.effective_send.to_label()
        ds = qmsg.decontaminate_send.to_label()
        v = qmsg.verify.to_label()
        dr = qmsg.decontaminate_receive.to_label()
        pr = entry.label.to_label()
        # Figure 4 requirements (4) and (1) on plain labels.
        req4 = dr <= pr
        req1 = es <= ((qr | dr) & v & pr)
        expected = req4 and req1
        return DeliverySnapshot(
            qs_before=qs,
            qr_before=qr,
            es=es,
            ds=ds,
            dr=dr,
            expected_delivered=expected,
            expected_qs=((qs & ds) | (es & qs.stars())) if expected else None,
            expected_qr=(qr | dr) if expected else None,
        )

    def after_deliver(
        self,
        task: "Task",
        entry: "Port",
        qmsg: "QueuedMessage",
        delivered: bool,
        snapshot: DeliverySnapshot,
    ) -> None:
        self.checked_deliveries += 1
        sender = qmsg.sender_name
        receiver = task.name
        port = entry.handle
        if delivered != snapshot.expected_delivered:
            self._record(
                CHECK_MISMATCH,
                sender,
                receiver,
                port,
                f"fused delivery verdict {delivered}, naive Figure 4 check "
                f"says {snapshot.expected_delivered} "
                f"(ES={snapshot.es!r}, QR={snapshot.qr_before!r})",
            )
            return
        if not delivered:
            return
        qs_after = task.send_label.to_label()
        qr_after = task.receive_label.to_label()
        if snapshot.expected_qs is not None and qs_after != snapshot.expected_qs:
            self._record(
                SEND_EFFECT_MISMATCH,
                sender,
                receiver,
                port,
                f"QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆): fused {qs_after!r}, "
                f"naive {snapshot.expected_qs!r}",
            )
        if snapshot.expected_qr is not None and qr_after != snapshot.expected_qr:
            self._record(
                RECEIVE_EFFECT_MISMATCH,
                sender,
                receiver,
                port,
                f"QR ← QR ⊔ DR: fused {qr_after!r}, naive {snapshot.expected_qr!r}",
            )
        # Monotonicity invariants, independent of the reference computation.
        if snapshot.ds == Label.top() and not snapshot.qs_before <= qs_after:
            self._record(
                SEND_LABEL_LOWERED,
                sender,
                receiver,
                port,
                f"send label fell without a decontaminating DS: "
                f"{snapshot.qs_before!r} → {qs_after!r}",
            )
        if not snapshot.qr_before <= qr_after:
            self._record(
                RECEIVE_LABEL_LOWERED,
                sender,
                receiver,
                port,
                f"receive label fell on delivery: "
                f"{snapshot.qr_before!r} → {qr_after!r}",
            )

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> str:
        return (
            f"sanitizer: {self.checked_sends} sends and "
            f"{self.checked_deliveries} deliveries cross-checked, "
            f"{len(self.violations)} violations"
        )
