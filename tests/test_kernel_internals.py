"""Kernel internals: scheduler, vnode table, ports, clock, memory report,
and the resource accounting the evaluation depends on."""

import pytest

from repro.analysis.sanitizer import EFFECTIVE_SEND_MISMATCH, RECEIVE_EFFECT_MISMATCH
from repro.core import labelops
from repro.core.chunks import ChunkedLabel
from repro.core.labels import Label
from repro.core.levels import L2, L3, STAR
from repro.kernel import (
    EpCheckpoint,
    EpYield,
    Kernel,
    KernelConfig,
    NewHandle,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
)
from repro.kernel.clock import CostModel, CycleClock, KERNEL_IPC, NETWORK
from repro.kernel.kernel import EVENTS
from repro.kernel.message import QueuedMessage
from repro.kernel.ports import Port
from repro.kernel.scheduler import Scheduler
from repro.kernel.vnodes import VNODE_BYTES, VnodeTable
from repro.sim.trace import FlowTracer


# -- scheduler ------------------------------------------------------------------


def test_scheduler_fifo_and_idempotent_enqueue():
    s = Scheduler()
    s.enqueue("a")
    s.enqueue("b")
    s.enqueue("a")          # no duplicate
    assert len(s) == 2
    assert s.dequeue() == "a"
    assert s.dequeue() == "b"
    assert not s


def test_scheduler_remove():
    s = Scheduler()
    s.enqueue("a")
    s.enqueue("b")
    s.remove("a")
    assert "a" not in s
    assert s.dequeue() == "b"
    s.remove("missing")     # no-op


# -- vnodes ---------------------------------------------------------------------


def test_vnode_lifecycle():
    table = VnodeTable()
    v = table.create(42, is_port=True, owner="p1")
    assert table.get(42) is v
    assert table.memory_bytes() == VNODE_BYTES
    table.incref(42)
    table.decref(42)
    assert table.get(42) is not None      # port alive, refs remain
    v.dissociated = True
    table.decref(42)
    assert table.get(42) is None


def test_vnode_duplicate_rejected():
    table = VnodeTable()
    table.create(1)
    with pytest.raises(AssertionError):
        table.create(1)


# -- ports ----------------------------------------------------------------------------


def _qmsg(seq=1, port=1):
    top = ChunkedLabel.from_label(Label.top())
    bottom = ChunkedLabel.from_label(Label.bottom())
    return QueuedMessage(
        seq=seq,
        port=port,
        payload=b"x" * 100,
        effective_send=bottom,
        decontaminate_send=top,
        verify=top,
        decontaminate_receive=bottom,
        sender_name="t",
        payload_bytes=100,
    )


def test_port_queue_and_memory():
    port = Port(handle=1, label=ChunkedLabel.from_label(Label.top()), owner="p1")
    assert port.enqueue(_qmsg())
    assert port.queued_bytes == 100
    assert port.memory_bytes() > 100
    port.dissociate()
    assert not port.alive
    assert not port.enqueue(_qmsg(seq=2))
    assert port.queued_bytes == 0


def test_port_queue_limit():
    port = Port(
        handle=1, label=ChunkedLabel.from_label(Label.top()), owner="p1", queue_limit=2
    )
    assert port.enqueue(_qmsg(1))
    assert port.enqueue(_qmsg(2))
    assert not port.enqueue(_qmsg(3))


# -- clock -------------------------------------------------------------------------------


def test_clock_charging_and_snapshots():
    clock = CycleClock()
    clock.charge(NETWORK, 100)
    clock.charge(KERNEL_IPC, 50)
    snap = clock.snapshot()
    clock.charge(NETWORK, 25)
    delta = clock.delta(snap)
    assert delta[NETWORK] == 25
    assert delta[KERNEL_IPC] == 0
    assert clock.now == 175
    assert clock.seconds == 175 / 2_800_000_000
    with pytest.raises(ValueError):
        clock.charge(NETWORK, -1)
    clock.reset()
    assert clock.now == 0


def test_cost_model_label_work():
    from repro.core.chunks import OpStats

    cost = CostModel()
    stats = OpStats(entries_scanned=10, operations=2, labels_allocated=1)
    assert cost.label_work(stats) == (
        10 * cost.label_entry + 2 * cost.label_op_base + cost.label_alloc
    )


# -- memory report -------------------------------------------------------------------------


def test_memory_report_structure(kernel):
    def prog(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        ctx.mem.alloc(8192, "data")
        yield Recv(port=port)

    kernel.spawn(prog, "prog")
    kernel.run()
    report = kernel.memory_report()
    assert report["user_pages"] >= 4          # stack, xstack, data x2
    assert report["process_bytes"] == 320
    assert report["label_bytes"] > 0
    assert report["vnode_bytes"] >= 64
    assert report["total_bytes"] == report["user_pages"] * 4096 + report["kernel_bytes"]
    assert report["kernel_bytes"] == sum(
        report[k] for k in ("process_bytes", "ep_bytes", "port_bytes", "label_bytes", "vnode_bytes")
    )


def test_memory_report_counts_eps(kernel):
    def event_body(ectx, msg):
        ectx.mem.store("session", b"x" * 1000)
        yield EpYield()

    def base(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        yield EpCheckpoint(event_body)

    proc = kernel.spawn(base, "worker")
    kernel.run()
    before = kernel.memory_report()
    for i in range(10):
        kernel.inject(proc.env["port"], i)
    kernel.run()
    after = kernel.memory_report()
    assert after["ep_bytes"] > before["ep_bytes"]
    assert after["user_pages"] > before["user_pages"]


def test_ram_cap_enforced_by_kernel():
    kernel = Kernel(config=KernelConfig(ram_bytes=64 * 4096, trace=True))
    crashed = []

    def hog(ctx):
        try:
            ctx.mem.alloc(100 * 4096, "huge")
        except Exception as err:
            crashed.append(type(err).__name__)
        yield NewHandle()

    kernel.spawn(hog, "hog")
    kernel.run()
    assert crashed == ["ResourceExhausted"]


def test_handle_space_is_shared_and_unique(kernel):
    handles = []

    def a(ctx):
        for _ in range(50):
            handles.append((yield NewHandle()))

    def b(ctx):
        for _ in range(50):
            handles.append((yield NewPort()))

    kernel.spawn(a, "a")
    kernel.spawn(b, "b")
    kernel.run()
    assert len(set(handles)) == 100  # ports and handles share one namespace


# -- the observer bus -------------------------------------------------------------


class _EveryEvent:
    """An observer of every kernel event; records (event, args)."""

    def __init__(self):
        self.calls = []
        for event in EVENTS:
            setattr(self, f"on_{event}", lambda *args, e=event: self.calls.append((e, args)))


def _traffic(kernel, sends):
    """A listener on an open port, then one sender running *sends*."""
    box = {}

    def listener(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        box["port"] = port
        while True:
            yield Recv(port=port)

    kernel.spawn(listener, "listener")
    kernel.run()

    def sender(ctx):
        yield from sends(box["port"])

    kernel.spawn(sender, "sender")
    kernel.run()


def test_attached_then_detached_observer_receives_nothing():
    attached, detached = _EveryEvent(), _EveryEvent()
    kernel = Kernel(config=KernelConfig())
    kernel.attach(attached)
    kernel.attach(detached)
    kernel.detach(detached)

    def sends(port):
        yield Send(port, "hi")
        yield Send(0xDEAD, "nobody home")

    _traffic(kernel, sends)
    assert detached.calls == []
    seen = {event for event, _ in attached.calls}
    assert {"spawn", "pick", "step", "activate", "activate_end", "send", "enqueue"} <= seen
    assert {"recv", "deliver", "drop", "label_work", "new_port", "port_touch"} <= seen


def test_attach_rejects_an_unknown_event():
    class Typo:
        def on_delivr(self, *args):
            pass

    with pytest.raises(ValueError, match="on_delivr"):
        Kernel(config=KernelConfig()).attach(Typo())


def test_drop_only_observer_sees_exactly_the_drop_log():
    class Drops:
        def __init__(self):
            self.records = []

        def on_drop(self, reason, sender, where, seq):
            self.records.append((reason, sender, where))

    kernel = Kernel(config=KernelConfig())
    drops = Drops()
    kernel.attach(drops)

    def sends(port):
        h = yield NewHandle()
        yield Send(port, "delivered")
        yield Send(port, "too hot", contaminate=Label({h: L3}, STAR))   # label-check
        yield Send(0xDEAD, "dead port")                                 # dead-port
        yield Send(port, "no privilege", decontaminate_send=Label({0xBEEF: 0}, 3))

    _traffic(kernel, sends)
    assert drops.records == kernel.drop_log.records
    assert len(drops.records) == kernel.drop_log.total == 3
    assert {r for r, _, _ in drops.records} == {"label-check", "dead-port", "decont-privilege"}


def test_flow_event_excludes_send_time_violations(monkeypatch):
    # QR ← QR ⊔ DR (and ES = PS ⊔ CS, the same operation) replaced by the
    # identity: the contaminating send trips the sender-side ES check, the
    # clearance-raising send trips the receiver-side effect check.
    monkeypatch.setattr(labelops, "raise_receive", lambda qr, dr, stats=None: qr)
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))
    tracer = FlowTracer(kernel)

    def sends(port):
        h = yield NewHandle()
        yield Send(port, "tainted", contaminate=Label({h: L2}, STAR))
        yield Send(port, "clearance", decontaminate_receive=Label({h: L3}, STAR))

    _traffic(kernel, sends)
    kinds = [v.kind for v in kernel.sanitizer.violations]
    assert kinds == [EFFECTIVE_SEND_MISMATCH, RECEIVE_EFFECT_MISMATCH]
    events = tracer.between("sender", "listener")
    assert [e.delivered for e in events] == [True, True]
    assert [[v.kind for v in e.violations] for e in events] == [[], [RECEIVE_EFFECT_MISMATCH]]
