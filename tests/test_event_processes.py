"""Event processes (paper Section 6): creation, isolation, labels,
ep_yield/ep_clean/ep_exit, memory accounting, and execution-state sharing."""


from repro.core.labels import Label
from repro.core.levels import L1, L3, STAR
from repro.kernel import (
    ChangeLabel,
    EpCheckpoint,
    EpClean,
    EpExit,
    EpYield,
    Exit,
    GetLabels,
    NewHandle,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
)
from repro.kernel.clock import CostModel
from repro.kernel.event_process import EP_STRUCT_BYTES
from repro.kernel.memory import PAGE_SIZE
from repro.kernel.process import PROCESS_STRUCT_BYTES, TaskState


def open_port():
    port = yield NewPort()
    yield SetPortLabel(port, Label.top())
    return port


def spawn_ep_worker(kernel, event_body, name="worker"):
    """A base process that opens a public port and enters the EP realm."""

    def body(ctx):
        port = yield from open_port()
        ctx.env["port"] = port
        yield EpCheckpoint(event_body)

    proc = kernel.spawn(body, name)
    kernel.run()
    return proc


def test_kernel_struct_sizes_match_paper():
    # "...altogether occupying 44 bytes of Asbestos kernel memory.  For
    # comparison, Asbestos's minimal process structure takes 320 bytes."
    assert EP_STRUCT_BYTES == 44
    assert PROCESS_STRUCT_BYTES == 320
    # The modelled creation costs keep the same order-of-magnitude gap.
    cost = CostModel()
    assert cost.ep_create < cost.spawn / 10


def test_new_ep_per_message_to_base_port(kernel):
    seen = []

    def event_body(ectx, msg):
        seen.append((ectx.name, msg.payload))
        return
        yield

    worker = spawn_ep_worker(kernel, event_body)

    def driver(ctx):
        yield Send(ctx.env["t"], "a")
        yield Send(ctx.env["t"], "b")

    kernel.spawn(driver, "driver", env={"t": worker.env["port"]})
    kernel.run()
    # Two messages to the base port -> two distinct event processes.
    assert [payload for _, payload in seen] == ["a", "b"]
    assert seen[0][0] != seen[1][0]


def test_base_process_never_runs_again(kernel):
    after_checkpoint = []

    def event_body(ectx, msg):
        return
        yield

    def body(ctx):
        port = yield from open_port()
        ctx.env["port"] = port
        yield EpCheckpoint(event_body)
        after_checkpoint.append("ran!")  # must never execute

    proc = kernel.spawn(body, "worker")
    kernel.run()
    kernel.inject(proc.env["port"], "x")
    kernel.run()
    assert proc.state == TaskState.EP_REALM
    assert after_checkpoint == []


def test_ep_yield_resumes_same_ep_with_state(kernel):
    log = []

    def event_body(ectx, msg):
        count = 0
        my_port = yield from open_port()
        yield Send(msg.payload["reply"], {"port": my_port})
        while True:
            count += 1
            log.append((ectx.name, msg.payload.get("tag"), count))
            msg = yield EpYield()

    worker = spawn_ep_worker(kernel, event_body)
    results = []

    def driver(ctx):
        reply = yield from open_port()
        yield Send(ctx.env["t"], {"reply": reply, "tag": "first"})
        m = yield Recv(port=reply)
        ep_port = m.payload["port"]
        yield Send(ep_port, {"tag": "second"})
        yield Send(ep_port, {"tag": "third"})

    kernel.spawn(driver, "driver", env={"t": worker.env["port"]})
    kernel.run()
    names = {name for name, _, _ in log}
    assert len(names) == 1                      # same EP throughout
    assert [(tag, n) for _, tag, n in log] == [
        ("first", 1), ("second", 2), ("third", 3)
    ]


def test_ep_memory_isolated_between_eps(kernel):
    log = []

    def event_body(ectx, msg):
        # Each EP sees the base's page pristine, then privatises it.
        base_region = ectx.mem.region("shared")
        before = ectx.mem.read(base_region.start, 2)
        ectx.mem.write(base_region.start, msg.payload.encode())
        after = ectx.mem.read(base_region.start, 2)
        log.append((before, after))
        return
        yield

    def body(ctx):
        start = ctx.mem.alloc(PAGE_SIZE, "shared")
        ctx.mem.write(start, b"__")
        port = yield from open_port()
        ctx.env["port"] = port
        yield EpCheckpoint(event_body)

    proc = kernel.spawn(body, "worker")
    kernel.run()
    kernel.inject(proc.env["port"], "AA")
    kernel.inject(proc.env["port"], "BB")
    kernel.run()
    # Both EPs started from the base contents; neither saw the other's write.
    assert log == [(b"__", b"AA"), (b"__", b"BB")]


def test_ep_labels_start_from_base_and_diverge(kernel):
    log = []

    def event_body(ectx, msg):
        h = yield NewHandle()
        yield ChangeLabel(send=Label({h: STAR}, L1).with_entry(h, L3))
        send, _ = yield GetLabels()
        log.append(send(h))
        return
        yield

    worker = spawn_ep_worker(kernel, event_body)
    kernel.inject(worker.env["port"], "a")
    kernel.inject(worker.env["port"], "b")
    kernel.run()
    # Each EP self-tainted independently; the base process's label did not
    # change, so the second EP started clean and could do the same.
    assert log == [L3, L3]
    assert len(worker.send_label) == 1  # just the base port's ⋆


def test_ep_contamination_applies_to_ep_only(kernel):
    log = []

    def event_body(ectx, msg):
        send, receive = yield GetLabels()
        log.append((msg.payload["who"], dict(send.entries())))
        return
        yield

    worker = spawn_ep_worker(kernel, event_body)

    def driver(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        yield Send(
            ctx.env["t"],
            {"who": "tainted"},
            contaminate=Label({h: L3}, STAR),
            decontaminate_receive=Label({h: L3}, STAR),
        )
        yield Send(ctx.env["t"], {"who": "clean"})

    d = kernel.spawn(driver, "driver", env={"t": worker.env["port"]})
    kernel.run()
    h = d.env["h"]
    taints = {who: labels for who, labels in log}
    assert taints["tainted"].get(h) == L3
    assert h not in taints["clean"]          # fresh EP, fresh labels
    assert h not in dict(worker.send_label.iter_entries())


def test_ep_clean_reverts_pages(kernel):
    log = []

    def event_body(ectx, msg):
        region = ectx.mem.region("shared")
        while True:
            ectx.mem.write(region.start, b"dirty")
            ectx.mem.store("session", {"n": msg.payload})
            dropped = yield EpClean(keep=("session",))
            log.append((dropped, ectx.mem.read(region.start, 5), ectx.mem.load("session")))
            msg = yield EpYield()

    def body(ctx):
        start = ctx.mem.alloc(PAGE_SIZE, "shared")
        ctx.mem.write(start, b"clean")
        port = yield from open_port()
        ctx.env["port"] = port
        yield EpCheckpoint(event_body)

    proc = kernel.spawn(body, "worker")
    kernel.run()
    base_pages = kernel.accountant.in_use
    kernel.inject(proc.env["port"], 1)
    kernel.run()
    dropped, shared, session = log[0]
    assert shared == b"clean"               # reverted to base contents
    assert session == {"n": 1}              # session region survived
    assert dropped >= 3                     # stack, xstack, msgq, shared
    # A dormant EP keeps exactly its session page: 100 EPs, 100 pages.
    for n in range(2, 101):
        kernel.inject(proc.env["port"], n)
    kernel.run()
    assert kernel.accountant.in_use - base_pages == 100


def test_ep_exit_frees_resources(kernel):
    def event_body(ectx, msg):
        ectx.mem.store("session", "x" * 2000)
        yield EpExit()

    worker = spawn_ep_worker(kernel, event_body)
    pages_before = kernel.accountant.in_use
    kernel.inject(worker.env["port"], "go")
    kernel.run()
    assert kernel.accountant.in_use == pages_before
    assert worker.event_processes == {}


def test_return_from_event_body_acts_like_ep_exit(kernel):
    def event_body(ectx, msg):
        return
        yield

    worker = spawn_ep_worker(kernel, event_body)
    kernel.inject(worker.env["port"], "go")
    kernel.run()
    assert worker.event_processes == {}


def test_exit_from_ep_kills_whole_process(kernel):
    # "...or even exit via the process-wide exit system call" (§6.1).
    def event_body(ectx, msg):
        yield Exit()

    worker = spawn_ep_worker(kernel, event_body)
    kernel.inject(worker.env["port"], "die")
    kernel.run()
    assert worker.state == TaskState.EXITED


def test_blocked_ep_blocks_whole_process(kernel):
    # Execution states are not isolated (§6.1).
    log = []

    def event_body(ectx, msg):
        if msg.payload["role"] == "blocker":
            stall = yield NewPort()
            yield SetPortLabel(stall, Label.top())
            yield Send(msg.payload["reply"], {"stall": stall})
            yield Recv(port=stall)            # blocks the whole process
            log.append("unblocked")
            yield EpYield()
        else:
            log.append("other-ran")
            yield EpYield()

    worker = spawn_ep_worker(kernel, event_body)
    plan = []

    def driver(ctx):
        reply = yield from open_port()
        yield Send(ctx.env["t"], {"role": "blocker", "reply": reply})
        m = yield Recv(port=reply)
        yield Send(ctx.env["t"], {"role": "other"})   # cannot run yet
        plan.append(list(log))                        # snapshot: must be empty
        yield Send(m.payload["stall"], "release")

    kernel.spawn(driver, "driver", env={"t": worker.env["port"]})
    kernel.run()
    assert plan == [[]]                      # nothing ran while blocked
    assert log == ["unblocked", "other-ran"]


def test_dormant_eps_cost_no_scheduling(kernel):
    # A thousand dormant EPs: delivering to one is O(ready ports), not
    # O(EPs) — verified behaviourally (it completes fast) and by the
    # scheduler seeing a single schedulable key.
    def event_body(ectx, msg):
        my_port = yield from open_port()
        yield Send(msg.payload["reply"], {"port": my_port, "n": msg.payload["n"]})
        while True:
            msg = yield EpYield()
            yield Send(msg.payload["reply"], {"n": msg.payload["n"]})

    worker = spawn_ep_worker(kernel, event_body)
    ep_ports = {}

    def driver(ctx):
        reply = yield from open_port()
        for n in range(300):
            yield Send(ctx.env["t"], {"reply": reply, "n": n})
            m = yield Recv(port=reply)
            ep_ports[m.payload["n"]] = m.payload["port"]
        # Now ping one specific dormant EP.
        yield Send(ep_ports[137], {"reply": reply, "n": 137})
        m = yield Recv(port=reply)
        assert m.payload["n"] == 137

    kernel.spawn(driver, "driver", env={"t": worker.env["port"]})
    kernel.run()
    assert len(worker.event_processes) == 300


def test_ep_kernel_bytes_grow_with_modified_pages(kernel):
    sizes = []

    def event_body(ectx, msg):
        ectx.mem.store("session", b"x" * 100)
        yield EpYield()

    worker = spawn_ep_worker(kernel, event_body)
    kernel.inject(worker.env["port"], "go")
    kernel.run()
    ep = next(iter(worker.event_processes.values()))
    assert ep.kernel_bytes() >= EP_STRUCT_BYTES
    assert ep.kernel_bytes() == EP_STRUCT_BYTES + 12 * ep.view.private_page_count
