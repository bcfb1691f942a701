"""The Asbestos kernel simulator.

Single-threaded, deterministic, cooperative: program bodies are generators
that yield syscall objects; the kernel advances one task per scheduler
step, executes the syscall, and hands the result back at the next resume.

The security-relevant parts implement Figure 4 exactly:

``send(p, data, CS, DS, V, DR)`` by process P, where Q owns port p::

    ES = PS ⊔ CS
    requirements:
      (1) ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR          — checked at delivery time
      (2) DS(h) < 3  ⇒  PS(h) = ⋆           — checked at send time
      (3) DR(h) > ⋆  ⇒  PS(h) = ⋆           — checked at send time
      (4) DR ⊑ pR                            — checked at delivery time
    effects (at delivery):
      QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)
      QR ← QR ⊔ DR

Sends are asynchronous and unreliable: the sender always sees success, and
a message failing any requirement is silently dropped (recorded only in
the out-of-band :class:`~repro.kernel.errors.DropLog`).  Label checks and
effects run when the receiver actually receives — the kernel cannot know
deliverability earlier, since labels change in the meantime (Section 4).
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

from repro.core import labelops
from repro.core.chunks import ChunkedLabel, OpStats, shared_memory_bytes
from repro.core.handles import Handle, HandleAllocator
from repro.core.labels import (
    DEFAULT_PORT_LABEL,
    Label,
)
from repro.core.levels import L0, L3, STAR
from repro.kernel import syscalls as sc
from repro.kernel.clock import CycleClock, KERNEL_IPC, OTHER
from repro.kernel.config import KernelConfig
from repro.kernel.errors import (
    DROP_DEAD_PORT,
    DROP_DECONT_PRIVILEGE,
    DROP_FAULT,
    DROP_LABEL_CHECK,
    DROP_PORT_LABEL,
    DROP_QUEUE_LIMIT,
    DropLog,
    InvalidArgument,
    NotOwner,
    ResourceExhausted,
    SimulationError,
)
from repro.kernel.event_process import EventProcess
from repro.kernel.memory import (
    AddressSpace,
    EpView,
    PAGE_SIZE,
    PageAccountant,
)
from repro.kernel.message import Message, QueuedMessage
from repro.kernel.ports import Port, RemoteRoute
from repro.kernel.process import (
    Context,
    Process,
    STACK_PAGES,
    Task,
    TaskState,
    XSTACK_PAGES,
)
from repro.kernel.scheduler import Scheduler

_BOTTOM = ChunkedLabel.from_label(Label.bottom())
_TOP = ChunkedLabel.from_label(Label.top())

#: The events the kernel emits to observers attached with
#: :meth:`Kernel.attach`; an observer defines ``on_<event>`` for those it
#: wants.  DESIGN.md §8 lists each event's arguments and emission point.
EVENTS = (
    "spawn", "inject", "xshard", "pick", "step", "activate", "activate_end",
    "send", "enqueue", "recv", "deliver", "drop", "label_work", "new_handle",
    "new_port", "port_touch", "change_label", "ep_create", "ep_switch", "fault",
)


def _payload_bytes(payload: Any) -> int:
    """Cheap size model for message payloads.

    Dispatches on the exact built-in types that make up nearly every
    payload; anything else (subclasses included) takes
    :func:`_payload_bytes_general`, so both size every value the same.
    """
    kind = type(payload)
    if kind is dict:
        return 16 + sum([_payload_bytes(k) + _payload_bytes(v) for k, v in payload.items()])
    if kind is str or kind is bytes:
        return len(payload)
    if kind is int or kind is float or payload is None:
        return 8
    if kind is list or kind is tuple:
        return 16 + sum([_payload_bytes(v) for v in payload])
    return _payload_bytes_general(payload)


def _payload_bytes_general(payload: Any) -> int:
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, dict):
        return 16 + sum(_payload_bytes(k) + _payload_bytes(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple)):
        return 16 + sum(_payload_bytes(v) for v in payload)
    return 64


class Kernel:
    """The simulated machine: CPU clock, RAM, handle space, tasks, ports.

    Construct with a :class:`~repro.kernel.config.KernelConfig`::

        Kernel(config=KernelConfig(metrics=True, label_cost_mode="fused"))

    A bare ``Kernel()`` resolves its config from the environment
    (``KernelConfig.from_env()``), which is how whole test suites are
    swept under the sanitizer or metrics without touching call sites.
    """

    def __init__(self, *, config: Optional[KernelConfig] = None):
        if config is None:
            config = KernelConfig.from_env()
        self.config = config

        #: "paper" bills label work as the 2005 implementation would pay it
        #: (linear scans with only the min/max short-circuits — reproduces
        #: Figure 9); "fused" bills the sparsity-aware operations actually
        #: executed (the future-work optimisation; see BENCH_labelops.json).
        self.label_cost_mode = config.label_cost_mode
        self.clock = CycleClock()
        self.allocator = HandleAllocator(key=config.boot_key)
        self.accountant = (
            PageAccountant(capacity_pages=config.ram_bytes // PAGE_SIZE)
            if config.ram_bytes
            else PageAccountant()
        )
        self.scheduler = Scheduler()
        self.drop_log = DropLog()
        self.tasks: Dict[str, Task] = {}
        self.processes: Dict[str, Process] = {}
        self.ports: Dict[Handle, Port] = {}
        self.label_stats = OpStats()
        self.trace = config.trace
        self.debug_lines: List[str] = []
        #: Covert-channel mitigation hook (Section 8): called before each
        #: spawn; returning False denies process creation.
        self.fork_limiter: Optional[Callable[[Process], bool]] = None
        #: Pluggable scheduling nondeterminism (repro.kernel.nondet): when
        #: set, every scheduler pick and every timer-vs-task wake order is
        #: routed through this source's ``choose``, letting the explorer
        #: (repro.analysis.sched) drive the kernel through alternative
        #: interleavings.  None — the default, and the only configuration
        #: production runs use — is plain FIFO round-robin.
        self.nondet: Optional[Any] = None
        self._pid = 0
        self._seq = 0
        self._steps = 0
        # Import deferred to avoid a cycle at module load.
        from repro.kernel.vnodes import VnodeTable

        self.vnodes = VnodeTable()

        # -- out-of-band observers (attach) ---------------------------------
        # One list of bound ``on_<event>`` methods per event: an event with
        # no observer costs its emission site one falsy check.
        for event in EVENTS:
            setattr(self, f"_on_{event}", [])
        self.attach(self.drop_log)
        from repro.obs.metrics import KernelMetrics, MetricsRegistry
        from repro.obs.spans import SpanRecorder

        self.metrics = MetricsRegistry(enabled=config.metrics)
        if config.metrics:
            self.attach(KernelMetrics(self))
        self.spans: Optional[SpanRecorder] = None
        if config.spans:
            self.spans = SpanRecorder(limit=config.span_limit, clock=self.clock)
            self.attach(self.spans)

        # Differential label sanitizer (repro.analysis): opt in per kernel
        # via KernelConfig(sanitize=True), or globally via REPRO_SANITIZE=1
        # (how a whole test suite is swept without touching call sites).
        self.sanitizer = None
        if config.sanitize:
            from repro.analysis.sanitizer import LabelSanitizer

            self.sanitizer = LabelSanitizer(
                self, strict=config.sanitize_strict, sample=config.sanitize_sample
            )

        # -- cross-shard routing (repro.cluster) -----------------------------
        #: Handles that live on another shard: handle → RemoteRoute.  Only
        #: the cluster runtime populates this; a standalone kernel never
        #: pays more than one falsy check on the send path.
        self.remote_routes: Dict[Handle, RemoteRoute] = {}
        #: Egress hook set by the shard runtime: called with
        #: (route, message-kwargs) for each send whose port resolves to a
        #: RemoteRoute; the runtime serializes it as wire/v1 and ships it.
        self.xshard_out: Optional[Callable[[RemoteRoute, Dict[str, Any]], None]] = None

        # -- kernel timers (Recv timeout / Deadline) ------------------------
        # Min-heap of (deadline_cycles, serial, task_key, token).  The token
        # is the blocking syscall object itself; cancellation is lazy — a
        # timer whose task no longer blocks on that exact token is ignored
        # when it pops.
        self._timers: List[Tuple[int, int, str, Any]] = []
        self._timer_serial = 0

        # -- fault injection (repro.faults) ---------------------------------
        # Opt in via KernelConfig(faults=FaultPlan(...)) or REPRO_FAULTS=
        # <plan.json>.  Delayed messages live in a min-heap of
        # (release_step, serial, enqueue-kwargs) and re-enter _enqueue
        # fault-exempt when their round comes up.
        self.faults = None
        self._delayed: List[Tuple[int, int, Dict[str, Any]]] = []
        self._delay_serial = 0
        if config.faults is not None:
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(config.faults, seed=config.fault_seed, kernel=self)

    def attach(self, observer: Any) -> None:
        """Call *observer*'s ``on_<event>`` methods (any subset of
        :data:`EVENTS`) at each matching kernel event, after the
        observers attached before it.  Observers are out-of-band: no
        simulated program can see them."""
        unknown = [n for n in dir(observer) if n[:3] == "on_" and n[3:] not in EVENTS]
        if unknown:
            raise ValueError(f"{type(observer).__name__} defines unknown events {unknown}")
        for event in EVENTS:
            fn = getattr(observer, f"on_{event}", None)
            if fn is not None:
                getattr(self, f"_on_{event}").append(fn)

    def detach(self, observer: Any) -> None:
        """Undo :meth:`attach`: *observer* receives no further events."""
        for event in EVENTS:
            fn = getattr(observer, f"on_{event}", None)
            handlers = getattr(self, f"_on_{event}")
            if fn in handlers:
                handlers.remove(fn)

    def note_fault(self, event: Any) -> None:
        """Emit ``on_fault`` for a fired ``repro.faults`` rule."""
        if self._on_fault:
            for fn in self._on_fault:
                fn(event)

    # -- bootstrapping -----------------------------------------------------------

    def spawn(
        self,
        body: Callable,
        name: str,
        component: str = OTHER,
        env: Optional[Dict[str, Any]] = None,
        parent: Optional[Task] = None,
        inherit_labels: bool = False,
        notify_exit: Optional[Handle] = None,
    ) -> Process:
        """Create a process running generator function *body(ctx)*.

        With ``inherit_labels`` the child gets copies of *parent*'s labels
        (privilege distribution by forking, Section 5.3); otherwise it gets
        the defaults ``PS = {1}``, ``PR = {2}``.
        """
        if self.fork_limiter is not None and parent is not None and not self.fork_limiter(parent):
            raise ResourceExhausted("process creation rate limited")
        if self.faults is not None and self.faults.on_spawn(name, self._steps):
            raise ResourceExhausted(f"spawn of {name!r} failed (fault injection)")
        self._pid += 1
        space = AddressSpace(self.accountant)
        space.alloc(STACK_PAGES * PAGE_SIZE, "stack")
        space.alloc(XSTACK_PAGES * PAGE_SIZE, "xstack")
        process = Process(
            pid=self._pid,
            name=name,
            component=component,
            body=body,
            env=dict(env or {}),
            address_space=space,
        )
        if parent is not None and inherit_labels:
            process.send_label = parent.send_label
            process.receive_label = parent.receive_label
        process.notify_exit = notify_exit
        process.ctx = Context(self, process, space, process.env)
        process.gen = body(process.ctx)
        if not isinstance(process.gen, Generator):
            raise SimulationError(f"process body {name!r} is not a generator function")
        self.tasks[process.key] = process
        self.processes[process.key] = process
        self.clock.charge(OTHER, self.clock.cost.spawn)
        self.scheduler.enqueue(process.key)
        if self._on_spawn:
            for fn in self._on_spawn:
                fn(process)
        return process

    def inject(self, port: Handle, payload: Any) -> bool:
        """Enqueue a message from *outside* the label system — the network
        wire.  Labels are the defaults of a maximally untainted sender, so
        the receiver is not contaminated and ordinary receive checks apply."""
        if self._on_inject:
            for fn in self._on_inject:
                fn(port, payload)
        return self._enqueue(
            port=port,
            payload=payload,
            effective_send=ChunkedLabel.from_label(Label.send_default()),
            ds=_TOP,
            v=_TOP,
            dr=_BOTTOM,
            sender_name="<wire>",
        )

    def enqueue_external(
        self,
        port: Handle,
        payload: Any,
        *,
        effective_send: ChunkedLabel,
        ds: ChunkedLabel,
        v: ChunkedLabel,
        dr: ChunkedLabel,
        sender_name: str = "<xshard>",
    ) -> bool:
        """Enqueue a message whose send-time checks ran on another shard.

        The cross-shard ingress half of ``repro.cluster``: the sending
        shard already enforced Figure 4 requirements (2) and (3) and
        computed ``ES = PS ⊔ CS``; this kernel runs the delivery-time
        checks (1) and (4) plus the label effects locally, exactly as for
        a local send.  Unlike
        :meth:`inject`, the caller supplies real labels — cross-shard
        taint and decontamination propagate.
        """
        if self._on_xshard:
            for fn in self._on_xshard:
                fn("in", port)
        return self._enqueue(
            port=port,
            payload=payload,
            effective_send=effective_send,
            ds=ds,
            v=v,
            dr=dr,
            sender_name=sender_name,
        )

    # -- the run loop ----------------------------------------------------------------

    def run(self, max_steps: int = 10_000_000) -> int:
        """Advance until no task is runnable; returns steps executed.

        When the run queue drains but kernel timers (Recv timeouts,
        Deadline sleeps) or fault-delayed messages are still pending, the
        clock jumps forward to the next event — simulated time passes with
        nothing to run, exactly like an idle CPU — and the loop continues.
        Quiescence means no runnable task, no live timer, and no deferred
        message.
        """
        steps = 0
        while steps < max_steps:
            if self._timers:
                # Timer-vs-task wake order: with a due timer *and* a
                # runnable task, the kernel historically fires the timer
                # first.  A nondet source may invert that for one loop
                # iteration (the timer stays due and is re-offered), so
                # the explorer can race timeouts against queued messages.
                if (
                    self.nondet is None
                    or not self.scheduler
                    or self._timers[0][0] > self.clock.now
                    or self.nondet.choose("wake", ("timers", "task")) != 1
                ):
                    self._fire_due_timers()
            if not self.scheduler:
                if not self._advance_idle():
                    break
                continue
            self._step()
            steps += 1
        if steps >= max_steps:
            raise SimulationError(f"run did not quiesce within {max_steps} steps")
        return steps

    def _advance_idle(self) -> bool:
        """Nothing runnable: release the next deferred message or jump the
        clock to the earliest live timer.  Returns False at quiescence."""
        if self._delayed:
            release_step, _, kwargs = heapq.heappop(self._delayed)
            self._steps = max(self._steps, release_step)
            self._enqueue(fault_exempt=True, **kwargs)
            return True
        while self._timers:
            deadline, _, key, token = self._timers[0]
            task = self.tasks.get(key)
            if task is None or task.state != TaskState.BLOCKED or task.blocked_on is not token:
                heapq.heappop(self._timers)  # cancelled; purge and look again
                continue
            if deadline > self.clock.now:
                # Idle wait: simulated time passes with no work to do.
                self.clock.charge(OTHER, deadline - self.clock.now)
            self._fire_due_timers()
            return True
        return False

    def _arm_timer(self, task: Task, token: Any, deadline: int) -> None:
        self._timer_serial += 1
        heapq.heappush(self._timers, (deadline, self._timer_serial, task.key, token))

    def _fire_due_timers(self) -> None:
        """Wake every task whose timer deadline has passed.  Stale timers —
        the task completed its recv, died, or blocked on something newer —
        are discarded silently.  A timed-out Recv first retries delivery:
        only a task with truly nothing deliverable sees the ``None``
        timeout result (the timer must not race messages already queued)."""
        while self._timers and self._timers[0][0] <= self.clock.now:
            _, _, key, token = heapq.heappop(self._timers)
            task = self.tasks.get(key)
            if task is None or task.state != TaskState.BLOCKED or task.blocked_on is not token:
                continue
            if not self._retry_blocked_recv(task):
                task.blocked_on = None
                task.state = TaskState.RUNNABLE
                task.pending = None
            if isinstance(task, EventProcess):
                # A timed-out EP resumes through its base's realm step.
                self.scheduler.enqueue(task.base.key)
            else:
                self.scheduler.enqueue(task.key)

    def _release_due_messages(self) -> None:
        while self._delayed and self._delayed[0][0] <= self._steps:
            _, _, kwargs = heapq.heappop(self._delayed)
            self._enqueue(fault_exempt=True, **kwargs)

    def _defer_enqueue(self, rounds: int, **kwargs: Any) -> None:
        self._delay_serial += 1
        heapq.heappush(self._delayed, (self._steps + rounds, self._delay_serial, kwargs))

    def _step(self) -> None:
        if self.nondet is None:
            key = self.scheduler.dequeue()
        else:
            # Controlled pick: the source chooses among every runnable
            # task (index 0 = the FIFO head, so a default-answering
            # source reproduces plain round-robin).
            options = self.scheduler.runnable()
            key = options[self.nondet.choose("pick", tuple(options))]
            self.scheduler.take(key)
        task = self.tasks.get(key)
        if task is None or task.state == TaskState.EXITED:
            return
        self._steps += 1
        if self._on_pick:
            for fn in self._on_pick:
                fn(task)
        if self.faults is not None:
            self.faults.on_step(self, self._steps)
            if self._delayed:
                self._release_due_messages()
            task = self.tasks.get(key)  # kill_ep may have destroyed it
            if task is None or task.state == TaskState.EXITED:
                return
            if self.faults.on_pick(task.name, self._steps):
                self.scheduler.enqueue(key)  # stalled: loses this turn only
                return
        if self._on_step:
            for fn in self._on_step:
                fn(task)
        if isinstance(task, Process) and task.state == TaskState.EP_REALM:
            self._step_ep_realm(task)
            return
        if task.state == TaskState.BLOCKED:
            if not self._retry_blocked_recv(task):
                return  # still blocked; re-woken on next enqueue
        self._advance(task)

    # -- generator driving ---------------------------------------------------------------

    #: Maximum syscalls a task executes per scheduling step before it is
    #: preempted back to the run queue.  Bounds the run loop against
    #: message-passing livelocks (a task sending to itself forever) so
    #: ``run(max_steps=...)`` can actually trip.
    INLINE_SYSCALL_BUDGET = 512

    def _advance(self, task: Task) -> None:
        """Resume *task*'s generator until it blocks, exits, or exhausts
        its inline budget (then it re-queues, preempted)."""
        if self._on_activate:
            for fn in self._on_activate:
                fn(task)
        budget = self.INLINE_SYSCALL_BUDGET
        try:
            while True:
                budget -= 1
                if budget < 0:
                    self.scheduler.enqueue(
                        task.base.key if isinstance(task, EventProcess) else task.key
                    )
                    return
                try:
                    if task.pending_exc is not None:
                        exc = task.pending_exc
                        task.pending_exc = None
                        request = task.gen.throw(exc)
                    else:
                        value, task.pending = task.pending, None
                        request = task.gen.send(value)
                except StopIteration:
                    self._task_finished(task)
                    return
                except Exception as exc:  # program crashed
                    self.debug_log(task.name, f"crashed: {exc!r}")
                    if self.trace:
                        raise
                    self._task_finished(task, crashed=True)
                    return
                if self.faults is not None and self.faults.on_syscall(
                    task.key, task.name, self._steps
                ):
                    # Injected crash: the program dies mid-syscall, exactly as
                    # if its body had raised.
                    self.debug_log(task.name, "crashed: fault injection")
                    self._task_finished(task, crashed=True)
                    return
                self.clock.charge(OTHER, self.clock.cost.syscall_base)
                if not self._dispatch(task, request):
                    return
        finally:
            if self._on_activate_end:
                for fn in self._on_activate_end:
                    fn(task)

    def _dispatch(self, task: Task, request: sc.Syscall) -> bool:
        """Execute one syscall.  Returns True to keep advancing the same
        task inline (cheap syscalls), False when the task blocked, exited,
        or should round-robin."""
        try:
            if isinstance(request, sc.Send):
                task.pending = self._sys_send(task, request)
                return True
            if isinstance(request, sc.Recv):
                return self._sys_recv(task, request)
            if isinstance(request, sc.NewHandle):
                task.pending = self._sys_new_handle(task)
                return True
            if isinstance(request, sc.NewPort):
                task.pending = self._sys_new_port(task, request.label)
                return True
            if isinstance(request, sc.SetPortLabel):
                task.pending = self._sys_set_port_label(task, request)
                return True
            if isinstance(request, sc.DissociatePort):
                if request.port not in task.owned_ports:
                    raise NotOwner(f"dissociate: port {request.port:#x} not owned")
                if self._on_port_touch:
                    for fn in self._on_port_touch:
                        fn(task, request.port)
                self._dissociate_port(request.port)
                task.pending = True
                return True
            if isinstance(request, sc.ChangeLabel):
                task.pending = self._sys_change_label(task, request)
                return True
            if isinstance(request, sc.GetLabels):
                task.pending = (task.send_label.to_label(), task.receive_label.to_label())
                return True
            if isinstance(request, sc.GetEnv):
                env = task.env if isinstance(task, Process) else task.base.env  # type: ignore[attr-defined]
                task.pending = dict(env)
                return True
            if isinstance(request, sc.Spawn):
                child = self.spawn(
                    request.body,
                    request.name,
                    component=request.component or task.component,
                    env=request.env,
                    parent=task,
                    inherit_labels=request.inherit_labels,
                    notify_exit=request.notify_exit,
                )
                task.pending = child.pid
                return True
            if isinstance(request, sc.Compute):
                self.clock.charge(request.category or task.component, request.cycles)
                task.pending = None
                return True
            if isinstance(request, sc.Deadline):
                if request.cycles <= 0:
                    task.pending = None
                    return True
                task.state = TaskState.BLOCKED
                task.blocked_on = request
                self._arm_timer(task, request, self.clock.now + request.cycles)
                return False
            if isinstance(request, sc.Exit):
                self._task_finished(task, explicit_exit=True)
                return False
            if isinstance(request, sc.EpCheckpoint):
                return self._sys_ep_checkpoint(task, request)
            if isinstance(request, sc.EpYield):
                return self._sys_ep_yield(task)
            if isinstance(request, sc.EpClean):
                task.pending = self._sys_ep_clean(task, request)
                return True
            if isinstance(request, sc.EpExit):
                self._sys_ep_exit(task)
                return False
        except (InvalidArgument, NotOwner, ResourceExhausted) as err:
            task.pending_exc = err
            return True
        raise SimulationError(f"{task.name} yielded a non-syscall: {request!r}")

    def _task_finished(
        self, task: Task, crashed: bool = False, explicit_exit: bool = False
    ) -> None:
        if isinstance(task, EventProcess):
            if explicit_exit:
                # Process-wide exit from inside an EP kills the whole base
                # process (Section 6.1).
                self._terminate_process(task.base)
            elif crashed:
                # A crashing event body takes the whole process down, like
                # a fault in any thread of a real process.
                self._terminate_process(task.base, crashed=True)
            else:
                # Returning from the event body behaves like ep_exit.
                self._destroy_ep(task)
                self._schedule_realm_if_work(task.base)
            return
        self._terminate_process(task, crashed=crashed)  # type: ignore[arg-type]

    # -- send ------------------------------------------------------------------------------

    def _drop(self, reason: str, sender: str, where: str, seq: Optional[int] = None) -> None:
        """Emit a silent message drop (*seq* is set once the message was
        queued).  The drop log is always attached, so this never skips."""
        for fn in self._on_drop:
            fn(reason, sender, where, seq)

    def _sys_send(self, task: Task, request: sc.Send) -> bool:
        cost = self.clock.cost
        self.clock.charge(KERNEL_IPC, cost.send_base)
        if self._on_send:
            for fn in self._on_send:
                fn(task, request)
        stats = OpStats()
        ps = task.send_label
        cs = self._user_label(request.cs, _BOTTOM)
        ds = self._user_label(request.ds, _TOP)
        v = self._user_label(request.v, _TOP)
        dr = self._user_label(request.dr, _BOTTOM)

        # ES = PS ⊔ CS.  Contamination needs no privilege (Section 5.2).
        # "paper" mode also models the requirement (2)/(3) scans below:
        # len(ds) + len(dr) entries.
        modeled = 0
        if self.label_cost_mode == "paper":
            modeled = labelops.paper_cost_raise_receive(ps, cs) + len(ds) + len(dr)
        es = labelops.raise_receive(ps, cs, stats)
        if self.sanitizer is not None and self.sanitizer.due():
            self.sanitizer.check_effective_send(task.name, request.port, ps, cs, es)

        ok = True
        # Requirement (2): DS(h) < 3 requires PS(h) = ⋆.
        if ds.default < L3 and ps.max_level != STAR:
            ok = False
        if ok:
            for handle, level in ds.iter_entries():
                stats.entries_scanned += 1
                if level < L3 and ps(handle) != STAR:
                    ok = False
                    break
        # Requirement (3): DR(h) > ⋆ requires PS(h) = ⋆.
        if ok and dr.default > STAR and ps.max_level != STAR:
            ok = False
        if ok:
            for handle, level in dr.iter_entries():
                stats.entries_scanned += 1
                if level > STAR and ps(handle) != STAR:
                    ok = False
                    break
        self._charge_label_work(stats, modeled)
        if not ok:
            self._drop(DROP_DECONT_PRIVILEGE, task.name, f"{request.port:#x}")
            return True  # unreliable send: the sender cannot observe the drop

        # Transferred receive rights leave the sender immediately; they
        # land on the receiver at delivery, or die with a dropped message.
        transfer = tuple(request.transfer or ())
        for handle in transfer:
            if handle not in task.owned_ports:
                raise NotOwner(f"transfer of unowned port {handle:#x}")
        for handle in transfer:
            task.owned_ports.discard(handle)
            task.ready_ports.discard(handle)
            entry = self.ports.get(handle)
            if entry is not None:
                entry.owner = "<in-transit>"

        return self._enqueue(
            port=request.port,
            payload=request.payload,
            effective_send=es,
            ds=ds,
            v=v,
            dr=dr,
            sender_name=task.name,
            transfer=transfer,
        )

    def _enqueue(
        self,
        port: Handle,
        payload: Any,
        effective_send: ChunkedLabel,
        ds: ChunkedLabel,
        v: ChunkedLabel,
        dr: ChunkedLabel,
        sender_name: str,
        transfer: Tuple[Handle, ...] = (),
        fault_exempt: bool = False,
    ) -> bool:
        if self.faults is not None and not fault_exempt:
            action = self.faults.on_send(sender_name, port, self._steps)
            if action is not None:
                what, rounds = action
                if what == "drop":
                    # Injected unreliability: indistinguishable from a
                    # label-check drop to every simulated program.
                    self._drop(DROP_FAULT, sender_name, f"{port:#x}")
                    self._kill_transferred(transfer)
                    return True
                self._defer_enqueue(
                    rounds,
                    port=port,
                    payload=payload,
                    effective_send=effective_send,
                    ds=ds,
                    v=v,
                    dr=dr,
                    sender_name=sender_name,
                    transfer=transfer,
                )
                return True
        entry = self.ports.get(port)
        if entry is None or not entry.alive:
            if entry is None and self.remote_routes:
                route = self.remote_routes.get(port)
                if route is not None and self.xshard_out is not None:
                    if transfer:
                        # Receive rights cannot cross a shard boundary —
                        # wire/v1 has no port-migration protocol — so the
                        # message drops and the in-transit rights die,
                        # exactly like a send to a dead port.
                        self._drop(DROP_DEAD_PORT, sender_name, f"{port:#x}")
                        self._kill_transferred(transfer)
                        return True
                    # Send-time checks (requirements 2 and 3) already
                    # passed above; ship (message, labels, effects) to the
                    # owning shard, where delivery-time checks and effects
                    # run against its own labels.
                    self.xshard_out(
                        route,
                        dict(
                            port=port,
                            payload=payload,
                            effective_send=effective_send,
                            ds=ds,
                            v=v,
                            dr=dr,
                            sender_name=sender_name,
                        ),
                    )
                    if self._on_xshard:
                        for fn in self._on_xshard:
                            fn("out", port)
                    return True
            self._drop(DROP_DEAD_PORT, sender_name, f"{port:#x}")
            self._kill_transferred(transfer)
            return True
        self._seq += 1
        qmsg = QueuedMessage(
            seq=self._seq,
            port=port,
            payload=payload,
            effective_send=effective_send,
            decontaminate_send=ds,
            verify=v,
            decontaminate_receive=dr,
            sender_name=sender_name,
            payload_bytes=_payload_bytes(payload),
            transfer=transfer,
        )
        if self.faults is not None:
            squeeze = self.faults.queue_limit(sender_name, port, self._steps)
            if squeeze is not None and len(entry.queue) >= squeeze[0]:
                # Injected queue pressure: behaves exactly like hitting the
                # real queue limit, but with the squeezed bound.
                self.faults.note_squeeze_drop(squeeze[1], sender_name, port)
                self._drop(DROP_QUEUE_LIMIT, sender_name, f"{port:#x}")
                self._kill_transferred(transfer)
                return True
        if not entry.enqueue(qmsg):
            self._drop(DROP_QUEUE_LIMIT, sender_name, f"{port:#x}")
            self._kill_transferred(transfer)
            return True
        if self._on_enqueue:
            for fn in self._on_enqueue:
                fn(qmsg)
        owner = self.tasks.get(entry.owner)
        if owner is not None:
            owner.ready_ports.add(port)
        if isinstance(owner, EventProcess):
            owner.base.ready_realm_ports.add(port)
        elif isinstance(owner, Process) and owner.state == TaskState.EP_REALM:
            owner.ready_realm_ports.add(port)
        self._wake_owner(entry.owner)
        return True

    def _kill_transferred(self, transfer: Tuple[Handle, ...]) -> None:
        """In-transit receive rights on a dropped message are destroyed —
        returning them to the sender would reveal the drop."""
        for handle in transfer:
            entry = self.ports.get(handle)
            if entry is not None:
                entry.dissociate()
                del self.ports[handle]
                vnode = self.vnodes.get(handle)
                if vnode is not None:
                    vnode.dissociated = True
                    self.vnodes.decref(handle)

    def _wake_owner(self, owner_key: str) -> None:
        task = self.tasks.get(owner_key)
        if task is None:
            return
        if isinstance(task, EventProcess):
            base = task.base
            # The base process is the schedulable identity for its realm.
            if base.state == TaskState.EP_REALM:
                self.scheduler.enqueue(base.key)
            return
        if task.state in (TaskState.BLOCKED, TaskState.RUNNABLE, TaskState.EP_REALM):
            self.scheduler.enqueue(task.key)

    # -- delivery (Figure 4 requirements 1 & 4, then the effects) ---------------------------

    def _try_deliver(self, task: Task, entry: Port, qmsg: QueuedMessage) -> bool:
        """Run the delivery-time checks against *task*; apply effects and
        return True, or record the drop and return False."""
        # Labels are immutable: observers get the pre-delivery objects.
        send_before, receive_before = task.send_label, task.receive_label
        if self.sanitizer is None or not self.sanitizer.due():
            delivered = self._deliver(task, entry, qmsg)
        else:
            snapshot = self.sanitizer.before_deliver(task, entry, qmsg)
            delivered = self._deliver(task, entry, qmsg)
            self.sanitizer.after_deliver(task, entry, qmsg, delivered, snapshot)
        if self._on_deliver:
            for fn in self._on_deliver:
                fn(task, entry, qmsg, delivered, send_before, receive_before)
        return delivered

    def _deliver(self, task: Task, entry: Port, qmsg: QueuedMessage) -> bool:
        stats = OpStats()
        self.clock.charge(KERNEL_IPC, self.clock.cost.recv_base)
        paper = self.label_cost_mode == "paper"
        modeled = 0
        # Bill the delivery's label work as the modelled 2005
        # implementation would pay it, using the labels as they stand
        # before the effects.
        if paper:
            modeled = labelops.paper_cost_check_send(
                qmsg.effective_send,
                task.receive_label,
                qmsg.decontaminate_receive,
                qmsg.verify,
                entry.label,
            )
        # Requirement (4): DR ⊑ pR.
        if not qmsg.decontaminate_receive.leq(entry.label, stats):
            self._charge_label_work(stats, modeled)
            self._drop(DROP_PORT_LABEL, qmsg.sender_name, task.name, seq=qmsg.seq)
            self._kill_transferred(qmsg.transfer)
            return False
        # Requirement (1): ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR.
        if not labelops.check_send(
            qmsg.effective_send,
            task.receive_label,
            qmsg.decontaminate_receive,
            qmsg.verify,
            entry.label,
            stats,
        ):
            self._charge_label_work(stats, modeled)
            self._drop(DROP_LABEL_CHECK, qmsg.sender_name, task.name, seq=qmsg.seq)
            self._kill_transferred(qmsg.transfer)
            return False
        if paper:
            modeled += labelops.paper_cost_apply_effects(
                task.send_label, qmsg.effective_send, qmsg.decontaminate_send
            )
            modeled += labelops.paper_cost_raise_receive(
                task.receive_label, qmsg.decontaminate_receive
            )
        # Effects.
        task.send_label = labelops.apply_send_effects(
            task.send_label, qmsg.effective_send, qmsg.decontaminate_send, stats
        )
        task.receive_label = labelops.raise_receive(
            task.receive_label, qmsg.decontaminate_receive, stats
        )
        # Receive rights travelling with the message land here.
        for handle in qmsg.transfer:
            port_entry = self.ports.get(handle)
            if port_entry is not None and port_entry.alive:
                port_entry.owner = task.key
                task.owned_ports.add(handle)
                if port_entry.queue:
                    task.ready_ports.add(handle)
                    if isinstance(task, EventProcess):
                        task.base.ready_realm_ports.add(handle)
                vnode = self.vnodes.get(handle)
                if vnode is not None:
                    vnode.owner = task.key
        self._charge_label_work(stats, modeled)
        return True

    def _charge_label_work(self, stats: OpStats, modeled_entries: int = 0) -> None:
        """Charge KERNEL_IPC for label work.

        In "paper" mode, entry scans are billed from *modeled_entries* (the
        2005 algorithm's linear scans); the fused implementation's own
        (much smaller) scan counts are billed only in "fused" mode.
        Structural costs — op dispatch, label/chunk allocation, chunk
        sharing — are billed from the executed operations in both modes.
        """
        cost = self.clock.cost
        cycles = (
            cost.label_op_base * stats.operations
            + cost.chunk_skip * stats.chunks_skipped
            + cost.label_alloc * stats.labels_allocated
            + cost.chunk_alloc * stats.chunks_allocated
            + cost.chunk_share * stats.chunks_shared
        )
        if self.label_cost_mode == "paper":
            cycles += int(cost.label_entry_scan * modeled_entries)
        else:
            cycles += cost.label_entry * stats.entries_scanned
        self.clock.charge(KERNEL_IPC, cycles)
        self.label_stats.merge(stats)
        if self._on_label_work:
            for fn in self._on_label_work:
                fn(stats)

    # -- recv --------------------------------------------------------------------------------

    def _sys_recv(self, task: Task, request: sc.Recv) -> bool:
        if request.port is not None and request.port not in task.owned_ports:
            task.pending_exc = NotOwner(f"recv on port {request.port:#x} not owned")
            return True
        delivered = self._pick_and_deliver(task, request)
        if delivered is not None:
            task.pending = delivered
            return True
        if not request.block:
            task.pending = None
            return True
        task.state = TaskState.BLOCKED
        task.blocked_on = request
        if request.timeout is not None:
            self._arm_timer(task, request, self.clock.now + request.timeout)
        return False

    def _retry_blocked_recv(self, task: Task) -> bool:
        """Try to complete a blocked Recv; True if the task may now run."""
        request = task.blocked_on
        if request is None:
            task.state = TaskState.RUNNABLE
            return True
        if isinstance(request, sc.Deadline):
            return False  # only the timer wakes a sleeper
        delivered = self._pick_and_deliver(task, request)
        if delivered is None:
            return False
        task.pending = delivered
        task.state = TaskState.RUNNABLE
        task.blocked_on = None
        return True

    def _pick_and_deliver(self, task: Task, request: sc.Recv) -> Optional[Message]:
        """Deliver the oldest deliverable message on the *request*'s port
        (or any owned port).  Messages failing their check are dropped
        permanently.

        Only ports with queued traffic (the kernel-maintained ready set)
        are examined, so a server owning thousands of idle connection
        ports pays nothing for them here."""
        if self._on_recv:
            for fn in self._on_recv:
                fn(task, request)
        port = request.port
        while True:
            best: Optional[Tuple[int, Port]] = None
            stale: List[Handle] = []
            candidates = [port] if port is not None else list(task.ready_ports)
            for handle in candidates:
                entry = self.ports.get(handle)
                if entry is None or not entry.alive or not entry.queue:
                    stale.append(handle)
                    continue
                seq = entry.queue[0].seq
                if best is None or seq < best[0]:
                    best = (seq, entry)
            for handle in stale:
                task.ready_ports.discard(handle)
            if best is None:
                return None
            entry = best[1]
            qmsg = entry.queue.popleft()
            if not entry.queue:
                task.ready_ports.discard(entry.handle)
            if self._try_deliver(task, entry, qmsg):
                return qmsg.to_message()
            # dropped; look again

    # -- handles, ports, labels ---------------------------------------------------------------

    def _sys_new_handle(self, task: Task) -> Handle:
        self.clock.charge(KERNEL_IPC, self.clock.cost.handle_alloc)
        handle = self.allocator.fresh()
        self.vnodes.create(handle)
        stats = OpStats()
        task.send_label = labelops.sparse_update(task.send_label, {handle: STAR}, stats)
        self._charge_label_work(stats)
        if self._on_new_handle:
            for fn in self._on_new_handle:
                fn(task, handle)
        return handle

    def _sys_new_port(self, task: Task, label: Optional[Label]) -> Handle:
        self.clock.charge(KERNEL_IPC, self.clock.cost.port_alloc)
        handle = self.allocator.fresh()
        self.vnodes.create(handle, is_port=True, owner=task.key)
        base = ChunkedLabel.from_label(label if label is not None else DEFAULT_PORT_LABEL)
        stats = OpStats()
        # Figure 4: pR ← L, then pR(p) ← 0.
        port_label = labelops.sparse_update(base, {handle: L0}, stats)
        self.ports[handle] = Port(handle=handle, label=port_label, owner=task.key)
        task.owned_ports.add(handle)
        # PS(p) ← ⋆.
        task.send_label = labelops.sparse_update(task.send_label, {handle: STAR}, stats)
        self._charge_label_work(stats)
        if self._on_new_port:
            for fn in self._on_new_port:
                fn(task, handle)
        return handle

    def _sys_set_port_label(self, task: Task, request: sc.SetPortLabel) -> bool:
        entry = self.ports.get(request.port)
        if entry is None or request.port not in task.owned_ports:
            raise NotOwner(f"set_port_label: port {request.port:#x} not owned")
        # Unlike new_port, the input is used verbatim (Section 5.5).
        entry.label = ChunkedLabel.from_label(request.label)
        if self._on_port_touch:
            for fn in self._on_port_touch:
                fn(task, request.port)
        return True

    def _sys_change_label(self, task: Task, request: sc.ChangeLabel) -> bool:
        stats = OpStats()
        if request.drop_send:
            updates = {}
            default = task.send_label.default
            for handle in request.drop_send:
                current = task.send_label(handle)
                if current > default:
                    self._charge_label_work(stats)
                    raise InvalidArgument(
                        f"drop_send of {handle:#x} would lower the send label "
                        "(declassification); only * and sub-default credentials "
                        "can be dropped"
                    )
                updates[handle] = default
            task.send_label = labelops.sparse_update(task.send_label, updates, stats)
        if request.raise_receive:
            updates = {}
            for handle, level in request.raise_receive.items():
                current = task.receive_label(handle)
                if level > current and task.send_label(handle) != STAR:
                    self._charge_label_work(stats)
                    raise InvalidArgument(
                        f"raising receive level of {handle:#x} requires "
                        "declassification privilege"
                    )
                if level != current:
                    updates[handle] = level
            if updates:
                task.receive_label = labelops.sparse_update(
                    task.receive_label, updates, stats
                )
        if request.send is not None:
            new = ChunkedLabel.from_label(request.send)
            # Raising only (self-contamination, including dropping own ⋆).
            if not task.send_label.leq(new, stats):
                self._charge_label_work(stats)
                raise InvalidArgument(
                    "change_label: send label may only be raised "
                    "(self-contamination); lowering requires receiving a "
                    "decontaminating message from a * holder"
                )
            task.send_label = new
        if request.receive is not None:
            new = ChunkedLabel.from_label(request.receive)
            old = task.receive_label
            # Raising any component requires ⋆ for that handle.
            handles = {h for h, _ in new.iter_entries()}
            handles.update(h for h, _ in old.iter_entries())
            for handle in handles:
                stats.entries_scanned += 1
                if new(handle) > old(handle) and task.send_label(handle) != STAR:
                    self._charge_label_work(stats)
                    raise InvalidArgument(
                        f"change_label: raising receive level of {handle:#x} "
                        "requires declassification privilege"
                    )
            if new.default > old.default and task.send_label.max_level != STAR:
                raise InvalidArgument(
                    "change_label: raising the receive default requires "
                    "universal declassification privilege"
                )
            task.receive_label = new
        self._charge_label_work(stats)
        if self._on_change_label:
            for fn in self._on_change_label:
                fn(task, request)
        return True

    def _user_label(self, label: Optional[Label], default: ChunkedLabel) -> ChunkedLabel:
        if label is None:
            return default
        if not isinstance(label, Label):
            raise InvalidArgument(f"not a label: {label!r}")
        return ChunkedLabel.from_label(label)

    # -- event processes -----------------------------------------------------------------------

    def _sys_ep_checkpoint(self, task: Task, request: sc.EpCheckpoint) -> bool:
        if not isinstance(task, Process):
            raise SimulationError("ep_checkpoint from inside an event process")
        if task.event_body is not None:
            raise SimulationError("ep_checkpoint called twice")
        task.event_body = request.event_body
        task.state = TaskState.EP_REALM
        task.gen = None  # the base process never runs again (Section 6.1)
        self._schedule_realm_if_work(task)
        return False

    def _sys_ep_yield(self, task: Task) -> bool:
        if not isinstance(task, EventProcess):
            raise SimulationError("ep_yield outside an event process")
        base = task.base
        task.state = TaskState.DORMANT
        task.blocked_on = sc.Recv()
        base.active_ep = None
        self._schedule_realm_if_work(base)
        return False

    def _sys_ep_clean(self, task: Task, request: sc.EpClean) -> int:
        if not isinstance(task, EventProcess):
            raise SimulationError("ep_clean outside an event process")
        if request.keep is not None:
            return task.view.clean_all_except(tuple(request.keep))
        if request.region is not None:
            return task.view.clean_region(request.region)
        if request.start is None or request.length is None:
            raise InvalidArgument("ep_clean needs a region name, a range, or keep=")
        return task.view.clean(request.start, request.length)

    def _sys_ep_exit(self, task: Task) -> None:
        if not isinstance(task, EventProcess):
            raise SimulationError("ep_exit outside an event process")
        base = task.base
        self._destroy_ep(task)
        self._schedule_realm_if_work(base)

    def _destroy_ep(self, ep: EventProcess) -> None:
        ep.state = TaskState.EXITED
        ep.exited = True
        for handle in list(ep.owned_ports):
            self._dissociate_port(handle)
        ep.view.release_all()
        ep.base.event_processes.pop(ep.key, None)
        if ep.base.active_ep == ep.key:
            ep.base.active_ep = None
        self.tasks.pop(ep.key, None)

    def _step_ep_realm(self, process: Process) -> None:
        """One scheduler step for a process in the EP realm."""
        if process.active_ep is not None:
            ep = process.event_processes.get(process.active_ep)
            if ep is None:
                process.active_ep = None
            else:
                if ep.state == TaskState.BLOCKED:
                    if not self._retry_blocked_recv(ep):
                        return  # whole process stays blocked (Section 6.1)
                self._advance(ep)
                self._schedule_realm_if_work(process)
                return
        # No active EP: find the oldest deliverable message in the realm.
        activated = self._activate_next_ep(process)
        if activated:
            self._schedule_realm_if_work(process)

    def _realm_ports(self, process: Process) -> List[Tuple[int, Port, Optional[EventProcess]]]:
        """(seq, port, owner-EP-or-None) for every non-empty realm port,
        oldest head first.  Maintained via ``ready_realm_ports`` so the
        cost is the number of ports with traffic, not the number of
        dormant event processes."""
        heads: List[Tuple[int, Port, Optional[EventProcess]]] = []
        stale: List[Handle] = []
        for handle in process.ready_realm_ports:
            entry = self.ports.get(handle)
            if entry is None or not entry.alive or not entry.queue:
                stale.append(handle)
                continue
            owner = self.tasks.get(entry.owner)
            if isinstance(owner, EventProcess):
                if owner.state != TaskState.DORMANT:
                    continue  # active/blocked EP consumes its own queue
                heads.append((entry.queue[0].seq, entry, owner))
            else:
                heads.append((entry.queue[0].seq, entry, None))
        for handle in stale:
            process.ready_realm_ports.discard(handle)
        heads.sort(key=lambda item: item[0])
        return heads

    def _activate_next_ep(self, process: Process) -> bool:
        """Deliver the oldest deliverable realm message, creating or
        resuming an event process.  Returns True if an EP ran."""
        while True:
            heads = self._realm_ports(process)
            if not heads:
                return False
            _, entry, ep = heads[0]
            qmsg = entry.queue.popleft()
            if ep is None:
                if self._deliver_to_new_ep(process, entry, qmsg):
                    return True
                continue  # dropped; try the next head
            if self._try_deliver(ep, entry, qmsg):
                self.clock.charge(OTHER, self.clock.cost.ep_switch)
                if self._on_ep_switch:
                    for fn in self._on_ep_switch:
                        fn(ep)
                self._touch_stack(ep)
                # A cleaned EP dropped its message-queue page; receiving a
                # message brings it back.
                if ep.view.region("msgq") is None:
                    ep.view.alloc(PAGE_SIZE, "msgq")
                ep.state = TaskState.RUNNABLE
                ep.blocked_on = None
                ep.pending = qmsg.to_message()
                process.active_ep = ep.key
                self._advance(ep)
                return True

    def _deliver_to_new_ep(self, process: Process, entry: Port, qmsg: QueuedMessage) -> bool:
        """Create a fresh EP for a message on a base-owned port."""
        process.ep_counter += 1
        view = EpView(
            process.address_space,
            self.accountant,
            on_cow_copy=lambda n: self.clock.charge(OTHER, self.clock.cost.cow_page_copy * n),
            on_page_alloc=lambda n: self.clock.charge(OTHER, self.clock.cost.page_alloc * n),
        )
        ep = EventProcess(process, process.ep_counter, view)
        if not self._try_deliver(ep, entry, qmsg):
            return False  # never existed
        self.clock.charge(OTHER, self.clock.cost.ep_create)
        self.tasks[ep.key] = ep
        process.event_processes[ep.key] = ep
        process.active_ep = ep.key
        ep.state = TaskState.RUNNABLE
        # One page for the event process's message queue (Section 9.1).
        view.alloc(PAGE_SIZE, "msgq")
        self._touch_stack(ep)
        ep.ctx = Context(self, ep, view, process.env)
        ep.gen = process.event_body(ep.ctx, qmsg.to_message())  # type: ignore[misc]
        if not isinstance(ep.gen, Generator):
            raise SimulationError(
                f"event body of {process.name!r} is not a generator function"
            )
        # Observers see the EP after its first delivery, so its labels
        # already include the activating message's contamination.
        if self._on_ep_create:
            for fn in self._on_ep_create:
                fn(ep, entry, qmsg)
        self._advance(ep)
        return True

    def _touch_stack(self, ep: EventProcess) -> None:
        """Model the stack writes of an activation: the running event
        process dirties its stack and exception-stack pages (they become
        private copies until cleaned — Section 9.1 counts 2 such pages per
        active session)."""
        for region_name in ("stack", "xstack"):
            region = ep.base.address_space.region(region_name)
            if region is not None:
                ep.view.write(region.start, b"\x01")

    def _schedule_realm_if_work(self, process: Process) -> None:
        if process.state != TaskState.EP_REALM:
            return
        if process.active_ep is not None:
            ep = process.event_processes.get(process.active_ep)
            if ep is not None and ep.state == TaskState.RUNNABLE:
                self.scheduler.enqueue(process.key)
                return
            if ep is not None and ep.state == TaskState.BLOCKED:
                # Re-tried when a message arrives (wake_owner).
                return
        if self._realm_ports(process):
            self.scheduler.enqueue(process.key)

    # -- teardown -----------------------------------------------------------------------------

    def _dissociate_port(self, handle: Handle) -> None:
        entry = self.ports.get(handle)
        if entry is None:
            return
        entry.dissociate()
        vnode = self.vnodes.get(handle)
        if vnode is not None:
            vnode.dissociated = True
            self.vnodes.decref(handle)
        task = self.tasks.get(entry.owner)
        if task is not None:
            task.owned_ports.discard(handle)
        del self.ports[handle]

    def _terminate_process(self, process: Process, crashed: bool = False) -> None:
        for ep in list(process.event_processes.values()):
            self._destroy_ep(ep)
        for handle in list(process.owned_ports):
            self._dissociate_port(handle)
        for name in list(process.address_space.regions):
            process.address_space.free(name)
        process.state = TaskState.EXITED
        process.gen = None
        self.scheduler.remove(process.key)
        self.tasks.pop(process.key, None)
        self.processes.pop(process.key, None)
        if process.notify_exit is not None:
            # The obituary: default labels, ordinary delivery checks.
            # Fault-exempt: the injector models unreliable *user* IPC; the
            # kernel's own exit notification is the mechanism supervision
            # (and chaos recovery itself) is built on.
            self._enqueue(
                port=process.notify_exit,
                payload={
                    "type": "EXITED",
                    "pid": process.pid,
                    "name": process.name,
                    "crashed": crashed,
                },
                effective_send=ChunkedLabel.from_label(Label.send_default()),
                ds=_TOP,
                v=_TOP,
                dr=_BOTTOM,
                sender_name="<kernel>",
                fault_exempt=True,
            )

    # -- introspection ----------------------------------------------------------------------

    def debug_log(self, who: str, message: str) -> None:
        if self.trace:
            self.debug_lines.append(f"[{self.clock.now:>12}] {who}: {message}")
            if len(self.debug_lines) > 10_000:
                del self.debug_lines[:5_000]

    def memory_report(self) -> Dict[str, int]:
        """System-wide memory accounting (drives Figure 6).

        Returns bytes by category plus page totals.  Label memory counts
        shared chunks once, mirroring the copy-on-write sharing of the
        kernel representation.
        """
        labels = []
        ep_bytes = 0
        process_bytes = 0
        for task in self.tasks.values():
            labels.append(task.send_label)
            labels.append(task.receive_label)
            if isinstance(task, EventProcess):
                ep_bytes += task.kernel_bytes()
            elif isinstance(task, Process):
                process_bytes += task.kernel_bytes()
        port_bytes = 0
        for port in self.ports.values():
            labels.append(port.label)
            port_bytes += port.memory_bytes()
            for qmsg in port.queue:
                labels.append(qmsg.effective_send)
                labels.append(qmsg.verify)
        label_bytes = shared_memory_bytes(labels)
        user_pages = self.accountant.in_use
        kernel_bytes = (
            process_bytes + ep_bytes + port_bytes + label_bytes + self.vnodes.memory_bytes()
        )
        return {
            "user_pages": user_pages,
            "user_bytes": user_pages * PAGE_SIZE,
            "process_bytes": process_bytes,
            "ep_bytes": ep_bytes,
            "port_bytes": port_bytes,
            "label_bytes": label_bytes,
            "vnode_bytes": self.vnodes.memory_bytes(),
            "kernel_bytes": kernel_bytes,
            "total_bytes": user_pages * PAGE_SIZE + kernel_bytes,
            "total_pages": user_pages + -(-kernel_bytes // PAGE_SIZE),
        }

    @property
    def steps_executed(self) -> int:
        return self._steps
