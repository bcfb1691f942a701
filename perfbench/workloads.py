"""The perfbench workloads: seeded inputs, set-up, the measured phase and
the correctness oracle of each.

Every workload runs closed-loop at the paper's simulated concurrency of
16 (Section 9.2.1): a wave of 16 connections is opened, the simulated
machine runs until it is quiet, and only then is the next wave opened.
The connections live inside the simulated kernel, so a run uses one host
process and one host thread (plus the two forked shard processes of
``cluster_courier``).

The work of a run is fixed by ``(workload, seed, seconds)``: ``seconds``
sizes the measured phase through a nominal rate, so every count and every
simulated-clock figure repeats exactly from run to run, and only the
host-time figures vary.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster import Cluster, ClusterConfig
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.okws.launcher import OkwsSite, ServiceConfig, launch
from repro.okws.services import HEADER, profile_declassifier_handler, profile_handler
from repro.okws.sharding import shard_of_user
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient, HttpResponse

#: Simulated connections in flight per wave (Section 9.2.1).
CONCURRENCY = 16

#: One request: (user, password, service, body, args), as HttpClient takes it.
Request = Tuple[str, str, str, Any, Optional[Dict[str, Any]]]

ECHO_BODY = "x" * 11


class LeakError(AssertionError):
    """A response carried data its reader must never see."""


class SetupError(RuntimeError):
    """Set-up did not reach the state the measured phase starts from."""


@dataclass
class Phase:
    """What one measured phase did, as the benchmark observed it."""

    requests: int = 0
    ok: int = 0
    #: Non-HTTP outcomes checked per round (cluster courier deliveries
    #: and drops) and how many of them were wrong.
    events: int = 0
    events_failed: int = 0
    wall_s: float = 0.0
    wave_s: List[float] = field(default_factory=list)
    latencies: List[int] = field(default_factory=list)
    cycles: Dict[str, int] = field(default_factory=dict)
    failures: Counter = field(default_factory=Counter)
    rounds: int = 0
    routed: int = 0
    #: Billed simulated cycles per shard over the phase (cluster only).
    busy: List[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.requests + self.events

    @property
    def failed(self) -> int:
        return self.requests - self.ok + self.events_failed

    def add_cycles(self, delta: Dict[str, int]) -> None:
        for category, cycles in delta.items():
            self.cycles[category] = self.cycles.get(category, 0) + cycles


class Timer:
    """Times one call into the program, with tracing and profiling
    switched on only for its duration."""

    def __init__(self, phase: Phase, tracer: Any = None, profiler: Any = None):
        self.phase = phase
        self.tracer = tracer
        self.profiler = profiler
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        if self.tracer is not None:
            self.tracer.active = True
        if self.profiler is not None:
            self.profiler.enable()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.elapsed = time.perf_counter() - self._start
        if self.profiler is not None:
            self.profiler.disable()
        if self.tracer is not None:
            self.tracer.active = False
        self.phase.wall_s += self.elapsed


def waves(requests: Sequence[Request], size: int = CONCURRENCY) -> List[List[Request]]:
    """Split a closed-loop request list the way ``HttpClient.run_batch``
    does, so driving it wave by wave is the same run as one call."""
    return [list(requests[i : i + size]) for i in range(0, len(requests), size)]


def failure_kind(payload: Any) -> str:
    """A short name for why a response is not a success."""
    if not isinstance(payload, dict):
        return "no response"
    if payload.get("error"):
        return str(payload["error"])
    if "retry_after" in payload:
        return "demux 503 (pending timeout or degraded)"
    return f"status {payload.get('status')}"


def _users(n: int) -> List[Tuple[str, str]]:
    return [(f"u{i}", f"pw{i}") for i in range(n)]


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, not hash(), so the stream does
    # not depend on PYTHONHASHSEED.
    return random.Random(f"perfbench/{workload}/{seed}")


# -- echo_warm ----------------------------------------------------------------------


class EchoWarm:
    """The Figure 7 echo service over warm cached sessions.

    Set-up boots the site and opens one connection per user, which
    creates every session (the cold event-process path).  The measured
    phase is whole rounds over the warm sessions, each round a seeded
    permutation of the users.
    """

    name = "echo_warm"
    #: Warm echo requests per host second at the parent commit (2-core host).
    nominal_rps = 360
    #: Set-ups per untraced run (about 4 s each); ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, sessions: int = 1000):
        self.sessions = sessions

    def units_for(self, seconds: float) -> int:
        return max(2, round(seconds * self.nominal_rps / self.sessions))

    def _round(self, rng: random.Random) -> List[Request]:
        order = list(range(self.sessions))
        rng.shuffle(order)
        return [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in order]

    def plan(self, seed: int, units: int) -> Dict[str, Any]:
        rng = _rng(self.name, seed)
        setup = self._round(rng)
        measured = [request for _ in range(units) for request in self._round(rng)]
        return {"setup": setup, "measured": measured, "rounds": units}

    def setup(self, plan: Dict[str, Any], config: KernelConfig, workdir: str) -> Dict[str, Any]:
        site = build_echo_site(self.sessions, config=config)
        client = HttpClient(site)
        responses = client.run_batch(plan["setup"], concurrency=CONCURRENCY)
        bad = [r for r in responses if not echo_ok(r)]
        if bad:
            raise SetupError(f"echo_warm set-up: {len(bad)} session(s) not created")
        return {"site": site, "client": client}

    def measure(self, state: Dict[str, Any], plan: Dict[str, Any], phase: Phase,
                tracer: Any = None, profiler: Any = None) -> None:
        measure_site(state["site"], state["client"], waves(plan["measured"]),
                     check_echo, phase, tracer, profiler)
        phase.rounds = plan["rounds"]

    def finish(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return site_report(state["site"], self.sessions)


def echo_ok(response: HttpResponse) -> bool:
    payload = response.payload
    return (
        isinstance(payload, dict)
        and payload.get("status") is None
        and payload.get("headers") == HEADER
        and len(payload["headers"]) == 133
        and payload.get("body") == ECHO_BODY
    )


def check_echo(wave: Sequence[Request], responses: Sequence[HttpResponse], phase: Phase) -> None:
    for response in responses:
        payload = response.payload
        if echo_ok(response):
            phase.ok += 1
        elif isinstance(payload, dict) and payload.get("status") is None:
            phase.failures["wrong body"] += 1
        else:
            phase.failures[failure_kind(payload)] += 1


def measure_site(site: OkwsSite, client: HttpClient, plan_waves: List[List[Request]],
                 check: Any, phase: Phase, tracer: Any, profiler: Any) -> None:
    """Drive one in-process site wave by wave; the billed clock delta over
    the phase is what ``run_session_sweep`` reports for Figures 7 and 9."""
    kernel = site.kernel
    snap = kernel.clock.snapshot()
    for wave in plan_waves:
        with Timer(phase, tracer, profiler) as timer:
            responses = client.run_batch(wave, concurrency=CONCURRENCY)
        phase.wave_s.append(timer.elapsed)
        phase.requests += len(wave)
        phase.latencies.extend(r.latency_cycles for r in responses)
        check(wave, responses, phase)
    phase.add_cycles(kernel.clock.delta(snap))


def site_report(site: OkwsSite, sessions: int) -> Dict[str, Any]:
    from repro.obs.metrics import kernel_snapshot

    snapshot = kernel_snapshot(site.kernel)
    return {"sessions": sessions, "memory": [snapshot["memory"]], "snapshots": [snapshot]}


# -- profile_mix --------------------------------------------------------------------


PROFILE_SCHEMA = ["CREATE TABLE profiles (owner TEXT, bio TEXT)"]


class ProfileOracle:
    """What each user may legitimately see in a profile ``get``.

    ``own[u]`` is the set of values u's own entry may show: exactly the
    last acknowledged ``set``, widened by any later failed ``set`` (which
    may or may not have taken effect; ``None`` means "no row").
    ``public[u]`` is u's declassified bio.  Any other user's bio in a
    response is a leak and fails the run.
    """

    def __init__(self, users: Sequence[str], publishers: Sequence[str]):
        self.publishers = set(publishers)
        self.own: Dict[str, set] = {user: {None} for user in users}
        self.public: Dict[str, str] = {}
        self.leaks: List[str] = []

    def check(self, request: Request, response: HttpResponse) -> Optional[str]:
        """None when *response* is correct, else the failure kind."""
        user, _, service, body, args = request
        op = "publish" if service == "publish" else (args or {}).get("op", "get")
        payload = response.payload
        if not isinstance(payload, dict) or payload.get("status") is not None:
            if op == "set":
                self.own[user] |= {body, None}
            return failure_kind(payload)
        if payload.get("headers") != HEADER:
            return "wrong headers"
        content = payload.get("body")
        if op == "set":
            if content != "profile saved":
                return "wrong body"
            self.own[user] = {body}
            return None
        if op == "publish":
            return None if content == f"declassified profile of {user}" else "wrong body"
        if not isinstance(content, dict):
            return "wrong body"
        wrong = False
        for owner, bio in content.items():
            author = str(bio).split(":", 1)[0]
            private_other = owner != user and owner not in self.publishers
            foreign = author != user and author not in self.publishers
            if private_other or foreign:
                self.leaks.append(f"{user} read {owner}'s bio {bio!r}")
            elif owner == user:
                wrong |= bio not in self.own[user]
            else:
                wrong |= bio != self.public.get(owner)
        if user not in content and None not in self.own[user]:
            wrong = True
        if any(p not in content for p in self.public):
            wrong = True
        return "wrong body" if wrong else None


class ProfileMix:
    """Private profiles and their declassifier over ok-dbproxy and a
    ``wal/v1`` store.

    One user in eight is a publisher: set-up gives it a bio and
    declassifies it, and in the measured phase it only reads and
    re-publishes.  The others read and overwrite their private bio.  So
    the profile table holds one row per user for the whole run, and each
    ``get`` is an all-rows SELECT whose other-user rows the kernel drops.
    """

    name = "profile_mix"
    #: Requests per host second at the parent commit (2-core host).
    nominal_rps = 200
    #: Set-up takes about 0.3 s, so more repeats steady its median cheaply.
    setup_repeats = 9
    mix = (("get", 0.6), ("set", 0.3), ("publish", 0.1))

    def __init__(self, users: int = 64):
        self.n_users = users
        self.users = _users(users)
        self.publishers = [name for i, (name, _) in enumerate(self.users) if i % 8 == 0]

    def units_for(self, seconds: float) -> int:
        return max(4, round(seconds * self.nominal_rps / CONCURRENCY))

    def plan(self, seed: int, units: int) -> Dict[str, Any]:
        """The op pattern (which op, which role slot, in which wave) is
        fixed; the seed permutes publishers among publishers and writers
        among writers.  A seed thus changes who sends every request but
        not the mix, and the timeout cascade of the dbproxy defect, which
        is chaotic in the mix, stays comparable from seed to seed."""
        pattern = _rng(self.name, "pattern")
        relabel = _rng(self.name, seed)
        names = [name for name, _ in self.users]
        publishers = list(self.publishers)
        writers = [name for name in names if name not in set(publishers)]
        mapping = dict(zip(publishers, relabel.sample(publishers, len(publishers))))
        mapping.update(zip(writers, relabel.sample(writers, len(writers))))
        passwords = dict(self.users)

        def request(op: str, slot: str, body: str) -> Request:
            user = mapping[slot]
            if op == "publish":
                return (user, passwords[user], "publish", None, None)
            if op == "set":
                return (user, passwords[user], "profile", f"{user}:{body}", {"op": "set"})
            return (user, passwords[user], "profile", None, {"op": "get"})

        setup = [request("set", slot, "seed") for slot in names]
        setup += [request("publish", slot, "") for slot in publishers]
        pools = {"get": names, "set": writers, "publish": publishers}
        ops, weights = zip(*self.mix)
        plan_waves: List[List[Request]] = []
        for w in range(units):
            taken: set = set()
            wave: List[Request] = []
            for position in range(CONCURRENCY):
                op = pattern.choices(ops, weights)[0]
                free = [slot for slot in pools[op] if slot not in taken]
                if not free:
                    op, free = "get", [slot for slot in names if slot not in taken]
                slot = pattern.choice(free)
                taken.add(slot)
                wave.append(request(op, slot, f"{w}.{position}"))
            plan_waves.append(wave)
        return {"setup": setup, "waves": plan_waves}

    def setup(self, plan: Dict[str, Any], config: KernelConfig, workdir: str) -> Dict[str, Any]:
        store_dir = tempfile.mkdtemp(prefix="store-", dir=workdir)
        kernel = Kernel(config=config.replace(store_path=os.path.join(store_dir, "profiles.wal")))
        site = launch(
            kernel=kernel,
            services=[
                ServiceConfig("profile", profile_handler),
                ServiceConfig("publish", profile_declassifier_handler, declassifier=True),
            ],
            users=self.users,
            schema=PROFILE_SCHEMA,
        )
        client = HttpClient(site)
        oracle = ProfileOracle([name for name, _ in self.users], self.publishers)
        # Seeded one connection at a time: at concurrency 16 the cold
        # sets themselves hit the dbproxy timeout defect and fail.
        for request in plan["setup"]:
            (response,) = client.run_batch([request], concurrency=1)
            kind = oracle.check(request, response)
            if kind is not None:
                raise SetupError(f"profile_mix set-up {request[:3]}: {kind}")
        for name in self.publishers:
            oracle.public[name] = f"{name}:seed"
        return {"site": site, "client": client, "oracle": oracle, "store_dir": store_dir}

    def measure(self, state: Dict[str, Any], plan: Dict[str, Any], phase: Phase,
                tracer: Any = None, profiler: Any = None) -> None:
        oracle: ProfileOracle = state["oracle"]

        def check(wave: Sequence[Request], responses: Sequence[HttpResponse], phase: Phase) -> None:
            for request, response in zip(wave, responses):
                kind = oracle.check(request, response)
                if kind is None:
                    phase.ok += 1
                else:
                    phase.failures[kind] += 1
            if oracle.leaks:
                raise LeakError("; ".join(oracle.leaks[:3]))

        measure_site(state["site"], state["client"], plan["waves"], check, phase,
                     tracer, profiler)
        phase.rounds = len(plan["waves"])

    def finish(self, state: Dict[str, Any]) -> Dict[str, Any]:
        report = site_report(state["site"], self.n_users)
        shutil.rmtree(state["store_dir"])
        return report


# -- cluster_courier ----------------------------------------------------------------


class ClusterCourier:
    """Echo over a 2-shard :class:`~repro.cluster.Cluster` plus the
    cross-shard courier.

    Each ``run_batch`` call carries one wave of 16 per shard, so both
    shard processes work at once; each round covers every user once and
    ends with one ``run_courier()``, whose label-check drops happen on
    the receiving shard.
    """

    name = "cluster_courier"
    n_shards = 2
    #: Rounds per host second at the parent commit (2-core host, 512 users).
    nominal_rounds_per_s = 0.8
    #: Set-ups per untraced run (about 1.5 s each).
    setup_repeats = 5

    def __init__(self, users: int = 512):
        self.n_users = users
        self.users = _users(users)
        self.partition = [
            [user for user in self.users if shard_of_user(user[0], self.n_shards) == shard]
            for shard in range(self.n_shards)
        ]
        #: Courier outcomes every round must reproduce: one digest per user
        #: delivered, one doomed V = {0} send per odd user dropped.
        self.deliveries = users
        self.drops = users // 2

    def units_for(self, seconds: float) -> int:
        return max(2, round(seconds * self.nominal_rounds_per_s * 512 / self.n_users))

    def _round(self, rng: random.Random) -> List[List[Request]]:
        shards = []
        for part in self.partition:
            order = list(part)
            rng.shuffle(order)
            shards.append(order)
        calls = []
        for start in range(0, max(len(order) for order in shards), CONCURRENCY):
            calls.append([
                (name, pw, "echo", None, {"length": 11})
                for order in shards
                for name, pw in order[start : start + CONCURRENCY]
            ])
        return calls

    def plan(self, seed: int, units: int) -> Dict[str, Any]:
        rng = _rng(self.name, seed)
        return {"setup": self._round(rng), "rounds": [self._round(rng) for _ in range(units)]}

    def setup(self, plan: Dict[str, Any], config: KernelConfig, workdir: str) -> Dict[str, Any]:
        cluster = Cluster(ClusterConfig(
            n_shards=self.n_shards, kernel=config, service="echo",
            users=tuple(self.users), concurrency=CONCURRENCY,
        ))
        try:
            for call in plan["setup"]:
                result = cluster.run_batch(call)
                if any(status is not None or body != ECHO_BODY
                       for _, status, body, _ in result.outcomes):
                    raise SetupError("cluster_courier set-up: a session was not created")
            cluster.mark()
            state = {"cluster": cluster, "board": 0, "drops": 0}
            cluster.run_courier()
            outcome = self._courier_outcome(state)
            if outcome != (self.deliveries, self.drops):
                raise SetupError(f"cluster_courier set-up courier gave {outcome}")
            state["drops"] = 0
            # Drop accounting, and the shards' own observation, restart here.
            cluster.mark()
        except BaseException:
            cluster.close()
            raise
        return state

    def _courier_outcome(self, state: Dict[str, Any]) -> Tuple[int, int]:
        """Board deliveries and label-check drops since the last call."""
        report = state["cluster"].report()
        log = report["board_log"]
        fresh = log[state["board"]:]
        doomed = [entry for entry in fresh if entry.get("type") == "DOOMED"]
        if doomed:
            raise LeakError(f"{len(doomed)} doomed V={{0}} courier message(s) delivered")
        drops = report["drops"].get("label-check", 0)
        outcome = (len(fresh), drops - state["drops"])
        state["board"], state["drops"] = len(log), drops
        return outcome

    def measure(self, state: Dict[str, Any], plan: Dict[str, Any], phase: Phase,
                tracer: Any = None, profiler: Any = None) -> None:
        cluster: Cluster = state["cluster"]
        phase.busy = [0] * self.n_shards
        for calls in plan["rounds"]:
            for call in calls:
                with Timer(phase, tracer, profiler) as timer:
                    result = cluster.run_batch(call)
                phase.wave_s.append(timer.elapsed)
                phase.requests += len(call)
                phase.routed += result.routed
                for shard, busy in enumerate(result.busy_cycles):
                    phase.busy[shard] += busy
                for _, status, body, latency in result.outcomes:
                    phase.latencies.append(latency)
                    if status is None and body == ECHO_BODY:
                        phase.ok += 1
                    else:
                        phase.failures["wrong body" if status is None else f"status {status}"] += 1
            with Timer(phase, tracer, profiler):
                phase.routed += cluster.run_courier()
            delivered, dropped = self._courier_outcome(state)
            missed = abs(delivered - self.deliveries) + abs(dropped - self.drops)
            phase.events += self.deliveries + self.drops
            phase.events_failed += missed
            if missed:
                phase.failures["wrong courier count"] += missed
            phase.rounds += 1

    def finish(self, state: Dict[str, Any]) -> Dict[str, Any]:
        state["cluster"].close()
        return {"sessions": self.n_users}


WORKLOADS = {cls.name: cls for cls in (EchoWarm, ProfileMix, ClusterCourier)}
