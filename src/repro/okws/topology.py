"""The shipped OKWS topology, extracted from a live run — not
hand-transcribed.

:func:`record_okws_topology` boots the full OKWS stack under a
:class:`~repro.analysis.extract.TopologyRecorder`, drives a standard
request mix through the HTTP client (logins for two users, private
notes, sessions, the profile declassifier), and returns the observed
:class:`~repro.analysis.model.Topology` with the default policy battery
embedded.  ``python -m repro check --okws`` and the CI ``check`` job
both call this, so the verified model is whatever the launcher actually
wired.

Handle and event-process naming rides on the OKWS protocol itself
(:class:`OkwsNamer` sniffs EXPECT/GRANT/CONNECT/SESSION payloads), so
the emitted document speaks the paper's vocabulary: ``uT:alice``,
``uG:bob``, ``verify:notes``, ``worker-notes.alice``.

**The policy battery** (Section 7's security argument, minus claims the
paper itself does not make):

- *isolation*: user v's worker event processes never carry ``uT:u``
  (u ≠ v) above 2 — the per-user isolation headline.
- *capability-confinement* for ``uT:u`` ⋆: only the trusted processes
  (idd, ok-demux, netd, ok-dbproxy, okc) and declassifier workers.
- *capability-confinement* for ``admin`` ⋆: launcher and idd only.
- *capability-confinement* for each ``verify:s`` ⋆: launcher and the
  service's own worker.
- *mandatory-declassifier*: ``uT:alice`` above 2 reaches bob's notes
  worker only via declassifier edges (vacuously strong — no path exists
  at all — but it exercises the sub-model machinery in CI).
- *dead-edge* for the arteries that must stay deliverable (wire → netd,
  demux → idd).

Trusted processes (netd, demux, dbproxy) deliberately get *no* QS
isolation assertion: they legitimately hold ``uT ⋆`` (ADD_TAINT,
LOGIN_R) and the extractor's receive-raise folding lets the model
reorder their grant/contaminate handshakes, which would report flows
the deployed ordering prevents.  The paper's claim is about *untrusted*
workers, and that is what the battery pins down.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.levels import STAR

from repro.analysis.extract import TopologyRecorder, mark_declassifier_edges
from repro.analysis.model import Topology
from repro.policies.assertions import (
    CapabilityConfinement,
    DeadEdges,
    Isolation,
    MandatoryDeclassifier,
    Policy,
    policy_to_json,
)

#: Processes the paper trusts with per-user ⋆ privilege (Section 7.2).
TRUSTED = ("idd", "ok-demux", "netd", "ok-dbproxy", "okc")


class OkwsNamer:
    """A kernel observer that names handles and tags event processes by
    sniffing the OKWS protocol messages as they are sent."""

    def __init__(self, recorder: TopologyRecorder) -> None:
        self.recorder = recorder

    def on_send(self, task: Any, request: Any) -> None:
        payload = request.payload
        if not isinstance(payload, dict):
            return
        mtype = payload.get("type")
        if mtype == "EXPECT":
            self.recorder.name_handle(
                payload["verify_handle"], f"verify:{payload['service']}"
            )
        elif mtype == "CONNECT" and payload.get("user"):
            user = payload["user"]
            self.recorder.name_handle(payload["taint"], f"uT:{user}")
            self.recorder.name_handle(payload["grant"], f"uG:{user}")
            self.recorder.name_handle(
                payload["conn"], f"conn:{user}:{payload.get('conn_id')}"
            )
        elif mtype == "SESSION":
            self.recorder.name_handle(
                payload["port"],
                f"session:{payload.get('service')}:{payload.get('uid')}",
            )
        elif mtype == "GRANT" and request.ds is not None:
            # The launcher's one GRANT carries the admin handle at ⋆.
            for handle, level in request.ds.entries():
                if level == STAR:
                    self.recorder.name_handle(handle, "admin")

    def on_ep_create(self, ep: Any, entry: Any, qmsg: Any) -> None:
        payload = qmsg.payload
        if isinstance(payload, dict) and payload.get("type") == "CONNECT":
            user = payload.get("user")
            if user:
                self.recorder.tag(ep.key, user=user)


def okws_policies(
    users: Sequence[str], services: Sequence[str], declassifiers: Sequence[str]
) -> List[Policy]:
    """The default battery for a site with the given users and services."""
    policies: List[Policy] = []
    regular = [s for s in services if s not in declassifiers]
    declassifier_workers = tuple(f"worker-{s}*" for s in declassifiers)
    for u in users:
        for v in users:
            if u == v:
                continue
            for service in regular:
                policies.append(
                    Isolation(process=f"worker-{service}.{v}*", handle=f"uT:{u}")
                )
        policies.append(
            CapabilityConfinement(
                handle=f"uT:{u}", allowed=TRUSTED + declassifier_workers
            )
        )
    policies.append(CapabilityConfinement(handle="admin", allowed=("launcher", "idd")))
    for service in services:
        policies.append(
            CapabilityConfinement(
                handle=f"verify:{service}",
                allowed=("launcher", f"worker-{service}*"),
            )
        )
    if len(users) >= 2 and regular:
        policies.append(
            MandatoryDeclassifier(
                handle=f"uT:{users[0]}", sink=f"worker-{regular[0]}.{users[1]}*"
            )
        )
    policies.append(
        DeadEdges(edges=("<wire>->netd_wire_port*", "ok-demux->idd_port*"))
    )
    return policies


def record_okws_topology(
    users: Sequence[Tuple[str, str]] = (("alice", "pw-a"), ("bob", "pw-b")),
    kernel: Optional[Any] = None,
) -> Topology:
    """Boot OKWS, drive the standard request mix, return the observed
    topology with the default policy battery embedded."""
    from repro.kernel.kernel import Kernel
    from repro.okws import ServiceConfig, launch
    from repro.okws.services import (
        notes_handler,
        profile_declassifier_handler,
        profile_handler,
        session_cache_handler,
    )
    from repro.sim.workload import HttpClient

    kernel = kernel if kernel is not None else Kernel()
    recorder = TopologyRecorder(kernel)
    kernel.attach(OkwsNamer(recorder))

    services = [
        ServiceConfig("cache", session_cache_handler),
        ServiceConfig("notes", notes_handler),
        ServiceConfig("profile", profile_handler),
        ServiceConfig("publish", profile_declassifier_handler, declassifier=True),
    ]
    site = launch(
        kernel=kernel,
        services=services,
        users=list(users),
        schema=[
            "CREATE TABLE notes (author TEXT, text TEXT)",
            "CREATE TABLE profiles (owner TEXT, bio TEXT)",
        ],
    )
    client = HttpClient(site)
    names = [user for user, _ in users]
    passwords = dict(users)

    # The standard mix: every service touched by every user, sessions
    # revisited, private data written and read, the declassifier run —
    # enough traffic that each distinct (sender, port, labels) send the
    # code can emit is observed at least once.
    for user in names:
        pw = passwords[user]
        client.request(user, pw, "notes", body=f"{user}-private", args={"op": "add"})
        client.request(user, pw, "notes", args={"op": "list"})
        client.request(user, pw, "cache", body=b"visit-1")
        client.request(user, pw, "cache", body=b"visit-2")
        client.request(user, pw, "profile", body=f"{user} bio", args={"op": "set"})
    client.request(names[0], passwords[names[0]], "publish")
    for user in names:
        client.request(user, passwords[user], "profile", args={"op": "get"})

    recorder.name_handle(site.netd_wire_port, "netd_wire_port")
    recorder.name_handle(site.demux_port, "demux_port")
    recorder.name_handle(site.idd_port, "idd_port")
    recorder.name_handle(site.dbproxy_port, "dbproxy_port")
    recorder.name_handle(site.dbproxy_admin_port, "dbproxy_admin_port")
    cache_port = site.launcher_env.get("cache_port")
    if cache_port is not None:
        recorder.name_handle(cache_port, "cache_port")

    topo = recorder.build(name="okws")
    declassifiers = [s.name for s in services if s.declassifier]
    mark_declassifier_edges(topo, *(f"worker-{s}*" for s in declassifiers))
    topo.policies = [
        policy_to_json(p)
        for p in okws_policies(names, [s.name for s in services], declassifiers)
    ]
    return topo
