"""idd and ok-dbproxy behaviour (paper Sections 7.4 and 7.5), tested
through a running OKWS site plus direct protocol probes."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L0, L2, L3, STAR
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.ipc import protocol as P
from repro.ipc.rpc import Channel
from repro.kernel import Kernel, KernelConfig
from repro.kernel.clock import OTHER
from repro.kernel.syscalls import ChangeLabel, NewPort, Recv, Send, SetPortLabel
from repro.okws import ServiceConfig, launch
from repro.okws.services import notes_handler, profile_handler
from repro.servers.dbproxy import AFFIRM_RETRIES, AFFIRM_TIMEOUT
from repro.servers.idd import LOOKUP_RETRIES, LOOKUP_TIMEOUT
from repro.sim.workload import HttpClient


def notes_site(kernel=None):
    return launch(
        kernel=kernel,
        services=[ServiceConfig("notes", notes_handler)],
        users=[("alice", "pw-a"), ("bob", "pw-b")],
        schema=["CREATE TABLE notes (author TEXT, text TEXT)"],
    )


@pytest.fixture()
def site():
    return notes_site()


@pytest.fixture()
def metered_site():
    """A site whose kernel records ``app.*`` counters."""
    return notes_site(Kernel(config=KernelConfig(metrics=True)))


def probe(site, script, name="probe"):
    """Run a script(ctx, chan) process against the site; returns the proc."""

    def body(ctx):
        chan = yield from Channel.open()
        ctx.env["result"] = yield from script(ctx, chan)

    proc = site.kernel.spawn(body, name)
    site.kernel.run()
    return proc


def task_named(site, name):
    return next(p for p in site.kernel.processes.values() if p.name == name)


def inject(site, *rules):
    """Arm a fault plan on an already-booted site; returns the injector."""
    injector = FaultInjector(FaultPlan.of(*rules), kernel=site.kernel)
    site.kernel.faults = injector
    return injector


def login(site, chan, user, password):
    """LOGIN as *user* and accept rows tainted with their compartment;
    returns (uid, uT, uG)."""
    r = yield from chan.call(
        site.idd_port, P.request(P.LOGIN, user=user, password=password)
    )
    yield ChangeLabel(raise_receive={r.payload["taint"]: L3})
    return r.payload["uid"], r.payload["taint"], r.payload["grant"]


def send_write(site, chan, who, req, text="x"):
    """Send one note INSERT as *who*, stamped with the worker-style *req*."""
    uid, taint, grant = who
    yield Send(
        site.dbproxy_port,
        P.request(
            P.QUERY,
            reply=chan.port,
            sql="INSERT INTO notes (author, text) VALUES ('a', ?)",
            params=(text,),
            uid=uid,
            req=req,
        ),
        v=Label({taint: L3, grant: L0}, L2),
    )


def await_reply(chan, req):
    """The next reply on *chan* echoing *req*."""
    while True:
        msg = yield Recv(port=chan.port)
        if msg.payload.get("req") == req:
            return msg.payload


def select_notes(site, chan, uid, req):
    """Every note row visible to the probe, collected up to DONE_R."""
    yield Send(
        site.dbproxy_port,
        P.request(
            P.QUERY, reply=chan.port, sql="SELECT text FROM notes", uid=uid, req=req
        ),
    )
    rows = []
    while True:
        payload = yield from await_reply(chan, req)
        if payload["type"] == P.DONE_R:
            return rows
        rows.append(payload["row"])


def fake_idd(site):
    """Open a port and point ok-dbproxy's AFFIRMs at it, so the probe
    decides when (and whether) each AFFIRM_R comes back."""
    port = yield NewPort()
    yield SetPortLabel(port, Label.top())
    grant_port = task_named(site, "ok-dbproxy").env["dbproxy_grant_port"]
    yield Send(grant_port, P.request("SET_IDD", port=port))
    return port


def affirm_ok(affirm):
    yield Send(affirm.payload["reply"], P.reply_to(affirm.payload, "AFFIRM_R", ok=True))


# -- idd ---------------------------------------------------------------------------------


def test_idd_login_success_returns_handles(site):
    def script(ctx, chan):
        r = yield from chan.call(
            site.idd_port, P.request(P.LOGIN, user="alice", password="pw-a")
        )
        from repro.kernel import GetLabels
        send, _ = yield GetLabels()
        return {
            "ok": r.payload["ok"],
            "uid": r.payload["uid"],
            "taint_level": send(r.payload["taint"]),
            "grant_level": send(r.payload["grant"]),
        }

    proc = probe(site, script)
    result = proc.env["result"]
    assert result["ok"] and result["uid"] == 1
    # The LOGIN_R's DS granted both handles at ⋆ (step 4, Figure 5).
    assert result["taint_level"] == STAR
    assert result["grant_level"] == STAR


def test_idd_login_caches_handles(site):
    def script(ctx, chan):
        r1 = yield from chan.call(
            site.idd_port, P.request(P.LOGIN, user="alice", password="pw-a")
        )
        r2 = yield from chan.call(
            site.idd_port, P.request(P.LOGIN, user="alice", password="pw-a")
        )
        return (r1.payload, r2.payload)

    proc = probe(site, script)
    r1, r2 = proc.env["result"]
    assert r1["taint"] == r2["taint"]
    assert r1["grant"] == r2["grant"]


def test_idd_login_bad_password(site):
    def script(ctx, chan):
        r = yield from chan.call(
            site.idd_port, P.request(P.LOGIN, user="alice", password="nope")
        )
        return r.payload

    assert probe(site, script).env["result"] == {"type": P.LOGIN_R, "ok": False}


def test_idd_affirm_checks_binding(site):
    def script(ctx, chan):
        login = yield from chan.call(
            site.idd_port, P.request(P.LOGIN, user="alice", password="pw-a")
        )
        good = yield from chan.call(
            site.idd_port,
            P.request(
                "AFFIRM",
                uid=login.payload["uid"],
                taint=login.payload["taint"],
                grant=login.payload["grant"],
            ),
        )
        bad = yield from chan.call(
            site.idd_port,
            P.request("AFFIRM", uid=login.payload["uid"], taint=12345, grant=678),
        )
        return (good.payload["ok"], bad.payload["ok"])

    assert probe(site, script).env["result"] == (True, False)


def test_idd_send_label_grows_two_stars_per_user(site):
    client = HttpClient(site)
    idd = next(p for p in site.kernel.processes.values() if p.name == "idd")
    before = len(idd.send_label)
    client.request("alice", "pw-a", "notes", args={"op": "list"})
    client.request("bob", "pw-b", "notes", args={"op": "list"})
    after = len(idd.send_label)
    # Two handles per user (Section 9.3): uT and uG, held at ⋆.
    assert after == before + 4
    # Re-login does not grow it further.
    client.request("alice", "pw-a", "notes", args={"op": "list"})
    assert len(idd.send_label) == after


def test_idd_answers_the_next_login_after_a_dropped_lookup_reply(metered_site):
    site = metered_site
    # Every attempt of the first LOGIN's password lookup loses its QUERY_R.
    idd = task_named(site, "idd")
    (lookup_port,) = idd.owned_ports - {site.idd_port}
    injector = inject(
        site,
        FaultRule(
            kind="drop",
            id="lost-lookup",
            match="ok-dbproxy",
            port=lookup_port,
            max_fires=1 + LOOKUP_RETRIES,
        ),
    )

    def script(ctx, chan):
        yield from chan.call_nowait(
            site.idd_port, P.request(P.LOGIN, user="alice", password="pw-a")
        )
        start = ctx.now
        r = yield from chan.call(
            site.idd_port, P.request(P.LOGIN, user="bob", password="pw-b")
        )
        return r.payload, ctx.now - start

    result = probe(site, script).env.get("result")
    assert result is not None, "idd is wedged on the lost lookup"
    payload, waited = result
    assert payload["ok"] and payload["uid"] == 2
    assert injector.fired("lost-lookup") == 1 + LOOKUP_RETRIES
    # The first LOGIN got no LOGIN_R: it spent every lookup deadline.
    assert waited >= LOOKUP_TIMEOUT * (1 + 2 + 4)
    assert site.kernel.metrics.get("app.OKWS.lookup_timeouts") == 1


def test_lost_lookup_degrades_to_503_then_recovers(site):
    idd = task_named(site, "idd")
    (lookup_port,) = idd.owned_ports - {site.idd_port}
    inject(
        site,
        FaultRule(
            kind="drop",
            id="lost-lookup",
            match="ok-dbproxy",
            port=lookup_port,
            max_fires=1 + LOOKUP_RETRIES,
        ),
    )
    client = HttpClient(site)
    first = client.request("alice", "pw-a", "notes", args={"op": "list"})
    # Not a 403: an unanswered lookup says nothing about the password.
    assert first.payload["status"] == 503 and "retry_after" in first.payload
    assert client.request("alice", "pw-a", "notes", args={"op": "list"}).ok


# -- ok-dbproxy -------------------------------------------------------------------------


def test_admin_port_requires_admin_handle(site):
    # A stranger cannot reach the raw SQL interface at all: the port label
    # {admin 0, 2} drops the message in the kernel.
    def script(ctx, chan):
        yield Send(
            site.dbproxy_admin_port,
            dict(P.request(P.QUERY, sql="SELECT * FROM users"), reply=chan.port),
        )
        msg = yield Recv(port=chan.port, block=False)
        return msg

    before = site.kernel.drop_log.count("label-check")
    proc = probe(site, script)
    assert proc.env["result"] is None
    assert site.kernel.drop_log.count("label-check") == before + 1


def test_public_port_rejects_user_id_column(site):
    def script(ctx, chan):
        r = yield from chan.call(
            site.dbproxy_port,
            P.request(P.QUERY, sql="SELECT _user_id FROM notes", uid=1),
        )
        return r.payload

    result = probe(site, script).env["result"]
    assert result["type"] == P.ERROR_R
    assert "private" in result["error"]


def test_public_port_rejects_schema_changes(site):
    def script(ctx, chan):
        r = yield from chan.call(
            site.dbproxy_port,
            P.request(P.QUERY, sql="CREATE TABLE evil (x INTEGER)", uid=1),
        )
        return r.payload

    assert probe(site, script).env["result"]["type"] == P.ERROR_R


def test_write_without_verify_rejected(site):
    def script(ctx, chan):
        # uid 1 exists (alice logged in during fixture? ensure via login)
        yield from chan.call(
            site.idd_port, P.request(P.LOGIN, user="alice", password="pw-a")
        )
        r = yield from chan.call(
            site.dbproxy_port,
            P.request(
                P.QUERY, sql="INSERT INTO notes (author, text) VALUES ('a', 'x')", uid=1
            ),
        )
        return r.payload

    result = probe(site, script).env["result"]
    assert result["type"] == P.ERROR_R


def test_write_with_unknown_uid_rejected(site):
    def script(ctx, chan):
        r = yield from chan.call(
            site.dbproxy_port,
            P.request(
                P.QUERY, sql="INSERT INTO notes (author, text) VALUES ('z', 'x')", uid=999
            ),
        )
        return r.payload

    result = probe(site, script).env["result"]
    assert "unknown user" in result["error"]


def test_select_returns_public_rows_untainted(site):
    # Seed a public row via the launcher-side admin channel... easiest:
    # declassified rows are _user_id = 0; BULK_INSERT defaults to public.
    client = HttpClient(site)
    client.request("alice", "pw-a", "notes", body="mine", args={"op": "add"})

    def script(ctx, chan):
        rows = []
        yield Send(
            site.dbproxy_port,
            dict(
                P.request(P.QUERY, sql="SELECT author, text FROM notes", uid=None),
                reply=chan.port,
            ),
        )
        while True:
            msg = yield Recv(port=chan.port)
            if msg.payload["type"] == P.DONE_R:
                return rows
            if msg.payload["type"] == P.ROW_R:
                rows.append(msg.payload["row"])

    # The probe is untainted: alice's private row is dropped by the kernel,
    # so the probe sees nothing — and cannot tell how many rows were sent.
    assert probe(site, script).env["result"] == []


# -- asynchronous AFFIRM (DESIGN.md §10.3) ----------------------------------------------


def test_concurrent_cold_writes_do_not_wedge_dbproxy_and_idd():
    # Cold sets at concurrency 16: LOGINs (idd -> dbproxy admin port)
    # overlap writes (dbproxy -> idd AFFIRM).  A dbproxy that blocked on
    # AFFIRM deadlocked the pair until its deadlines ran out.
    users = [(f"user{i}", f"pw{i}") for i in range(16)]
    site = launch(
        services=[ServiceConfig("profile", profile_handler)],
        users=users,
        schema=["CREATE TABLE profiles (owner TEXT, bio TEXT)"],
    )
    client = HttpClient(site)
    before = site.kernel.clock.snapshot()
    responses = client.run_batch(
        [(user, pw, "profile", f"{user}:bio", {"op": "set"}) for user, pw in users],
        concurrency=16,
    )
    idle = site.kernel.clock.delta(before).get(OTHER, 0)
    assert [r.body for r in responses] == ["profile saved"] * 16
    assert idle < 100_000_000


def test_parked_write_does_not_block_selects_or_admin_queries(site):
    def script(ctx, chan):
        alice = yield from login(site, chan, "alice", "pw-a")
        idd = yield from fake_idd(site)
        yield from send_write(site, chan, alice, "w-1")
        affirm = yield Recv(port=idd)  # withheld until the end
        start = ctx.now
        rows = yield from select_notes(site, chan, alice[0], "s-1")
        # idd checks bob's password through dbproxy's admin port.
        bob = yield from login(site, chan, "bob", "pw-b")
        served = ctx.now - start
        yield from affirm_ok(affirm)
        write = yield from await_reply(chan, "w-1")
        after = yield from select_notes(site, chan, alice[0], "s-2")
        return rows, bob[0], served, write, after

    rows, bob_uid, served, write, after = probe(site, script).env["result"]
    assert rows == []
    assert bob_uid == 2
    assert served < AFFIRM_TIMEOUT
    assert write["type"] == P.QUERY_R and write["rows_affected"] == 1
    assert after == [{"text": "x"}]


def test_write_fails_after_every_affirm_attempt_is_dropped(site):
    injector = inject(
        site,
        FaultRule(kind="drop", id="lost-affirm", match="ok-dbproxy", port=site.idd_port),
    )

    def script(ctx, chan):
        alice = yield from login(site, chan, "alice", "pw-a")
        start = ctx.now
        yield from send_write(site, chan, alice, "w-1")
        reply = yield from await_reply(chan, "w-1")
        return reply, ctx.now - start

    reply, waited = probe(site, script).env["result"]
    assert reply["type"] == P.ERROR_R and reply["error"] == "idd unavailable"
    assert injector.fired("lost-affirm") == 1 + AFFIRM_RETRIES
    # Per-attempt deadlines T, 2T, 4T; the rest is a few syscalls.
    deadlines = AFFIRM_TIMEOUT * (1 + 2 + 4)
    assert deadlines <= waited < deadlines + AFFIRM_TIMEOUT // 100


def test_retry_of_a_parked_write_runs_it_once(metered_site):
    site = metered_site
    def script(ctx, chan):
        alice = yield from login(site, chan, "alice", "pw-a")
        idd = yield from fake_idd(site)
        yield from send_write(site, chan, alice, "w-1")
        affirm = yield Recv(port=idd)
        yield from send_write(site, chan, alice, "w-1")  # the worker retries
        # dbproxy serves in arrival order: once this SELECT is answered it
        # has seen the retry.
        yield from select_notes(site, chan, alice[0], "s-1")
        second_affirm = yield Recv(port=idd, block=False)
        yield from affirm_ok(affirm)
        write = yield from await_reply(chan, "w-1")
        yield from send_write(site, chan, alice, "w-1")  # a retry after it ran
        replay = yield from await_reply(chan, "w-1")
        rows = yield from select_notes(site, chan, alice[0], "s-2")
        return second_affirm, write, replay, rows

    second_affirm, write, replay, rows = probe(site, script).env["result"]
    assert second_affirm is None
    assert write["type"] == P.QUERY_R and write["rows_affected"] == 1
    assert replay == write
    assert rows == [{"text": "x"}]
    assert site.kernel.metrics.get("app.OKDB.write_replays") == 1
