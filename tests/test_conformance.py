"""Differential conformance fences for the one Figure 4 engine.

:mod:`repro.core.labelops` on :mod:`repro.core.chunks` is the only label
engine the kernel runs; :mod:`repro.core.labels` is the naive reference
it must agree with.  ``tests/test_labelops.py`` holds the Hypothesis
properties (uniform and ⋆-biased operands); this file keeps the targeted
shapes the OKWS hot path produces and a seeded mixed-operation sweep:

1. repeat-call properties — each Figure 4 operation, called twice on the
   same ⋆-biased operands, gives the reference answer both times and
   leaves its operands as they were (results share chunks copy-on-write
   with their inputs, so an aliased write would show here);
2. regression shapes — a ⋆ grant surviving contamination (T1), a taint
   raise punching through a held ⋆ (T3), and the per-connection
   pinned-port capability check with its denied twin (T4);
3. a deterministic seeded sweep of 3.5k mixed operations on ⋆-heavy
   random labels, every result compared against the reference;
4. an OKWS replay that, besides re-deriving every delivery from the
   reference (as ``tests/test_differential_kernel.py`` does), checks that
   no delivery changes the label objects it read.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import labelops as lo
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L1, L2, L3, STAR
from repro.kernel.kernel import Kernel
from repro.okws import ServiceConfig, launch
from repro.okws.services import (
    notes_handler,
    profile_declassifier_handler,
    profile_handler,
    session_cache_handler,
)
from repro.sim.workload import HttpClient

star_biased = st.sampled_from(ALL_LEVELS + (STAR, STAR))
labels = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=0, max_value=80), star_biased, max_size=25),
    default=star_biased,
)


def _c(label: Label) -> ChunkedLabel:
    return ChunkedLabel.from_label(label)


# -- 1. repeat-call properties -------------------------------------------------------


@given(labels, labels, labels, labels, labels)
@settings(max_examples=400)
def test_cached_check_send_matches_reference(es, qr, dr, v, pr):
    args = tuple(_c(x) for x in (es, qr, dr, v, pr))
    want = lo.check_send_reference(es, qr, dr, v, pr)
    assert lo.check_send(*args, OpStats()) == want
    assert lo.check_send(*args, OpStats()) == want
    assert tuple(a.to_label() for a in args) == (es, qr, dr, v, pr)


@given(labels, labels, labels)
@settings(max_examples=400)
def test_cached_apply_send_effects_matches_reference(qs, es, ds):
    args = tuple(_c(x) for x in (qs, es, ds))
    want = lo.apply_send_effects_reference(qs, es, ds)
    first = lo.apply_send_effects(*args, OpStats())
    second = lo.apply_send_effects(*args, OpStats())
    assert first.to_label() == want
    assert second.to_label() == want
    assert tuple(a.to_label() for a in args) == (qs, es, ds)


@given(labels, labels)
@settings(max_examples=400)
def test_cached_raise_receive_matches_reference(qr, dr):
    args = (_c(qr), _c(dr))
    want = lo.raise_receive_reference(qr, dr)
    first = lo.raise_receive(*args, OpStats())
    second = lo.raise_receive(*args, OpStats())
    assert first.to_label() == want
    assert second.to_label() == want
    assert tuple(a.to_label() for a in args) == (qr, dr)


# -- 2. regression shapes -----------------------------------------------------------


def test_t1_grant_handle_survives_contamination():
    # ES holds ⋆(h) and DS *grants* ⋆(h): the result is ⋆ at h, although
    # ES's default alone would contaminate h.
    h = 7
    qs = Label({}, L2)
    es = Label({h: STAR}, L1)
    ds = Label({h: STAR}, L3)
    want = lo.apply_send_effects_reference(qs, es, ds)
    assert want(h) == STAR
    got = lo.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats())
    assert got.to_label() == want


def test_t3_taint_punches_through_a_held_star():
    # DR explicitly raises a handle the receiver holds at ⋆: the raise
    # wins, the handle does not stay ⋆.
    h = 11
    qr = Label({h: STAR, 40: L2}, L1)
    dr = Label({h: L2}, STAR)
    want = qr | dr
    assert want(h) == L2
    got = lo.raise_receive(_c(qr), _c(dr), OpStats())
    assert got.to_label() == want


def test_t4_fresh_pin_capability_check_across_connections():
    # The per-connection shape: a pinned-low port label pR(u) = 0 guarded
    # by the sender's held ⋆(u), where u is a fresh handle every time.
    # Every connection's verdict must match the reference on its own
    # exact operands.
    qr, dr, v = Label({}, L2), Label({}, STAR), Label({}, L3)
    for conn in (500, 501, 502):
        es = Label({conn: STAR}, L1)
        pr = Label({conn: 0}, L3)
        want = lo.check_send_reference(es, qr, dr, v, pr)
        assert want  # the capability makes the send admissible
        assert lo.check_send(_c(es), _c(qr), _c(dr), _c(v), _c(pr), OpStats()) == want


def test_t4_denied_send_is_not_confused_with_the_admissible_one():
    # Same pinned-low port label, but the sender does NOT hold the ⋆: the
    # verdict flips to False.
    qr, dr, v = Label({}, L2), Label({}, STAR), Label({}, L3)
    conn = 600
    es_cap = Label({conn: STAR}, L1)
    es_plain = Label({}, L1)
    pr = Label({conn: 0}, L3)
    ok = lo.check_send(_c(es_cap), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
    denied = lo.check_send(_c(es_plain), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
    assert ok is True
    assert denied is False
    assert denied == lo.check_send_reference(es_plain, qr, dr, v, pr)


# -- 3. seeded mixed-operation sweep -------------------------------------------------


def test_seeded_differential_sweep():
    """3.5k rounds of check/effects/raise on ⋆-heavy random labels, every
    result compared against the reference."""
    rng = random.Random(0xA5BE5705)
    pool = ALL_LEVELS + (STAR, STAR, STAR)

    def rand_label():
        entries = {
            rng.randrange(0, 120): rng.choice(pool)
            for _ in range(rng.randrange(0, 18))
        }
        return Label(entries, rng.choice(pool))

    for i in range(3500):
        es, qr, dr, v, pr = (rand_label() for _ in range(5))
        got = lo.check_send(_c(es), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
        assert got == lo.check_send_reference(es, qr, dr, v, pr), (i, "check")
        got = lo.apply_send_effects(_c(qr), _c(es), _c(dr), OpStats())
        assert got.to_label() == lo.apply_send_effects_reference(qr, es, dr), (
            i,
            "effects",
        )
        got = lo.raise_receive(_c(v), _c(pr), OpStats())
        assert got.to_label() == lo.raise_receive_reference(v, pr), (i, "raise")


# -- 4. OKWS replay on the live kernel ----------------------------------------------


class ReplayCheckingKernel(Kernel):
    """Re-derives every delivery from the reference semantics and checks
    that the label objects the delivery read still hold their old values."""

    checked = 0

    def _try_deliver(self, task, entry, qmsg):
        read = (
            qmsg.effective_send,
            task.receive_label,
            task.send_label,
            qmsg.decontaminate_receive,
            qmsg.decontaminate_send,
            qmsg.verify,
            entry.label,
        )
        before = tuple(x.to_label() for x in read)
        es, qr, qs, dr, ds, v, pr = before

        expect_ok = lo.check_send_reference(es, qr, dr, v, pr) and dr <= pr
        delivered = super()._try_deliver(task, entry, qmsg)
        assert delivered == expect_ok, (
            f"delivery verdict diverged for {qmsg.sender_name} -> {task.name}"
        )
        if delivered:
            assert task.send_label.to_label() == lo.apply_send_effects_reference(
                qs, es, ds
            ), f"send-label effect diverged at {task.name}"
            assert task.receive_label.to_label() == (qr | dr), (
                f"receive-label effect diverged at {task.name}"
            )
        assert tuple(x.to_label() for x in read) == before, (
            f"delivery to {task.name} changed a label it read"
        )
        ReplayCheckingKernel.checked += 1
        return delivered


@pytest.mark.parametrize("network", ["classic", "decomposed"])
def test_okws_replay_every_cached_decision_matches_reference(network):
    ReplayCheckingKernel.checked = 0
    site = launch(
        kernel=ReplayCheckingKernel(),
        services=[
            ServiceConfig("cache", session_cache_handler),
            ServiceConfig("notes", notes_handler),
            ServiceConfig("profile", profile_handler),
            ServiceConfig("publish", profile_declassifier_handler, declassifier=True),
        ],
        users=[("alice", "pw-a"), ("bob", "pw-b"), ("carol", "pw-c")],
        schema=[
            "CREATE TABLE notes (author TEXT, text TEXT)",
            "CREATE TABLE profiles (owner TEXT, bio TEXT)",
        ],
        network=network,
    )
    client = HttpClient(site)
    for user, pw in (("alice", "pw-a"), ("bob", "pw-b"), ("carol", "pw-c")):
        client.request(user, pw, "cache", body=f"{user}-state".encode())
        client.request(user, pw, "notes", body=f"{user}-note", args={"op": "add"})
        client.request(user, pw, "notes", args={"op": "list"})
        client.request(user, pw, "profile", body=f"{user}-bio", args={"op": "set"})
    client.request("alice", "pw-a", "publish")
    client.request("bob", "pw-b", "profile", args={"op": "get"})
    client.request("alice", "pw-a", "cache", body=b"second-visit")
    assert ReplayCheckingKernel.checked > 300
