"""``VersionStore`` caches ``Vals``; every way the set changes must keep it right.

Algorithm C ships the whole ``Vals`` set on every read, so the store keeps
the ``(key, value)`` pairs in a list and copies it into the shipped tuple on
the first read after a put.  A stale cache would be a silently wrong read:
each mutation path is followed by a comparison with a rebuild through the
uncached accessors (``keys``/``get``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ioa import Message
from repro.protocols.replication import ReplicatedStorageServer
from repro.txn.objects import Key, VersionStore


class _Outbox:
    """Stands in for the kernel context: keeps what the server sends."""

    def __init__(self):
        self.sent = []

    def send(self, dst, msg_type, payload=None, phase=""):
        self.sent.append((dst, msg_type, dict(payload)))


def rebuilt(store: VersionStore):
    versions = tuple(store.get(key) for key in store.keys())
    return versions, tuple((v.key, v.value) for v in versions)


def next_vals_reply(server: ReplicatedStorageServer):
    outbox = _Outbox()
    request = Message.make("read-vals", "r1", server.name, {"txn": "R1", "object": server.object_id})
    server.on_message(request, outbox)
    ((dst, msg_type, payload),) = outbox.sent
    assert (dst, msg_type) == ("r1", "read-vals-reply")
    return payload


def assert_fresh(server: ReplicatedStorageServer):
    versions, pairs = rebuilt(server.store)
    assert server.store.all_versions() == versions
    assert server.store.pairs() == pairs
    reply = next_vals_reply(server)
    assert reply["versions"] == pairs and reply["num_versions"] == len(pairs)
    assert server.sync_versions() == pairs
    return pairs


def test_every_mutation_path_drops_the_cached_vals():
    server = ReplicatedStorageServer("sx", "ox", initial_value=0)
    assert assert_fresh(server) == ((Key.initial(), 0),)
    assert server.store.pairs() is server.store.pairs()  # built once per write

    server.store.put(Key(1, "w1"), "a")  # a new key
    assert assert_fresh(server) == ((Key.initial(), 0), (Key(1, "w1"), "a"))

    server.store.put(Key(1, "w1"), "b")  # an overwrite keeps the position
    assert assert_fresh(server) == ((Key.initial(), 0), (Key(1, "w1"), "b"))

    write = Message.make("write-val", "w2", "sx", {"txn": "W2", "key": Key(1, "w2"), "value": "c"})
    server.on_message(write, _Outbox())  # the wire path
    assert assert_fresh(server)[-1] == (Key(1, "w2"), "c")

    server.forget()  # crash with amnesia
    assert assert_fresh(server) == ((Key.initial(), 0),)

    # state transfer: a retained replica's snapshot installed into this one
    snapshot = ((Key.initial(), 0), (Key(1, "w1"), "b"), (Key(2, "w1"), "d"))
    assert server.install_sync(snapshot) == 2
    assert assert_fresh(server) == snapshot


#: a put: a key drawn from a small space, so overwrites are common, and a
#: value; ``None`` in place of a put asks for ``pairs()`` there
puts = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from(["w0", "w1"]), st.integers(0, 9)),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(puts)
def test_pairs_is_vals_and_is_one_object_between_puts(sequence):
    """``pairs()`` equals the pairs of ``all_versions()`` after any put
    sequence, overwrites of the initial key included, and two calls with no
    put between return the same tuple: replies share it."""
    server = ReplicatedStorageServer("sx", "ox", initial_value=0)
    store = server.store
    for step in sequence:
        if step is None:
            shipped = store.pairs()
            assert shipped == tuple((v.key, v.value) for v in store.all_versions())
            assert store.pairs() is shipped and next_vals_reply(server)["versions"] is shipped
            continue
        z, writer, value = step
        if z % 2:
            store.pairs()  # a put must replace a built tuple, not only build one late
        store.put(Key(z, writer), value)
        assert store.pairs() == rebuilt(store)[1]
        assert store.pairs() is store.pairs()
    server.forget()
    assert server.store.pairs() == ((Key.initial(), 0),) == rebuilt(server.store)[1]
