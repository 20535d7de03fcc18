#!/usr/bin/env python
"""Reproduce Figure 5: Eiger-style read-only transactions are not strictly serializable.

The original SNOW paper credited Eiger with bounded-latency *strictly
serializable* read-only transactions; Section 6 of *SNOW Revisited* shows that
claim is wrong, because Eiger orders operations with Lamport clocks and
logical clocks cannot see the real-time order of causally unrelated
operations.

This example replays, on the executable Eiger-style protocol, a schedule the
explorer finds in the Figure 5 scenario — two servers, writes w1, w2 to one
shard and w3 to the other issued by a *different* writer only after w2
finished, and a READ transaction racing all three — and shows that the READ
is accepted in a single round yet returns a combination of values (w3's
together with w1's) that no strictly serializable system could return.

Run with::

    python examples/eiger_anomaly.py
"""

from __future__ import annotations

from repro.proofs import run_figure5


def main() -> None:
    result = run_figure5()

    print("The Figure 5 execution, transaction by transaction:")
    print(result.history.describe())
    print()

    print("What the Eiger-style reader did:")
    print(f"  READ returned      : {result.read_result.describe()}")
    print(f"  accepted in round 1: {result.accepted_first_round} (validity intervals overlapped)")
    print()

    print("What the checkers say:")
    print("  SNOW report        :", result.snow_report.property_string(),
          "(non-blocking, one version, writes complete — only S fails)")
    print("  serializability    :", result.serializability.describe())
    print()

    print("Why this violates strict serializability:")
    print(f"  * {result.w2_id} (oy=b2) finished before {result.w3_id} (ox=a3) was even invoked;")
    print(f"  * the READ observed {result.w3_id}'s value for ox, so any serialization must place it after")
    print(f"    {result.w3_id}, hence after {result.w2_id} — but then oy must be b2, not the b1 it returned.")
    print()
    print(f"Anomaly reproduced end to end: {result.anomaly_reproduced}")
    print()
    print("Consequence (Section 6): before algorithms B and C there was no READ transaction design with")
    print("bounded non-blocking latency *and* strict serializability alongside WRITE transactions.")


if __name__ == "__main__":
    main()
