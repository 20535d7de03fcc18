"""repro — a Python reproduction of *SNOW Revisited* (Konwar, Lloyd, Lu, Lynch).

The package is organised in layers, and a process loads the ones it uses:
``import repro`` imports no subpackage, each of the ten below is imported when
it is first touched (``repro.core``, ``from repro import obs``), and inside
each a public name resolves on first access (:mod:`repro._lazy`) — except
:mod:`repro.ioa` and :mod:`repro.txn`, the kernel every build executes, which
load whole.  The optional planes are imported where they attach:
``get_protocol`` imports the one protocol asked for, ``Protocol.build`` the
consensus members, leases, stable storage and reconfiguration driver of a build
that asks for them, an ``ObservabilityPlane`` the listeners it is given.  No
import happens inside ``Simulation.run``.

* :mod:`repro.ioa` — deterministic I/O-automata-style simulation substrate
  (messages, traces, automata, schedulers/adversaries, the kernel);
* :mod:`repro.txn` — the transaction system (objects, READ/WRITE
  transactions, the ``OT`` data type, histories);
* :mod:`repro.core` — the SNOW property checkers, strict-serializability
  checkers (semantic search and Lemma 20) and the Figure 1 matrices;
* :mod:`repro.protocols` — the paper's algorithms A, B and C, the Eiger-style
  protocol of Section 6, and baselines (naive SNOW candidate, strict 2PL,
  double-collect OCC, simple reads);
* :mod:`repro.proofs` — mechanical replays of the impossibility constructions
  (Figures 3 and 4) and of the Eiger counter-example (Figure 5);
* :mod:`repro.analysis` — workload generation, the experiment runner and the
  table/series formatting used by the benchmark harness;
* :mod:`repro.faults` — fault injection and network conditions (latency,
  drops, duplication, partitions, server crashes) layered *optionally* on the
  kernel: with no plan installed the reliable paper model is untouched;
* :mod:`repro.consensus` — the replicated coordinator log (Raft-style
  consensus: ``ConsensusLog``, ``LeaderElection``, ``ReplicatedCoordinator``)
  that removes the coordinator single point of failure of algorithms B/C and
  OCC; ``consensus_factor=1`` leaves everything byte-identical to the seed;
* :mod:`repro.obs` — the observability plane: causal span trees derived
  from kernel traces, a virtual-time metrics registry fed by trace/mailbox
  hooks, streaming invariant monitors, a health/SLO plane, and Chrome
  trace-event / text-timeline exporters; off by default and trace-invisible
  when enabled;
* :mod:`repro.persist` — stable storage for consensus members (the in-sim
  store and a hash-chained on-disk journal); without it members are volatile.

Quickstart::

    from repro.protocols import get_protocol

    handle = get_protocol("algorithm-a").build(num_writers=2, num_objects=2)
    w = handle.submit_write({"ox": 1, "oy": 1})
    r = handle.submit_read(after=[w])
    handle.run_to_completion()
    print(handle.history().describe())
    print(handle.snow_report().describe())
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    dict.fromkeys(
        ("analysis", "consensus", "core", "faults", "ioa", "obs", "persist", "proofs", "protocols", "txn"),
        (),
    ),
)
__all__.append("__version__")
