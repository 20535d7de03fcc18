"""Protocol registry: look protocols up by name.

The analysis harness, the benchmarks and the examples all refer to protocols
by their string names (``"algorithm-a"``, ``"algorithm-b"``, …); the registry
maps those names to fresh protocol instances.  A built-in protocol's module is
imported when the name is first asked for, so listing the names, or building
one protocol, does not load the other seven.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from .._lazy import load
from .base import Protocol

#: name -> ``(module, class)`` of a built-in not yet loaded, or the factory
_FACTORIES: Dict[str, Union[Tuple[str, str], Callable[[], Protocol]]] = {
    "algorithm-a": ("algorithm_a", "AlgorithmA"),
    "algorithm-b": ("algorithm_b", "AlgorithmB"),
    "algorithm-c": ("algorithm_c", "AlgorithmC"),
    "eiger": ("eiger", "EigerProtocol"),
    "naive-snow": ("naive_snow", "NaiveSnowCandidate"),
    "s2pl": ("blocking", "LockingProtocol"),
    "occ-double-collect": ("occ", "OccProtocol"),
    "simple-rw": ("simple_rw", "SimpleReadWrite"),
}


def protocol_names() -> Tuple[str, ...]:
    """All registered protocol names, sorted."""
    return tuple(sorted(_FACTORIES))


def get_protocol(name: str) -> Protocol:
    """A fresh instance of the named protocol."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(protocol_names())
        raise KeyError(f"unknown protocol {name!r}; known protocols: {known}") from None
    if isinstance(factory, tuple):
        module, cls = factory
        factory = _FACTORIES[name] = getattr(load(f"{__package__}.{module}"), cls)
    return factory()


def all_protocols() -> List[Protocol]:
    """Fresh instances of every registered protocol."""
    return [get_protocol(name) for name in protocol_names()]


def register_protocol(name: str, factory: Callable[[], Protocol]) -> None:
    """Register an external protocol implementation (used by extension tests)."""
    if name in _FACTORIES:
        raise ValueError(f"protocol name {name!r} is already registered")
    _FACTORIES[name] = factory


def bounded_snw_protocols() -> List[Protocol]:
    """The protocols of the Figure 1(b) matrix (bounded or unbounded SNW designs)."""
    return [get_protocol(name) for name in ("algorithm-a", "algorithm-b", "algorithm-c", "occ-double-collect")]
