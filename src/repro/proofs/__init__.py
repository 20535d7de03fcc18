"""Mechanical replays of the paper's constructions (Figures 2-5)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "eiger_example": ("EigerExampleResult", "run_figure5"),
        "fragments": (
            "CommuteCheck", "ReadFragments", "can_commute", "commute_adjacent",
            "extract_read_fragments", "indistinguishable_fragments", "returned_value",
        ),
        "symbolic": (
            "ProofReplay", "ProofStep", "SymbolicExecution", "SymbolicFragment", "fragment",
        ),
        "three_client": ("build_alpha2", "replay_theorem1"),
        "two_client": ("build_beta", "c2c_breaks_the_chain", "replay_theorem2"),
    },
)
