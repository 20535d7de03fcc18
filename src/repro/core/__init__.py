"""Core analyses: SNOW property checkers, serializability, feasibility matrices."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "feasibility": (
            "FeasibilityVerdict", "check_setting", "feasibility_matrix",
            "format_feasibility_matrix", "paper_expectation",
        ),
        "serializability": (
            "Lemma20Result", "SerializabilityResult", "check_lemma20",
            "check_strict_serializability", "tag_precedes",
        ),
        "snow": (
            "ReadTransactionReport", "SnowReport", "analyze_read_transaction",
            "blocking_servers_for", "check_snow", "round_trips_per_server",
            "versions_in_replies",
        ),
    },
)
