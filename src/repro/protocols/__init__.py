"""Protocol implementations: the paper's algorithms A, B, C plus baselines."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "algorithm_a": ("AlgorithmA", "AlgorithmAReader", "AlgorithmAServer", "AlgorithmAWriter"),
        "algorithm_b": ("AlgorithmB", "AlgorithmBReader"),
        "algorithm_c": ("AlgorithmC", "AlgorithmCReader"),
        "base": ("BuildConfig", "Protocol", "SystemHandle", "reader_names", "writer_names"),
        "blocking": ("LockingProtocol", "LockingReader", "LockingServer", "LockingWriter"),
        "coordinated": ("CoordinatedServer", "CoordinatedWriter", "coordinator_name"),
        "eiger": ("EigerProtocol", "EigerReader", "EigerServer", "EigerVersion", "EigerWriter"),
        "naive_snow": ("NaiveReader", "NaiveServer", "NaiveSnowCandidate", "NaiveWriter"),
        "occ": ("OccProtocol", "OccReader", "OccServer", "OccWriter"),
        "replication": (
            "ReplicatedStorageServer", "emit_sends", "key_read_round", "per_object_reply_await",
            "write_value_round",
        ),
        "registry": (
            "all_protocols", "bounded_snw_protocols", "get_protocol", "protocol_names",
            "register_protocol",
        ),
        "simple_rw": ("SimpleReadWrite",),
    },
)
