"""``repro.persist`` — stable storage for consensus members.

See :mod:`repro.persist.store` for the interface and the in-sim backend,
:mod:`repro.persist.filestore` for the hash-chained on-disk journal, and
:mod:`repro.persist.plane` for the build-time plumbing
(``BuildConfig(persistence=...)``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "filestore": ("FileStableStore", "IntegrityError", "decode_value", "encode_value"),
        "plane": ("PersistencePlane", "PersistencePolicy"),
        "store": ("SimStableStore", "StableStore"),
    },
)
