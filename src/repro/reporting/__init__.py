"""``repro.reporting`` — result tables."""

from .._lazy import lazy_exports

_EXPORTS = {
    "CHANNEL_TRAFFIC_COLUMNS": ".tables",
    "Table": ".tables",
    "channel_traffic_row": ".tables",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
