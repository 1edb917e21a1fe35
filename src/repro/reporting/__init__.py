"""``repro.reporting`` — result tables."""

from .tables import CHANNEL_TRAFFIC_COLUMNS, Table, channel_traffic_row

__all__ = [
    "CHANNEL_TRAFFIC_COLUMNS",
    "Table",
    "channel_traffic_row",
]
