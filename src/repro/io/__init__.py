"""Input/output helpers: table rendering and JSON persistence of records and scenarios."""

from .tables import format_table, format_markdown_table
from .serialization import (
    read_records_json,
    read_scenario_json,
    write_records_json,
    write_scenario_json,
)

__all__ = [
    "format_table",
    "format_markdown_table",
    "write_records_json",
    "read_records_json",
    "write_scenario_json",
    "read_scenario_json",
]
