"""The writers of output files and reports: every indented JSON file and
report goes through :func:`indented_json`, and every CSV table through
:func:`csv_text`, so their layouts are set in one place.
"""

from __future__ import annotations

import csv
import io
import json


def indented_json(obj, *, sort_keys: bool = False, ensure_ascii: bool = True) -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii)``."""
    return json.dumps(obj, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii)


def csv_text(header: list[str], rows: list[list]) -> str:
    """``header`` and ``rows`` as CSV with line-feed line ends, fields quoted
    where they hold a comma, a quote or a line break."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
