"""The one JSON writer for output files and reports.

Every indented JSON file and report the package writes goes through
:func:`indented_json`, so their layout is set in one place.
"""

from __future__ import annotations

import json


def indented_json(obj, *, sort_keys: bool = False, ensure_ascii: bool = True) -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii)``."""
    return json.dumps(obj, indent=2, sort_keys=sort_keys, ensure_ascii=ensure_ascii)
