"""The one JSON loader behind the artifact gates (check_*.py, read_fleet.py).

A missing, truncated, binary or hand-mangled artifact must fail a gate
with a one-line diagnosis, never a traceback: CI wires stderr to the
check, and a traceback hides which file was bad.
"""

import json
import sys


def load_json(path, parse_float=None):
    """Parse `path` as a JSON object, or exit non-zero naming the defect.

    parse_float=str keeps floats as the exact bytes the C++ writer printed,
    for gates that compare deterministic artifacts verbatim.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_float=parse_float)
    except OSError as e:
        sys.exit(f"{path}: cannot read: {e.strerror or e}")
    except UnicodeDecodeError:
        sys.exit(f"{path}: not UTF-8 text (binary file?)")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: malformed JSON: {e}")
    if not isinstance(doc, dict):
        sys.exit(f"{path}: not a JSON object")
    return doc
