#!/usr/bin/env python3
"""Diff two benchmark JSON artifacts.

Usage::

    python tools/bench_compare.py BASELINE.json CANDIDATE.json

Every numeric leaf shared by both files is printed side by side with its
relative change; leaves present in only one file are listed separately so a
schema drift is visible instead of silently ignored.  If the two runs
disagree on their ``shape`` or ``hardware`` context (different database
shape, core count, numpy version or thread-cap env), a warning is printed to
stderr first — wall-clock numbers from different shapes or machines diff
apples against oranges.  Exit code is 0 unless inputs cannot be read or
share no numeric leaves.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List


def flatten_numeric(value: object, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts/lists to ``dotted.path -> float`` for numeric leaves."""
    leaves: Dict[str, float] = {}
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(flatten_numeric(child, path))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            path = f"{prefix}[{index}]"
            leaves.update(flatten_numeric(child, path))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        leaves[prefix] = float(value)
    return leaves


#: Context sections that must match for a two-file diff to be meaningful.
CONTEXT_KEYS = ("shape", "hardware")


def context_warnings(baseline: Dict[str, object], candidate: Dict[str, object]) -> List[str]:
    """Human-readable mismatches between two runs' measurement contexts.

    Compares the raw (unflattened) ``shape`` and ``hardware`` sections; a
    section missing from either side is only a mismatch if the other side
    has it (old artifacts predate the ``hardware`` section).
    """
    warnings: List[str] = []
    for key in CONTEXT_KEYS:
        old, new = baseline.get(key), candidate.get(key)
        if old is None and new is None:
            continue
        if old != new:
            warnings.append(
                f"warning: {key} context differs between runs "
                f"({json.dumps(old, sort_keys=True)} vs "
                f"{json.dumps(new, sort_keys=True)}); "
                f"wall-clock changes may reflect the context, not the code"
            )
    return warnings


def compare(baseline: Dict[str, float], candidate: Dict[str, float]) -> str:
    """Render a side-by-side comparison of two flattened metric maps."""
    shared = sorted(set(baseline) & set(candidate))
    only_base = sorted(set(baseline) - set(candidate))
    only_cand = sorted(set(candidate) - set(baseline))

    width = max((len(path) for path in shared), default=20)
    lines = [f"{'metric':<{width}} {'baseline':>14} {'candidate':>14} {'change':>9}"]
    for path in shared:
        old, new = baseline[path], candidate[path]
        if old != 0:
            change = f"{(new - old) / abs(old) * 100.0:+8.1f}%"
        else:
            change = "    n/a" if new != 0 else "   +0.0%"
        lines.append(f"{path:<{width}} {old:>14.6g} {new:>14.6g} {change:>9}")
    for path in only_base:
        lines.append(f"{path:<{width}} {baseline[path]:>14.6g} {'-':>14} {'removed':>9}")
    for path in only_cand:
        lines.append(f"{path:<{width}} {'-':>14} {candidate[path]:>14.6g} {'added':>9}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    raw = []
    for path in argv:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw.append(json.load(handle))
        except (OSError, ValueError) as error:
            print(f"cannot read {path}: {error}", file=sys.stderr)
            return 2
    for warning in context_warnings(raw[0], raw[1]):
        print(warning, file=sys.stderr)
    baseline, candidate = (flatten_numeric(data) for data in raw)
    if not set(baseline) & set(candidate):
        print("the two files share no numeric metrics", file=sys.stderr)
        return 1
    try:
        print(compare(baseline, candidate))
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
