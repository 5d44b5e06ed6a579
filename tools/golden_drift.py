#!/usr/bin/env python3
"""Reports how far one set of golden JSONL files drifted from another.

    tools/golden_drift.py OLD NEW [--max-abs X]

OLD and NEW are two directories of *.jsonl files (for example a checkout's
tests/golden/ before and after tools/regen_golden.sh) or two single files.
Files are paired by name and compared line by line, JSON value by JSON
value. Two numbers where at least one is a float count as float drift and
feed the maximum absolute and relative difference. Every other mismatch is
a non-float difference: a changed string, bool or integer (iteration
counts, flags, active sets), a missing key, a list of another length, or a
file or line present on one side only.

Exit status: 0 when there is no non-float difference and the maximum
absolute drift is within --max-abs (when given), 1 otherwise, 2 on usage
errors.
"""

import argparse
import json
import os
import sys


class Drift:
    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.floats_changed = 0
        self.non_float = []

    def number(self, a, b):
        if a == b:
            return
        self.floats_changed += 1
        diff = abs(a - b)
        self.max_abs = max(self.max_abs, diff)
        self.max_rel = max(self.max_rel, diff / max(abs(a), abs(b)))

    def other(self, where, what):
        self.non_float.append(f"{where}: {what}")


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a, b, where, drift):
    if is_number(a) and is_number(b) and (isinstance(a, float) or
                                          isinstance(b, float)):
        drift.number(float(a), float(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                drift.other(f"{where}.{key}", "key on one side only")
            else:
                compare(a[key], b[key], f"{where}.{key}", drift)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            drift.other(where, f"list length {len(a)} -> {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{where}[{i}]", drift)
    elif type(a) is not type(b) or a != b:
        drift.other(where, f"{a!r} -> {b!r}")


def compare_files(old, new, label, drift):
    with open(old, encoding="utf-8") as f:
        old_lines = f.read().splitlines()
    with open(new, encoding="utf-8") as f:
        new_lines = f.read().splitlines()
    if len(old_lines) != len(new_lines):
        drift.other(label, f"{len(old_lines)} -> {len(new_lines)} lines")
    for no, (x, y) in enumerate(zip(old_lines, new_lines), start=1):
        compare(json.loads(x), json.loads(y), f"{label}:{no}", drift)


def pairs(old, new):
    if os.path.isfile(old) and os.path.isfile(new):
        return [(old, new, os.path.basename(new))], []
    if not (os.path.isdir(old) and os.path.isdir(new)):
        sys.exit("golden_drift: OLD and NEW must both be files or directories")
    names_old = {n for n in os.listdir(old) if n.endswith(".jsonl")}
    names_new = {n for n in os.listdir(new) if n.endswith(".jsonl")}
    both = sorted(names_old & names_new)
    return ([(os.path.join(old, n), os.path.join(new, n), n) for n in both],
            sorted(names_old ^ names_new))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--max-abs", type=float, default=None,
                   help="fail when the maximum absolute drift exceeds this")
    args = p.parse_args()

    files, unpaired = pairs(args.old, args.new)
    total = Drift()
    for name in unpaired:
        total.other(name, "file on one side only")
    for old, new, label in files:
        drift = Drift()
        compare_files(old, new, label, drift)
        print(f"{label}: max_abs {drift.max_abs:.3g}  max_rel "
              f"{drift.max_rel:.3g}  floats_changed {drift.floats_changed}  "
              f"non_float {len(drift.non_float)}")
        total.max_abs = max(total.max_abs, drift.max_abs)
        total.max_rel = max(total.max_rel, drift.max_rel)
        total.floats_changed += drift.floats_changed
        total.non_float += drift.non_float
    for line in total.non_float[:20]:
        print(f"  non-float difference at {line}")
    print(f"total: max_abs {total.max_abs:.3g}  max_rel {total.max_rel:.3g}  "
          f"floats_changed {total.floats_changed}  "
          f"non_float {len(total.non_float)}")

    over = args.max_abs is not None and total.max_abs > args.max_abs
    return 1 if total.non_float or over else 0


if __name__ == "__main__":
    sys.exit(main())
