#!/usr/bin/env python3
"""Compare two verdict trees written by regenerate.sh.

    python3 references/compare.py references/verdicts DIR

Every file must be in both trees. Three kinds of file hold numbers whose last
bit may move with numpy's SIMD dispatch level, and their numbers are compared
within 1e-14 of the larger of their own magnitude and, in a CSV, their
column's largest, a nan equal to a nan; a CSV value at round-off of its
column's largest goes unchecked:

- <config>/functionals.csv, a run's t, F1 and F2 columns;
- verify/inequalities.csv, whose pass column is compared exactly;
- verify/report.txt, verify's PASS/FAIL lines, whose PASS or FAIL word and case
  name are compared exactly and whose margin within the tolerance.

A CSV number is taken relative to the larger of its own magnitude and its
column's largest finite one: a decaying F1 or F2 ends in values at round-off
of its sums, which move their leading digits where the column's start moves
its last bit.

Their other text, headers and row counts included, must match exactly. Every
other file must match byte for byte. Prints each difference and exits 1 if
there is any. Needs only the standard library.
"""
import math
import os
import sys

RTOL = 1e-14
TOLERANCED = ("functionals.csv", os.path.join("verify", "inequalities.csv"),
              os.path.join("verify", "report.txt"))
EXACT_COLUMNS = ("pass",)


def number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def close(a: str, b: str, scale: float = 0.0) -> bool:
    """Equal text, or two floats within RTOL of the largest of them and scale,
    or two nans."""
    if a == b:
        return True
    x, y = number(a), number(b)
    if x is None or y is None:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= RTOL * max(abs(x), abs(y), scale)


def column_scale(cells) -> float:
    """The largest finite magnitude among a column's numbers, 0 without any."""
    values = [abs(x) for x in map(number, cells) if x is not None and math.isfinite(x)]
    return max(values, default=0.0)


def compare_csv(ref_lines, new_lines):
    """Differences of two CSV files: the header exactly, then cell by cell."""
    if ref_lines[:1] != new_lines[:1]:
        return ["headers differ"]
    header = ref_lines[0].split(",")
    rows_a = [line.split(",") for line in ref_lines[1:] if line]
    rows_b = [line.split(",") for line in new_lines[1:] if line]
    if any(len(a) != len(header) for a in rows_a + rows_b):
        return ["a row's cells do not match the header"]
    scales = [column_scale(column) for column in zip(*rows_a)]
    problems = []
    for row, (a, b) in enumerate(zip(rows_a, rows_b), start=2):
        for name, scale, x, y in zip(header, scales, a, b):
            same = x == y if name in EXACT_COLUMNS else close(x, y, scale)
            if not same:
                problems.append(f"line {row}, column {name}: {x} against {y}")
    return problems


def compare_report(ref_lines, new_lines):
    """Differences of two verify reports: words exactly, margin=<float> within RTOL."""
    problems = []
    for row, (a, b) in enumerate(zip(ref_lines, new_lines), start=1):
        words_a, words_b = a.split(" "), b.split(" ")
        same = len(words_a) == len(words_b) and all(
            close(x[len("margin="):], y[len("margin="):])
            if x.startswith("margin=") and y.startswith("margin=") else x == y
            for x, y in zip(words_a, words_b))
        if not same:
            problems.append(f"line {row}: {a!r} against {b!r}")
    return problems


def compare_file(rel: str, ref_path: str, new_path: str):
    with open(ref_path, "rb") as fh:
        ref = fh.read()
    with open(new_path, "rb") as fh:
        new = fh.read()
    if ref == new:
        return []
    if not any(rel == name or rel.endswith(os.sep + name) for name in TOLERANCED):
        return ["bytes differ"]
    ref_lines, new_lines = ref.decode().split("\n"), new.decode().split("\n")
    if len(ref_lines) != len(new_lines):
        return [f"{len(ref_lines)} lines against {len(new_lines)}"]
    if rel.endswith(".csv"):
        return compare_csv(ref_lines, new_lines)
    return compare_report(ref_lines, new_lines)


def files(root: str) -> set:
    found = set()
    for folder, _dirs, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(folder, name), root))
    return found


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: compare.py REFERENCE_DIR NEW_DIR", file=sys.stderr)
        return 2
    ref_root, new_root = argv
    ref_files, new_files = files(ref_root), files(new_root)
    failures = 0
    for rel in sorted(ref_files ^ new_files):
        where = ref_root if rel in ref_files else new_root
        print(f"{rel}: only in {where}")
        failures += 1
    for rel in sorted(ref_files & new_files):
        for problem in compare_file(rel, os.path.join(ref_root, rel), os.path.join(new_root, rel)):
            print(f"{rel}: {problem}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
