#!/usr/bin/env python3
"""Check that two checkouts write the same results.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

In each checkout, inside its own temporary directory, this runs the
seven CLI experiments at their default configs and then the
``scripts/run_experiments.py`` table, with ``PYTHONPATH=<checkout>/src``
and BLAS pinned to one thread.  The two checkouts run side by side.
CSV files are compared without their ``# timestamp:`` line, and every
other file (sidecars, configs) byte for byte.  Each file that differs or
exists on one side only is printed, and the exit status is 1 if there is
any such file, 0 otherwise.  A differing file is marked ``(metadata
only)`` when it matches without its metadata: a CSV without its ``#``
lines, a JSON file without its ``config`` and ``config_sha256`` keys
(the sidecars'), so a change of config alone, such as a removed
parameter, is told apart from a change of results.  A differing CSV
with the same header and row count, or a differing JSON file whose two
sides (without their metadata) have the same keys and list lengths, also
gets the largest absolute and relative difference over its numeric
fields or leaves, the relative one taken against the larger magnitude of
the pair.  The line count of
each checkout's ``src/`` Python files (as ``wc -l`` counts them) is
printed last, with their code-line count: the lines that hold a token
other than a comment, a docstring or whitespace.
"""

import ast
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor

EXPERIMENTS = ("gap-table", "spectrum-scan", "fidelity-sweep", "volterra", "grover-scaling",
               "qaoa-export", "step-size-report")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def produce(checkout: pathlib.Path, work: pathlib.Path) -> None:
    """Write every default-config output and the results table into ``work``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    for experiment in EXPERIMENTS:
        subprocess.run([sys.executable, "-m", "adiawalk.cli", experiment],
                       cwd=work, env=env, check=True)
    subprocess.run([sys.executable, str(checkout / "scripts" / "run_experiments.py")],
                   cwd=work, env=env, check=True)


def src_lines(checkout: pathlib.Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def code_lines(source: str) -> int:
    """Lines of Python ``source`` that hold a token other than a comment, a
    docstring (of the module, a class or a function) or whitespace."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in ignored or (tok.type == tokenize.STRING
                                 and any(a <= tok.start and tok.end <= b for a, b in spans)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_code_lines(checkout: pathlib.Path) -> int:
    return sum(code_lines(p.read_text()) for p in (checkout / "src").rglob("*.py"))


def comparable(path: pathlib.Path) -> bytes:
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    lines = data.splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.startswith(b"# timestamp:"))


def without_metadata(path: pathlib.Path):
    """The file's data with its config metadata removed; see the module docstring."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        return b"".join(ln for ln in data.splitlines(keepends=True) if not ln.startswith(b"#"))
    if path.suffix == ".json":
        payload = json.loads(data)
        if isinstance(payload, dict):
            payload.pop("config", None)
            payload.pop("config_sha256", None)
        return payload
    return data


def _json_leaves(a, b, pairs: list) -> bool:
    """Append the pairs of numeric leaves of two JSON values to ``pairs``;
    False if their dict keys or list lengths differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_leaves(a[k], b[k], pairs) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_json_leaves(x, y, pairs) for x, y in zip(a, b))
    if isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        return False
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        pairs.append((float(a), float(b)))
    return True


def numeric_pairs(first: pathlib.Path, second: pathlib.Path):
    """The pairs of numbers at one place in two CSVs with one header and
    row count, or in two JSON files of one structure; None for any other
    pair of files."""
    if first.suffix == ".json":
        pairs = []
        same = _json_leaves(without_metadata(first), without_metadata(second), pairs)
        return pairs if same else None
    if first.suffix != ".csv":
        return None
    tables = [[ln.split(",") for ln in p.read_text().splitlines() if not ln.startswith("#")]
              for p in (first, second)]
    if len(tables[0]) != len(tables[1]) or tables[0][:1] != tables[1][:1]:
        return None
    pairs = []
    for row_a, row_b in zip(tables[0][1:], tables[1][1:]):
        for a, b in zip(row_a, row_b):
            try:
                pairs.append((float(a), float(b)))
            except ValueError:
                continue
    return pairs


def numeric_difference(first: pathlib.Path, second: pathlib.Path) -> str:
    """The largest absolute and relative difference over ``numeric_pairs``,
    as a suffix for the report line; empty where there are no such pairs."""
    pairs = numeric_pairs(first, second)
    if pairs is None:
        return ""
    worst_abs = worst_rel = 0.0
    for x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y)
        rel = diff / max(abs(x), abs(y))
        if not math.isfinite(diff):  # a NaN or an infinity on one side only
            diff = rel = math.inf
        worst_abs, worst_rel = max(worst_abs, diff), max(worst_rel, rel)
    return f" (largest difference {worst_abs:.3g} absolute, {worst_rel:.3g} relative)"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    checkouts = [pathlib.Path(a).resolve() for a in args]
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        works = [pathlib.Path(first), pathlib.Path(second)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(produce, checkouts, works))
        names = [{p.relative_to(w) for p in w.rglob("*") if p.is_file()} for w in works]
        differing = 0
        for name in sorted(names[0] | names[1]):
            if name not in names[0] or name not in names[1]:
                print(f"only in one checkout: {name}")
            elif comparable(works[0] / name) != comparable(works[1] / name):
                same = without_metadata(works[0] / name) == without_metadata(works[1] / name)
                detail = " (metadata only)" if same else ""
                size = "" if same else numeric_difference(works[0] / name, works[1] / name)
                print(f"differs{detail}: {name}{size}")
            else:
                continue
            differing += 1
        print(f"{len(names[0] | names[1])} files compared, {differing} differing")
    for label, checkout in zip(("parent", "change"), checkouts):
        print(f"{label} src/ lines: {src_lines(checkout)}, code lines: "
              f"{src_code_lines(checkout)} ({checkout})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
