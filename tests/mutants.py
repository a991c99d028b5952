"""Statement-deletion mutants of the seec package: which statements can
become ``pass`` with every test still passing?

    python tests/mutants.py [--module NAME ...] [--jobs N] [--work DIR]

Each statement of src/seec/*.py in turn (docstrings and bare ``pass``
excepted) is replaced by ``pass`` in a copy of src/ and tests/.  A mutant
first runs the test files that name its module, plus the end-to-end
files, with ``-x``; one that survives them runs the whole suite with
``-x``.  A mutant is killed when pytest fails or runs past the timeout.
Every survivor is printed as ``module:line: statement``, and the tally
goes to stderr.  Its name keeps it out of pytest's collection.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = ("test_acceptance.py", "test_golden.py")
TIMEOUT_S = 600


def statements(source):
    """(start, end, first line's text, first line's number) of each
    statement to delete, start and end as offsets into source: from its
    first decorator to its last character."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(line, col):
        # ast columns count UTF-8 bytes
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Pass):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        first = min([node, *getattr(node, "decorator_list", [])], key=lambda n: n.lineno)
        start = offset(first.lineno, first.col_offset)
        if first is not node:
            start = source.rindex("@", 0, start)
        end = offset(node.end_lineno, node.end_col_offset)
        spans.append((start, end, lines[first.lineno - 1].strip(), first.lineno))
    return sorted(spans)


def run_pytest(work, files):
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *files]
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def mutate(work, module, source, span, first_files):
    path = os.path.join(work, "src", "seec", module + ".py")
    start, end, _, _ = span
    with open(path, "w") as fh:
        fh.write(source[:start] + "pass" + source[end:])
    return run_pytest(work, first_files) and run_pytest(work, ["tests"])


def names_module(test_file, module):
    with open(os.path.join(ROOT, "tests", test_file)) as fh:
        return module.strip("_") in fh.read()


def survey(modules, jobs, base):
    """The surviving (module, span) pairs, and the number of mutants."""
    works = []
    for j in range(jobs):
        work = os.path.join(base, str(j))
        for tree in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, tree), os.path.join(work, tree),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), work)
        works.append(work)
    tests = sorted(name for name in os.listdir(os.path.join(ROOT, "tests"))
                   if name.startswith("test_") and name.endswith(".py"))
    survivors, total = [], 0
    for module in modules:
        with open(os.path.join(ROOT, "src", "seec", module + ".py")) as fh:
            source = fh.read()
        first = [os.path.join("tests", name) for name in tests
                 if name in END_TO_END or names_module(name, module)]
        spans = statements(source)
        total += len(spans)

        def run(j):
            # copy j takes every jobs-th mutant, then restores the module
            path = os.path.join(works[j], "src", "seec", module + ".py")
            found = [s for s in spans[j::jobs] if mutate(works[j], module, source, s, first)]
            with open(path, "w") as fh:
                fh.write(source)
            return found

        with ThreadPoolExecutor(jobs) as pool:
            for found in pool.map(run, range(jobs)):
                survivors += [(module, s) for s in found]
    return survivors, total


def main(argv=None):
    parser = argparse.ArgumentParser(description="statement-deletion mutants of src/seec")
    parser.add_argument("--module", action="append", help="a module of src/seec (default: all)")
    parser.add_argument("--jobs", type=int, default=1, help="copies run side by side")
    parser.add_argument("--work", help="directory for the copies (default: a temp dir)")
    args = parser.parse_args(argv)
    modules = args.module or sorted(
        name[:-3] for name in os.listdir(os.path.join(ROOT, "src", "seec")) if name.endswith(".py")
    )
    base = tempfile.mkdtemp(prefix="seec-mutants-", dir=args.work)
    try:
        survivors, total = survey(modules, args.jobs, base)
    finally:
        shutil.rmtree(base)
    for module, (_, _, text, line) in sorted(survivors, key=lambda s: (s[0], s[1][3])):
        print(f"{module}:{line}: {text}")
    print(f"{total} mutants, {total - len(survivors)} killed, {len(survivors)} survived",
          file=sys.stderr)


if __name__ == "__main__":
    main()
