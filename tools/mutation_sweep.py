"""Mutation sweep: which lines of a library module do the tests pin?

    python tools/mutation_sweep.py freespace [--scratch DIR]

The script copies ``src``, ``tests``, ``bench`` and the three root files
the tests read to a fresh directory (under ``--scratch``, made if missing, else the system's
temporary directory) and reads the working tree only.  In the copy it
applies one mutation at a time to ``src/exactmetric/<module>.py`` and runs
``tests/test_<module>.py`` and ``tests/test_acceptance.py`` with ``-x``; a
module without its own test file is not swept (exit 2).  A mutant that
passes them runs again against the whole test suite, which the unmutated
copy must pass first, so a mutant that another file's test kills is not
reported.

A mutation swaps ``<`` with ``<=``, ``>`` with ``>=``, ``==`` with ``!=``,
``+`` with ``-`` (also in ``+=`` and ``-=``), or ``min`` with ``max``, or
drops a ``raise`` by turning the keyword into ``pass;`` (its expression is
then evaluated and discarded; ``raise ... from ...`` is left alone, as it
would not parse).  It edits the source text at the operator or keyword, so
every other byte of the module stays as it is.  A mutant that the whole
suite passes is a survivor.  It is either a missing test, code that does
nothing, or an equivalent mutant.  An equivalent mutant belongs in
``ALLOWLIST`` with the reason why it changes nothing.  A mutant that runs
past the time bound counts as killed.

The script prints each survivor and a summary, and exits with 1 if a
survivor is not on the allowlist.  The script is not part of the test
suite; a module's full sweep takes about 3-9 s per site, plus a run of the
whole suite (about a minute) for the unmutated copy and for each mutant
that the module's tests miss.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "BENCHMARK.json", "README.md")
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
}
CALLS = {"min": "max", "max": "min"}
# the same byte length, so that the mutant's lines keep their offsets
DROP_RAISE = ("raise", "pass;")
# characters that may stand between an operand and its operator
GAP = b" \t\r\n\\()"

# Survivors that change nothing: "module:scope: line [old -> new]" -> reason.
ALLOWLIST = {
    "simplex.py:_solve:"
    " if pivots <= dantzig_budget and cost.count(best) == 1: [<= -> <]":
        "at pivots == dantzig_budget the general branch still takes Dantzig's"
        " rule, and with one largest reduced cost it enters that same column",
    "simplex.py:_solve:"
    " rhs[i] == rhs[leave] and basis[i] < basis[leave] [< -> <=]":
        "the basis holds each variable once, so two rows never tie on it",
    "metric.py:_scan: if di.count(0) > 1: [> -> >=]":
        "every row holds its diagonal zero, so the loop then also scans rows"
        " with no second zero and finds nothing there: the first row with a"
        " second zero right of the diagonal is reached either way",
    "freespace.py:aell_norm_primal:"
    " start = [0 if v > 0 else far for v in excess] [> -> >=]":
        "a point with no excess is neither a source nor a sink, and no"
        " half-round, end pick or path walk reads the label of such a point",
    "freespace.py:aell_norm_primal: if hops > limit: [> -> >=]":
        "a path holds each source and sink at most once, so the walk reaches"
        " that length only on a predecessor cycle (the tampered test), where"
        " either bound raises the same error, one step apart",
    "freespace.py:_network_simplex: up = [b >= 0 for b in supply] [>= -> >]":
        "every supply but the root's is a non-zero support coefficient, and"
        " the root's entry is never read as an arc",
    "freespace.py:_network_simplex:"
    " g = [row[root] if b >= 0 else -cost[root][x] [>= -> >]":
        "every supply but the root's is a non-zero support coefficient, and"
        " the root's potential is set to 0 on the next line",
    "freespace.py:_network_simplex: if depth[x] >= depth[y]: [>= -> >]":
        "at equal depths either node may step up first: the two tree paths"
        " to the apex, so both sides of the cycle, are the same",
    "freespace.py:_largest_witness: if reached < label[t]: [< -> <=]":
        "a tie leaves the label as it is and only marks it as set by a plan"
        " arc, so t's arcs are relaxed once more; by the triangle inequality"
        " that lowers no label",
    "freespace.py:moving_lower_bound:"
    " if not set(mol.support) <= set(phi_plus): [<= -> <]":
        "the support never holds the basepoint and phi_plus always does,"
        " so the subset is always proper",
    "randgen.py:rand_metric_space: if pseudo and rng.random() < 0.2: [< -> <=]":
        "random() returns a multiple of 2**-53, and the float 0.2 is an odd"
        " multiple of 2**-54, so no draw equals it",
    "randgen.py:rand_katetov: if rng.random() < 0.5: [< -> <=]":
        "the two differ only on a draw of exactly 0.5, one in 2**53, and"
        " either branch still returns a Katetov function",
    "randgen.py:rotation_action:"
    " gen = Isometry(space, tuple((i + 1) % n for i in range(n))) [+ -> -]":
        "the rotation i -> i - 1 generates the same cyclic group, and"
        " action_from_closure orders its elements by permutation, so the"
        " action is the same record",
}


class Site:
    """One mutation: bytes ``start:end`` of the module read ``old``, and the
    mutant reads ``new`` there."""

    def __init__(self, module, scope, source, start, end, old, new, line):
        self.start, self.end, self.old, self.new = start, end, old, new
        self.line = line
        text = source.splitlines()[line - 1].decode().strip()
        self.key = f"{module}:{scope}: {text} [{old} -> {new}]"


def offsets(source: bytes) -> list[int]:
    """The byte offset of the start of each line (1-based line numbers)."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def sites(module: str, source: bytes) -> list[Site]:
    """Every mutation site of the module, in source order."""
    starts = offsets(source)
    found = []

    def operator(scope, before, after, old, new):
        # the operator is the only token between the two operands
        lo = starts[before.end_lineno] + before.end_col_offset
        hi = starts[after.lineno] + after.col_offset
        gap = source[lo:hi]
        if gap.strip(GAP) == old.encode():
            at = lo + len(gap) - len(gap.lstrip(GAP))
            found.append(Site(module, scope, source, at, at + len(old), old, new,
                              before.end_lineno))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                for k, op in enumerate(child.ops):
                    if type(op) in SWAPS:
                        operator(inner, operands[k], operands[k + 1], *SWAPS[type(op)])
            elif isinstance(child, ast.BinOp) and type(child.op) in SWAPS:
                operator(inner, child.left, child.right, *SWAPS[type(child.op)])
            elif isinstance(child, ast.AugAssign) and type(child.op) in SWAPS:
                old, new = SWAPS[type(child.op)]
                operator(inner, child.target, child.value, old + "=", new + "=")
            elif isinstance(child, ast.Raise) and child.cause is None:
                old, new = DROP_RAISE
                at = starts[child.lineno] + child.col_offset
                found.append(Site(module, inner, source, at, at + len(old), old, new,
                                  child.lineno))
            elif isinstance(child, ast.Name) and child.id in CALLS:
                at = starts[child.lineno] + child.col_offset
                found.append(Site(module, inner, source, at, at + len(child.id),
                                  child.id, CALLS[child.id], child.lineno))
            visit(child, inner)

    visit(ast.parse(source), "")
    found.sort(key=lambda s: s.start)
    seen = {}
    for site in found:  # a repeated key gets its occurrence number
        seen[site.key] = seen.get(site.key, 0) + 1
        if seen[site.key] > 1:
            site.key += f" #{seen[site.key]}"
    return found


def run_tests(copy: Path, tests: list[str], bound: float | None):
    """``(passed, seconds)`` of one pytest run in the copy; a run past
    ``bound`` seconds is stopped and counts as failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-o", "addopts=", *tests]
    begun = time.perf_counter()
    proc = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=bound)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        code = None
    return code == 0, time.perf_counter() - begun


def sweep(module: str, scratch: str | None) -> int:
    path = Path("src") / "exactmetric" / f"{module}.py"
    source = (ROOT / path).read_bytes()
    todo = sites(path.name, source)
    tests = [f"tests/test_{module}.py", "tests/test_acceptance.py"]
    if not (ROOT / tests[0]).is_file():
        print(f"{tests[0]} does not exist; nothing swept")
        return 2
    if scratch:
        Path(scratch).mkdir(parents=True, exist_ok=True)
    copy = Path(tempfile.mkdtemp(prefix="mutation-", dir=scratch))
    try:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(src, copy / name)
        passed, seconds = run_tests(copy, tests, None)
        whole, whole_seconds = run_tests(copy, ["tests"], None)
        if not (passed and whole):
            failing = "the whole suite" if passed else " and ".join(tests)
            print(f"the unmutated copy fails {failing}; nothing swept")
            return 2
        bound = max(30.0, 5 * seconds)
        whole_bound = max(bound, 5 * whole_seconds)
        target = copy / path
        killed = timed_out = by_suite = 0
        survivors = []
        for site in todo:
            target.write_bytes(source[:site.start] + site.new.encode()
                               + source[site.end:])
            passed, seconds = run_tests(copy, tests, bound)
            timed_out += seconds >= bound
            if passed:  # the module's tests miss it: does another file's?
                passed, _ = run_tests(copy, ["tests"], whole_bound)
                by_suite += not passed
            if passed:
                survivors.append(site)
                reason = ALLOWLIST.get(site.key, "NOT ON THE ALLOWLIST")
                print(f"survived  {path}:{site.line}  {site.key}\n          {reason}",
                      flush=True)
            else:
                killed += 1
        target.write_bytes(source)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    new = [s for s in survivors if s.key not in ALLOWLIST]
    print(f"{path}: {len(todo)} mutants, {killed} killed ({by_suite} only by the "
          f"whole suite, {timed_out} past the {bound:.0f} s bound), "
          f"{len(survivors)} survived, {len(new)} not allowlisted")
    return 1 if new else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/exactmetric, e.g. freespace")
    parser.add_argument("--scratch",
                        help="directory for the copy, made if missing (default: temp)")
    args = parser.parse_args(argv)
    return sweep(args.module, args.scratch)


if __name__ == "__main__":
    sys.exit(main())
