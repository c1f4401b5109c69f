"""Leftovers in the library source: imports a module never uses, private
module-level functions that nothing in ``src/`` calls, public functions,
classes, methods and properties that no caller reads, a second copy of the
axiom scans, spaces built around the one constructor from the int form,
an error message raised from two places, a computation on the
``Fraction`` matrix outside the two checks parked on it, a molecule solver
that reads ``Fraction`` coefficients or point labels, a molecule loader
that reads its coefficients to ``Fraction``s, a ``Fraction`` in the
simplex or read off its answer, command-line
I/O outside the two functions that do it, a procedure written in the
command line instead of the library, an argument error mapped by hand
instead of by ``errors.refusing``, and a randomized trial that fails
outside ``proptest.run_suite``."""

import ast
import builtins
import json
from pathlib import Path

from exactmetric.errors import refusing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "exactmetric"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def scoped(tree):
    """``(scope, node)`` for every node under ``tree`` outside class and
    function definitions themselves; ``scope`` names the enclosing classes
    and functions, such as ``"Isometry.__post_init__"``, or is ``""``."""
    scopes = [("", tree)]
    while scopes:
        name, node = scopes.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                scopes.append((f"{name}{child.name}.", child))
            else:
                yield name.rstrip("."), child
                scopes.append((name, child))


def referenced_names(tree):
    """Every name a module reads: bare names, attribute names, and the names
    inside string annotations such as ``"Isometry"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def imported_names(tree):
    """``(bound name, line)`` of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = referenced_names(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert unused == []


def test_every_private_function_is_referenced():
    trees = {path: parse(path) for path in sorted(SRC.rglob("*.py"))}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


def string_names(tree):
    """The parts of dotted-name string constants, such as the
    ``"KatetovFunction.__post_init__"`` a benchmark span patches by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def test_every_public_name_has_a_caller():
    """A public module-level function or class is read by another top-level
    statement of the library, by the benchmark, or by the acceptance tests;
    the ``__init__`` re-export does not count.  A public method or property
    of a library class is read as an attribute by library code outside its
    own body, by the benchmark, or by the acceptance tests."""
    trees = {
        path: parse(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    statements = [
        (path, node, referenced_names(node))
        for path, tree in trees.items()
        for node in tree.body
    ]
    outside = referenced_names(parse(ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = parse(path)
        outside |= referenced_names(tree) | set(string_names(tree))
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(
            node.name in names
            for _, other, names in statements
            if other is not node
        )
    ]
    reads = [
        (path, node)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    unreferenced += [
        f"{path.name}:{member.lineno} {cls.name}.{member.name}"
        for path, cls, _ in statements
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in outside
        and not any(
            read.attr == member.name
            and not (where is path
                     and member.lineno <= read.lineno <= member.end_lineno)
            for where, read in reads
        )
    ]
    assert unreferenced == []


def test_axiom_violations_are_reported_only_by_metric():
    """``metric.validate`` holds the one copy of the axiom scans; a module
    that builds a failing ``ValidationReport`` itself has grown another."""
    reporters = [
        path.name
        for path in sorted(SRC.rglob("*.py"))
        if "ValidationReport(False" in path.read_text(encoding="utf-8")
    ]
    assert reporters == ["metric.py"]


def test_spaces_are_built_only_through_from_scaled():
    """Outside ``metric``, the library builds a space from its int matrix
    with ``FiniteMetricSpace.from_scaled``, which stores that matrix as it
    is; a direct ``FiniteMetricSpace(...)`` call takes ``Fraction``s, so it
    would turn the ints into ``Fraction``s only to scale them back."""
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "metric.py"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and "FiniteMetricSpace" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    ]
    assert callers == []


def message_of(node):
    """The message of a raised error, ``Error("…")``, or of a
    ``refusing(Error, "…")`` block, which raises it; else ``None``.  An
    f-string message reads as its template: its constant parts, with ``{}``
    for each field."""
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
        args = node.exc.args[:1]
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "refusing":
        args = node.args[1:2]
    else:
        return None
    if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
        return args[0].value
    if args and isinstance(args[0], ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in args[0].values)
    return None


def test_each_error_message_is_raised_once():
    """A message passed to a raised error or to ``errors.refusing``, a plain
    string or an f-string's template, names one rule, and one place in
    ``src/`` checks that rule; a second ``raise`` or ``refusing`` with the
    same words is a second copy of the check.  One ``refusing`` shared by
    two blocks is one place."""
    places = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(parse(path)):
            text = message_of(node)
            if text is not None:
                places.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    repeated = {message: where for message, where in places.items() if len(where) > 1}
    assert repeated == {}


# The two checks that still compare ``Fraction`` rows on purpose: an int
# check speeds up the extension and quotient passes, and the benchmark keeps
# every pass's texts in memory, so its peak RSS would grow past its bound.
PARKED_DIST_READERS = {"actions.py:Isometry.__post_init__", "katetov.py:_checked"}


def test_fraction_matrix_is_read_only_by_the_parked_checks():
    """Outside ``metric``, the layers compute on ``space.scaled`` and make a
    ``Fraction`` only for a value they return; an attribute read of
    ``.dist`` is a computation on the ``Fraction`` matrix."""
    readers = {
        f"{path.name}:{scope}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "metric.py"
        for scope, node in scoped(parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "dist"
    }
    assert readers == PARKED_DIST_READERS


# The free-space procedures that take molecules and return molecules or norms.
MOLECULE_SOLVERS = {"aell_norm_dual", "aell_norm_primal", "affine_extend", "rebase"}


def test_molecules_are_solved_on_their_ints():
    """A molecule stores int coefficients over one ``unit``, by point index,
    and the solvers read them as stored: only the public ``LipschitzWitness``
    constructor scales ``Fraction``s with ``metric.scale``, and no solver
    reads the ``Fraction`` coefficients, looks up a point's label or index,
    or makes a ``Fraction`` before its answer (``rebase`` looks up only its
    new basepoint)."""
    tree = parse(PACKAGE / "freespace.py")
    scalers = {
        scope
        for scope, node in scoped(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "scale"
    }
    assert scalers == {"LipschitzWitness.__init__"}
    reads = [
        (node.name, ast.unparse(inner))
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in MOLECULE_SOLVERS
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute)
        and (inner.attr in ("coeffs", "support", "apply_label", "basepoint_label")
             or ast.unparse(inner).endswith("space.index"))
    ]
    assert reads == [("rebase", "space.index")]
    makers = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in MOLECULE_SOLVERS
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "Fraction"
    }
    assert makers == {"aell_norm_dual", "aell_norm_primal"}


def test_molecules_are_loaded_on_their_ints():
    """``molecule_from_json`` reads each coefficient to an int pair and
    stores it through the molecule's int entry: it calls neither
    ``rationals`` nor ``parse_rational``, which make a ``Fraction``."""
    (loader,) = [
        node for node in parse(PACKAGE / "jsonio.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "molecule_from_json"
    ]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(loader)
        if isinstance(node, ast.Call)
    }
    assert "_ratio" in called
    assert not called & {"rationals", "parse_rational", "Fraction", "Molecule"}


def test_the_simplex_takes_and_returns_ints():
    """The simplex reads int LP data and returns an int optimum and vertex:
    it imports neither ``fractions`` nor ``metric``'s ``scale``, and the
    dual norm route reads no ``.numerator`` off its answer."""
    tree = parse(PACKAGE / "simplex.py")
    modules = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not modules & {"fractions", "metric"}
    assert "Fraction" not in referenced_names(tree)
    dual = next(
        node for node in parse(PACKAGE / "freespace.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "aell_norm_dual"
    )
    assert "numerator" not in referenced_names(dual)


# The handlers that still map a Python error by hand: the two label lookups,
# which cost nothing and run once per label on every workload, the rational
# parser, and the command line's reading of its input (``_load_input``, and
# ``main``'s error object for input that cannot be read or decoded).
MAPPED_BY_HAND = {
    "cli.py:_load_input",
    "cli.py:main",
    "groups.py:FiniteGroup.index",
    "jsonio.py:_ratio",
    "metric.py:FiniteMetricSpace.index",
}


def caught(handler):
    """The exception classes an ``except`` clause names, looked up in the
    builtins and in ``json`` (``None`` for a library error); a bare
    ``except:`` catches ``BaseException``."""
    if handler.type is None:
        return [BaseException]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [
        getattr(builtins, node.id, None) if isinstance(node, ast.Name)
        else getattr(json, node.attr, None)
        for node in nodes
    ]


def test_argument_errors_are_mapped_only_by_refusing():
    """An ``except`` clause that catches one of ``refusing.MALFORMED``, a
    subclass of one or a base of one maps an argument error by hand: a second
    copy of the argument contract that ``errors.refusing`` writes once."""
    mappers = {
        f"{path.name}:{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, node in scoped(parse(path))
        if isinstance(node, ast.ExceptHandler)
        and any(
            isinstance(kind, type)
            and (issubclass(kind, malformed) or issubclass(malformed, kind))
            for kind in caught(node)
            for malformed in refusing.MALFORMED
        )
    }
    assert mappers == MAPPED_BY_HAND


def test_a_randomized_trial_fails_only_in_run_suite():
    """``proptest.run_suite`` turns a library error raised in a trial into
    that trial's failure; a suite that caught one itself would report it a
    second way, without its seed."""
    handlers = [
        scope
        for scope, node in scoped(parse(PACKAGE / "proptest.py"))
        if isinstance(node, ast.ExceptHandler)
    ]
    assert handlers == ["run_suite"]


def io_calls(node):
    """``"read"`` or ``"write"`` for each call under ``node`` that reads input
    (``json.load(s)``, ``sys.stdin``, ``.read``, ``open`` to read) or writes
    output (``json.dump(s)``, ``.write``, ``print``, ``open`` to write)."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        owner = getattr(getattr(func, "value", None), "id", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        if name == "open":
            mode = call.args[1].value if len(call.args) > 1 else "r"
            yield "write" if set(mode) & set("wax+") else "read"
        elif (owner, name) in {("json", "load"), ("json", "loads")}:
            yield "read"
        elif (owner, name) in {("json", "dump"), ("json", "dumps")}:
            yield "write"
        elif name == "read" or "stdin" in ast.dump(func):
            yield "read"
        elif name in ("write", "print"):
            yield "write"


def test_only_main_writes_and_only_load_input_reads_in_the_cli():
    """Each subcommand is a ``(load, call, emit)`` entry of ``cli.SUBCOMMANDS``
    and returns its payload; ``main`` writes it (or the error object), and
    ``_load_input`` reads the JSON input, so no entry does I/O of its own."""
    places = {"read": set(), "write": set()}
    for node in parse(PACKAGE / "cli.py").body:
        scope = getattr(node, "name", "<module>")
        for kind in io_calls(node):
            places[kind].add(scope)
    assert places == {"read": {"_load_input"}, "write": {"main"}}


# The command line's own payload builders: each calls library procedures
# and shapes their answers into one subcommand's JSON.
PAYLOAD_BUILDERS = {"_norm", "_moving_gap", "_fvf", "_run_suite"}


def test_each_subcommand_calls_a_library_procedure():
    """The call of every ``cli.SUBCOMMANDS`` entry is an attribute of a
    library module, such as ``freespace.extension_certificate``, or one of
    the payload builders, so a procedure cannot grow back into the CLI."""
    tree = parse(PACKAGE / "cli.py")
    modules = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
        for alias in node.names
    }
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SUBCOMMANDS"]
    ]
    local = []
    for key, entry in zip(table.keys, table.values):
        call = entry.elts[1]
        if isinstance(call, ast.Attribute):
            if getattr(call.value, "id", None) in modules:
                continue
        elif isinstance(call, ast.Name) and call.id in PAYLOAD_BUILDERS:
            continue
        local.append(f"{key.value}: {ast.unparse(call)}")
    assert local == []
