"""The library's argument contract (``exactmetric.errors``), pinned by one
derandomized sweep.

``TABLE`` holds one valid call per public callable of the package.  The
sweep calls each one again with each plain argument swapped, one at a time,
for each of ``PROBES``; every call must return normally or raise an
``ExactMetricError``.  A plain argument is one that is not a single library
record: a label, a label set, an index, a size, a value mapping, a flag, or
a container of records.  A non-record passed where one record is documented
is a caller error, as a ``str`` passed to ``math.gcd`` is, so record
arguments keep their valid value.  ``REFUSED_CALLS`` adds calls the probes do
not reach, each of which must be refused.

The sweep catches escapes and hangs, not wrong answers: each call runs
under a ``signal.setitimer`` bound, so a hang fails too.  Wrong answers have
their own named tests.
"""

import signal
from fractions import Fraction as F

import pytest

import exactmetric
from exactmetric import (
    FiniteGroup,
    FiniteMetricSpace,
    GroupAction,
    InvariantPseudometric,
    Isometry,
    KatetovFunction,
    LipschitzWitness,
    Molecule,
    PointedSpace,
    StarFragment,
    TowerPolicy,
    hat_extension,
    is_katetov,
    moving_gap,
    translation_gap,
)
from exactmetric.errors import DomainError, ExactMetricError, StructuralError
from exactmetric.proptest import run_suite
from exactmetric.randgen import cycle_space, rotation_action

from conftest import Overrun, within_bound

BOUND_S = 3.0

PROBES = (
    5, 1.5, -1, "zz", None, [], ["zz"], [5], {"zz": 1}, {0: 1}, (),
    object(), F(1, 2), True,
)

RECORDS = (
    FiniteGroup, FiniteMetricSpace, GroupAction, InvariantPseudometric,
    Isometry, KatetovFunction, LipschitzWitness, Molecule, PointedSpace,
    TowerPolicy,
)

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs signal.setitimer"
)


def build_table():
    """``{name: (callable, args)}``: one valid call per public callable."""
    ex = exactmetric
    c4 = cycle_space(4)
    c4p = PointedSpace(c4, 0)
    rot = rotation_action(4)
    z4 = ex.cyclic_group(4)
    g = rot.images[1]
    m = Molecule.make(c4p, {"1": F(1), "2": F(-1)})
    v = Molecule.make(c4p, {"1": F(1)})
    w = Molecule.zero(c4p)
    f = KatetovFunction(c4, ("0",), {"0": F(1)})
    f2 = KatetovFunction(c4, ("2",), {"2": F(1)})
    hat = hat_extension(f)
    pm = InvariantPseudometric(z4, (F(0), F(1), F(2), F(1)))
    zeros = dict.fromkeys(c4.points, F(0))
    return {
        # actions
        "Isometry": (Isometry, (c4, (1, 2, 3, 0))),
        "GroupAction": (GroupAction, (rot.group, c4, rot.images)),
        "action_from_closure": (ex.action_from_closure, (c4, [g])),
        "enumerate_isometries": (ex.enumerate_isometries, (c4,)),
        "moving_gap": (moving_gap, (rot, ["0"])),
        "orbit": (ex.orbit, (rot, "0")),
        "orbit_diameter": (ex.orbit_diameter, (rot, "0")),
        "translation_gap": (translation_gap, (rot, [0], 1)),
        # freespace
        "LipschitzWitness": (LipschitzWitness, (c4p, zeros)),
        "Molecule": (Molecule, (c4p, {"1": F(1)})),
        "Molecule.make": (Molecule.make, (c4p, {"1": F(1)})),
        "aell_norm": (ex.aell_norm, (m,)),
        "aell_norm_dual": (ex.aell_norm_dual, (m,)),
        "aell_norm_primal": (ex.aell_norm_primal, (m,)),
        "affine_extend": (ex.affine_extend, (g, m)),
        "extension_certificate": (
            ex.extension_certificate, (rot, c4p, ["1"], v, w, None),
        ),
        "fixed_point": (ex.fixed_point, (rot, m)),
        "moving_lower_bound": (ex.moving_lower_bound, (c4p, ["1"], g, v, w)),
        "norm_distance": (ex.norm_distance, (m, v)),
        "rebase": (ex.rebase, (m, "1")),
        # groups
        "FiniteGroup": (FiniteGroup, (z4.elements, z4.table)),
        "cyclic_group": (ex.cyclic_group, (4,)),
        "dihedral_group": (ex.dihedral_group, (3,)),
        "direct_product": (ex.direct_product, (z4, z4)),
        "symmetric_group": (ex.symmetric_group, (3,)),
        # katetov
        "KatetovFunction": (KatetovFunction, (c4, ("0",), {"0": F(1)})),
        "StarFragment": (StarFragment, ((), c4)),
        "TowerPolicy": (TowerPolicy, (1, F(1), F(2), 64)),
        "act_on_katetov": (ex.act_on_katetov, (g, f)),
        "hat_extension": (hat_extension, (f,)),
        "is_katetov": (is_katetov, (c4, {"0": F(1)}, ("0",))),
        "point_function": (ex.point_function, (c4, "0")),
        "prop_k_gap": (ex.prop_k_gap, (f, f2)),
        "star_fragment": (ex.star_fragment, (c4, [f])),
        "sup_distance": (ex.sup_distance, (hat, hat)),
        "tower": (ex.tower, (c4, 1, TowerPolicy())),
        # metric
        "FiniteMetricSpace": (FiniteMetricSpace, (c4.points, c4.dist, False)),
        "FiniteMetricSpace.from_scaled": (
            FiniteMetricSpace.from_scaled, (c4.points, 1, c4.scaled[1], False),
        ),
        "PointedSpace": (PointedSpace, (c4, 0)),
        "set_distance": (ex.set_distance, (c4, ["0"], ["2"])),
        "validate": (ex.validate, (c4,)),
        # quotients
        "InvariantPseudometric": (InvariantPseudometric, (z4, pm.delta)),
        "kernel_subgroup": (ex.kernel_subgroup, (pm,)),
        "min_fvf_cover": (ex.min_fvf_cover, (z4, [0], 1000)),
        "moving_certificate": (ex.moving_certificate, (pm, F(1), [["1"]])),
        "orbit_isomorphism": (ex.orbit_isomorphism, (rot, "0")),
        "pullback_pseudometric": (ex.pullback_pseudometric, (rot, "0")),
        "quotient_space": (ex.quotient_space, (pm,)),
    }


TABLE = build_table()

# Calls the probes do not reach: each must be refused with a library error.
REFUSED_CALLS = {
    "KatetovFunction with a list of labels for values": (
        KatetovFunction, (cycle_space(2), ("0",), ["0"]),
    ),
    "is_katetov with a list of labels for values": (
        is_katetov, (cycle_space(2), ["0", "1"]),
    ),
    "Molecule.make with an int mapping": (
        Molecule.make, (PointedSpace(cycle_space(3), 0), 5),
    ),
    "Molecule.scale by a float": (
        Molecule.scale, (Molecule.point(PointedSpace(cycle_space(3), 0), "1"), 1.5),
    ),
    "Molecule.scale by a string": (
        Molecule.scale, (Molecule.point(PointedSpace(cycle_space(3), 0), "1"), "zz"),
    ),
    "moving_gap with an int set": (moving_gap, (rotation_action(4), 5)),
    "translation_gap past the order": (
        translation_gap, (rotation_action(4), [0], 9),
    ),
    "LipschitzWitness with a list of labels": (
        LipschitzWitness, (PointedSpace(cycle_space(3), 0), ["0", "1", "2"]),
    ),
    "run_suite with a list for the name": (run_suite, (["duality"], 1, 0)),
    "run_suite with a string trial count": (run_suite, ("duality", "zz", 0)),
    "run_suite with a fractional trial count": (run_suite, ("duality", 1.5, 0)),
    "run_suite with a list seed": (run_suite, ("duality", 1, [1])),
}


def outcome(fn, args):
    """``"ok"``, ``"refused"``, or the name of the Python error that escaped
    from ``fn(*args)`` within ``BOUND_S`` seconds."""
    try:
        within_bound(fn, *args, bound=BOUND_S)
    except ExactMetricError:
        return "refused"
    except Overrun:
        return "hang"
    except Exception as exc:  # an escape is what the sweep reports
        return type(exc).__name__
    return "ok"


def escapes(fn, args):
    """``(argument, probe, error)`` for each swapped call that lets a Python
    error escape."""
    found = []
    for k, arg in enumerate(args):
        if isinstance(arg, RECORDS):
            continue
        for probe in PROBES:
            swapped = args[:k] + (probe,) + args[k + 1:]
            result = outcome(fn, swapped)
            if result not in ("ok", "refused"):
                found.append((k, repr(probe), result))
    return found


def test_the_table_covers_every_public_callable():
    """A public callable of the package without a row would go unswept."""
    public = {
        name for name in dir(exactmetric)
        if not name.startswith("_") and callable(getattr(exactmetric, name))
        and not (isinstance(getattr(exactmetric, name), type)
                 and issubclass(getattr(exactmetric, name), Exception))
    }
    # Molecule.make is the Molecule constructor; a space is built also from
    # its int form
    assert public <= set(TABLE)
    assert set(TABLE) - public == {"Molecule.make", "FiniteMetricSpace.from_scaled"}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_call_answers(name):
    fn, args = TABLE[name]
    assert outcome(fn, args) == "ok"


@pytest.mark.parametrize("name", sorted(TABLE))
def test_plain_arguments_are_refused_not_escaped(name):
    fn, args = TABLE[name]
    assert escapes(fn, args) == []


# Rows that take no one-shot iterator: a ``StarFragment`` is a plain record
# that stores what it is given.
ITERATOR_EXEMPT = {"StarFragment"}


def iterator_swaps(args):
    """``args`` with each list or tuple argument swapped, one at a time, for
    a one-shot iterator over it."""
    for k, arg in enumerate(args):
        if isinstance(arg, (list, tuple)):
            yield args[:k] + (iter(arg),) + args[k + 1:]


@pytest.mark.parametrize("name", sorted(set(TABLE) - ITERATOR_EXEMPT))
def test_a_one_shot_iterator_gets_the_valid_answer(name):
    """A documented list or tuple is read once: an iterator over it gives
    the valid call's answer, not a silent other answer or a refusal."""
    fn, args = TABLE[name]
    want = fn(*args)
    for swapped in iterator_swaps(args):
        assert fn(*swapped) == want


def test_the_exempt_rows_take_no_iterator():
    """The exemption holds: a ``StarFragment`` keeps the iterator it is given."""
    fn, (attached, space) = TABLE["StarFragment"]
    attached = iter(attached)
    assert fn(attached, space).attached is attached


@pytest.mark.parametrize("name", sorted(REFUSED_CALLS))
def test_malformed_call_is_refused(name):
    fn, args = REFUSED_CALLS[name]
    assert outcome(fn, args) == "refused"


def test_translation_gap_refuses_indices_outside_the_range():
    """Python's negative indexing would read the last element's image, or
    the last point, and answer 1; an index past the end is refused too."""
    action = rotation_action(4)
    for idx, g in (([0], -1), ([-1], 1), ([0], 4), ([4], 1)):
        with pytest.raises(DomainError, match="element or point index out of range"):
            translation_gap(action, idx, g)
    assert translation_gap(action, [0], 1) == 1
