"""The time contract on large legal inputs: each case answers (exit 0), or
refuses with exit 1 and a library error, within a few seconds.

Inputs are generated here from a seed rather than stored as fixtures.  Each
case runs in this process under a ``signal.setitimer`` bound, and the timer
and the previous ``SIGALRM`` handler are restored afterwards.  A slow path
joins this list in the change that bounds it.
"""

import contextlib
import io
import json
import signal
import sys
from random import Random

import pytest

from exactmetric import Molecule, cli, jsonio, norm_distance, symmetric_group
from exactmetric.errors import ExactMetricError
from exactmetric.randgen import rand_fraction, rand_metric_space

from conftest import Overrun, within_bound

BOUND_S = 5.0

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs signal.setitimer"
)


def run_main(argv, text):
    """(exit code, JSON payload) of ``cli.main`` with ``text`` on stdin."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        sys.stdin = stdin
    return code, json.loads(out.getvalue())


def distance_request(text):
    """The benchmark's ``distance`` request: a pointed space and two
    molecules read from JSON, answered with ||v - w||, or refused with a
    library error as the CLI refuses."""
    doc = json.loads(text)
    try:
        pointed = jsonio.pointed_from_json(doc["space"])
        v, w = (
            Molecule.make(pointed, {x: jsonio.parse_rational(c) for x, c in doc[k].items()})
            for k in ("v", "w")
        )
        return 0, {"distance": str(norm_distance(v, w))}
    except ExactMetricError as exc:
        return 1, exc.as_json()


def full_support(rng, points):
    return {x: str(rand_fraction(rng, 1, 5) * rng.choice([-1, 1])) for x in points}


def test_cli_validate_answers_on_200_points():
    space = rand_metric_space(Random(200), 200)
    text = json.dumps({"space": jsonio.space_to_json(space)})
    assert within_bound(run_main, ["validate"], text, bound=BOUND_S) == (0, {"ok": True})


def test_distance_answers_on_120_points():
    rng = Random(120)
    space = rand_metric_space(rng, 120)
    text = json.dumps({
        "space": {**jsonio.space_to_json(space), "basepoint": "x0"},
        "v": full_support(rng, space.points[1:]),
        "w": full_support(rng, space.points[1:]),
    })
    code, payload = within_bound(distance_request, text, bound=BOUND_S)
    assert code == 0, payload
    assert jsonio.parse_rational(payload["distance"]) > 0


def s6_table_doc():
    """S6's 720 x 720 table as a group record (about 2.5 MB of JSON)."""
    return jsonio.group_to_json(symmetric_group(6))


def test_group_from_json_answers_on_s6():
    doc = s6_table_doc()
    group = within_bound(jsonio.group_from_json, doc, bound=BOUND_S)
    assert group.order == 720 and group.identity == 0


def test_cli_fvf_on_s6_refuses_at_its_budget():
    doc = s6_table_doc()
    text = json.dumps({"group": doc, "V": doc["elements"][:2]})
    code, payload = within_bound(run_main, ["fvf"], text, bound=BOUND_S)
    assert (code, payload["error"]["kind"]) == (1, "BudgetExceededError")
    assert payload["error"]["message"].endswith(
        "exceeded its budget of 1000000 subsets at size 19 (1000001 visited)"
    )


def test_an_overrun_is_cut_off_and_the_timer_restored():
    """The bound itself: a loop that never ends is interrupted, and the
    handler and the timer are as they were."""
    before = signal.getsignal(signal.SIGALRM)

    def spin():
        while True:
            pass

    with pytest.raises(Overrun):
        within_bound(spin, bound=0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
