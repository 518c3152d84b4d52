"""Wrong arguments to the Lie and eigen entry points.

Each example draws a corpus p-group of order at most 243, one of the Lie and
eigen names, and one wrong argument for it: a composite p, a prime that does
not divide |G|, a root order n <= 0 or not an int, or an automorphism of
another group. Every call must return or raise ValueError or a class of
``coprimelab.errors``. Each call runs under ``signal.alarm`` on this process,
so a call that hangs fails the test instead of stalling the suite.
"""

import functools
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.errors import GroupTheoryError
from coprimelab.lie import (NpSeries, build_graded_lie, extend_and_eigendecompose, jlz_series,
                            split_field_degree)
from coprimelab.numutil import prime_power_base
from coprimelab.report import _eigen_fields, _lie_fields

ALARM_S = 5
INSTANCES = {spec["id"]: build_corpus_instance(spec) for spec in default_corpus()["instances"]}
P_GROUPS = sorted(name for name, (G, _) in INSTANCES.items()
                  if prime_power_base(G.order) and G.order <= 243)
FOREIGN = sorted(name for name, (_, phi) in INSTANCES.items() if phi is not None)
COMPOSITES = (4, 6, 9, 15, 25)
PRIMES = (2, 3, 5, 7, 11, 13)
BAD_ORDERS = (0, -1, -6, 2.0, "3", None, True)


@functools.cache
def _algebra(name):
    """The graded Lie algebra of a corpus p-group, built once per run."""
    G, _ = INSTANCES[name]
    return build_graded_lie(jlz_series(G, prime_power_base(G.order)))


class _Hung(Exception):
    """Raised by the alarm in a call that outlived ``ALARM_S``."""


def _raise_hung(signum, frame):
    raise _Hung


def _call(f, *args):
    previous = signal.signal(signal.SIGALRM, _raise_hung)
    signal.alarm(ALARM_S)
    try:
        f(*args)
    except (ValueError, GroupTheoryError):
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def wrong_calls(draw):
    """(function, arguments): a corpus p-group's Lie or eigen call, with one
    argument wrong."""
    name = draw(st.sampled_from(P_GROUPS))
    G, phi = INSTANCES[name]
    p = prime_power_base(G.order)
    wrong_p = draw(st.sampled_from(COMPOSITES + tuple(q for q in PRIMES if q != p)))
    other = draw(st.sampled_from([f for f in FOREIGN if f != name]))
    foreign_phi = INSTANCES[other][1]
    target = draw(st.sampled_from(["jlz_series", "build_graded_lie", "extend_and_eigendecompose",
                                   "split_field_degree", "_lie_fields", "_eigen_fields"]))
    if target == "jlz_series":
        return jlz_series, (G, wrong_p)
    if target == "_lie_fields":
        return _lie_fields, (G, wrong_p)
    if target == "build_graded_lie":
        return build_graded_lie, (NpSeries(G, wrong_p, _algebra(name).series.terms),)
    if target == "split_field_degree":
        n = phi.order_n if phi is not None else 1
        return split_field_degree, draw(st.sampled_from(
            [(wrong_p, n)] + [(p, bad) for bad in BAD_ORDERS]))
    split = extend_and_eigendecompose if target == "extend_and_eigendecompose" else _eigen_fields
    return split, (_algebra(name), foreign_phi)


@given(wrong_calls())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_lie_and_eigen_names_refuse_wrong_arguments_with_their_errors(call):
    f, args = call
    _call(f, *args)
