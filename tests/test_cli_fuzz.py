"""Valid raw groups through every file command, with random flags.

Each example is a subgroup of S_n, n <= 8, of order at most 1500, whose
generating set is closed under conjugation by a drawn permutation c, so that
x -> c x c⁻¹ is an automorphism of it; its image words are single generator
letters. Every command that reads an instance file runs on it (``suite``
on a one-instance corpus), with a random ``--element`` and under a random
``corpus.DEFAULT_CAP``. Whatever the input, no exception escapes ``main``,
exit 1 comes only with a ``fail`` verdict in stdout, and every exit-2
message starts with its place in the input or with a flag, as the README
"Command line" section promises.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab import corpus
from coprimelab.cli import main
from coprimelab.errors import CapExceeded
from coprimelab.groups import generate_group

MAX_ORDER = 1500
# the exponents that generators are powers of random permutations by
POWERS = (1, 1, 2, 3, 4, 6)
# enumeration caps: the default, one above every group here, and caps that
# some of the groups exceed
CAPS = (corpus.DEFAULT_CAP,) * 3 + (MAX_ORDER, MAX_ORDER, 1, 3, 8, 24, 60)

# an input error's place: a field of the raw file as a JSON path (in a
# corpus, under its position), or the flag
PLACE = re.compile(r"error: ((instances\[0\]\.)?(degree|generators|automorphism)"
                   r"(\.\w+|\[\d+\])*: |--element[ :])")


def _product(perms, degree):
    """The composite of the permutations, the last applied first."""
    out = tuple(range(degree))
    for g in perms:
        out = tuple(out[x] for x in g)
    return out


def _inverse(g):
    return tuple(sorted(range(len(g)), key=g.__getitem__))


def _conjugation_orbit(gens, c):
    """The generators and their images under x -> c x c⁻¹, repeated until
    the list is closed, without repeats; and the position of each one's image."""
    def image(g):
        return _product([c, g, _inverse(c)], len(c))

    out = list(dict.fromkeys(gens))
    for g in out:
        if image(g) not in out:
            out.append(image(g))
    return out, [out.index(image(g)) for g in out]


def _small_enough(spec) -> bool:
    try:
        generate_group(spec["degree"], spec["generators"], cap=MAX_ORDER)
    except CapExceeded:
        return False
    return True


def _sylow2_levels(degree):
    """Generators of a Sylow 2-subgroup of S_(2^m), 2^m <= degree, on the
    first 2^m points: level j swaps the two halves of each block of 2^(j+1)."""
    levels, size = [], 1
    while 2 * size <= degree:
        levels.append(tuple(x ^ size if x < 2 * size else x for x in range(degree)))
        size *= 2
    return levels


@st.composite
def raw_groups(draw):
    """Generators are powers of random permutations, which have smaller
    orders and more fixed points than the permutations, or products of the
    level generators of a Sylow 2-subgroup, all carried by one random
    permutation, so that nilpotent groups of order up to 128 come up too;
    c is the identity, a generator (an inner automorphism) or a random
    permutation."""
    degree = draw(st.integers(1, 8))
    perms = st.permutations(range(degree)).map(tuple)
    levels = _sylow2_levels(degree)
    if levels and draw(st.booleans()):
        frame = draw(perms)
        elements = st.lists(st.sampled_from(levels), min_size=1, max_size=6).map(
            lambda word: _product([frame, *word, _inverse(frame)], degree))
    else:
        elements = st.tuples(perms, st.sampled_from(POWERS)).map(
            lambda gk: _product([gk[0]] * gk[1], degree))
    gens = draw(st.lists(elements, min_size=1, max_size=3))
    c = draw(st.one_of(st.just(tuple(range(degree))), st.sampled_from(gens), perms))
    gens, images = _conjugation_orbit(gens, c)
    return {"degree": degree, "generators": [list(g) for g in gens],
            "automorphism": {"images": [[i + 1] for i in images]}}


def _flags(word):
    """The flags of each file command."""
    flags = {"decompose": ["--element=" + ",".join(map(str, word))]}
    return {cmd: flags.get(cmd, []) for cmd in
            ("info", "auto", "decompose", "lie", "eigen", "suite")}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(raw_groups().filter(_small_enough),
       st.lists(st.integers(-4, 4), max_size=6),
       st.sampled_from(CAPS))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_every_file_command_keeps_the_exit_code_contract(spec, word, cap):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        corpus_path = os.path.join(tmp, "corpus.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        with open(corpus_path, "w", encoding="utf-8") as f:
            json.dump({"schema": 1, "instances": [spec]}, f)
        for cmd, flags in _flags(word).items():
            with mock.patch.object(corpus, "DEFAULT_CAP", cap):
                code, out, err = _run([cmd, corpus_path if cmd == "suite" else path, *flags])
            where = (cmd, flags, cap, spec)
            assert code in (0, 1, 2), where
            if code == 1:
                assert '"fail"' in out, where
            if code == 2:
                assert not out, where
                place = re.escape(corpus_path if cmd == "suite" else path)
                assert PLACE.match(err) or re.match(f"error: {place}: ", err), (err, where)
