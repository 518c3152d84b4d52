"""Traced memory peaks of Glauberman's instance, affine(5, 3) with the
Frobenius of order 3: at |G| = 15,500 it sets the memory peak of a corpus
pass.

``tracemalloc`` counts the bytes Python allocates, so the peaks repeat
exactly from run to run on one interpreter and do not move with the byte
size of the sources, as a process's resident set does. The element store
takes 2.39 MB of each. The bounds fail if the build goes back to checking
bijectivity with a set of the automorphism table or to building the whole
group's member set up front (4.77 MiB to build and 5.40 MiB to analyse on
CPython 3.11, where they now read 4.03 and 4.55 MiB). List base-image
columns read 4.26 and 4.78 MiB, under both bounds, so
``test_kernel.py::test_store_type_follows_degree`` checks their type.
"""

import gc
import tracemalloc

from coprimelab import report
from coprimelab.corpus import default_corpus

MIB = 2 ** 20
BUILD_PEAK_MIB = 4.3
ANALYSIS_PEAK_MIB = 4.8


def test_glauberman_build_and_analysis_stay_under_their_traced_peaks(monkeypatch):
    # one traced analysis: the build's peak is read when loading returns, and
    # the rest of the analysis is traced from there on
    spec = next(s for s in default_corpus()["instances"] if s["id"] == "glauberman")
    peaks = []
    load = report.load_instance

    def traced_load(data):
        out = load(data)
        peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(report, "load_instance", traced_load)
    gc.collect()
    tracemalloc.start()
    try:
        report.analyze_instance(spec)
        peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
    finally:
        tracemalloc.stop()
    build, rest = peaks
    assert build <= BUILD_PEAK_MIB, build
    assert max(build, rest) <= ANALYSIS_PEAK_MIB, (build, rest)
