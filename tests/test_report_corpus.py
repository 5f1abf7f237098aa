"""One SHA-256 over the report bytes of a seeded corpus.

The golden CLI file pins a few reports per algebra; this pins many more.
For every standard catalog entry over Q and over GF(101) the corpus holds
the algebra report and the reports of 30 elements: basis elements first,
then sparse and dense seeded elements.  Every unital entry of dimension at
most 8 also contributes a split of one seeded element of A (x) M_2: the
diagonal part's report and, when it is stable, the tensor element's.  Each
report is the text `dump_json(report_to_json(...))` writes, without
`timings`.  A change that moves any byte of any of them, such as a decision
closure that stops at a different row, changes the digest.  To print the
digest after an intended change of output:

    PYTHONPATH=src python tests/test_report_corpus.py
"""

import hashlib
import random

from censtab.catalog import standard_entries
from censtab.fileformat import dump_json, report_to_json
from censtab.scalars import RATIONALS as Q, prime_field
from censtab.stability import (
    algebra_centrally_stable,
    decompose_tensor_element,
    element_centrally_stable,
    tensor_with_matrices,
)

DIGEST = "699c2d1c3ca59913fac73e41255010eea5f4f4336bd36a4f0d78893e43927f80"
ELEMENTS = 30
BASIS = 10
DECOMPOSE_MAX_DIM = 8


def _elements(a, rng):
    """BASIS basis elements (all of them when fewer), then sparse and dense
    seeded elements up to ELEMENTS in all."""
    f = a.field
    out = [a.basis_element(i).coords for i in sorted(rng.sample(range(a.dim), min(BASIS, a.dim)))]
    while len(out) < ELEMENTS:
        v = [f.zero] * a.dim
        support = rng.sample(range(a.dim), min(a.dim, rng.randint(1, 3))) if len(out) % 2 else range(a.dim)
        for i in support:
            v[i] = f.random_scalar(rng)
        out.append(tuple(v))
    return out


def corpus():
    """(label, report text) for every report of the corpus, in a fixed order."""
    for field in (Q, prime_field(101)):
        for entry in standard_entries(field):
            a, tag = entry.algebra, entry.description
            rng = random.Random(f"corpus:{tag}")
            yield tag, dump_json(report_to_json(a, algebra_centrally_stable(a), command="stable"))
            for k, coords in enumerate(_elements(a, rng)):
                rep = element_centrally_stable(a.element(coords))
                yield f"{tag}:{k}", dump_json(report_to_json(a, rep, command="element"))
            if a.is_unital and a.dim <= DECOMPOSE_MAX_DIM:
                t = tensor_with_matrices(a, 2)
                dec = decompose_tensor_element(a, 2, [a.field.random_scalar(rng) for _ in range(t.dim)])
                yield f"{tag}:diagonal", dump_json(report_to_json(a, dec.diagonal_report, command="element"))
                if dec.full_report is not None:
                    yield f"{tag}:tensor", dump_json(report_to_json(t, dec.full_report, command="element"))


def digest():
    h = hashlib.sha256()
    for label, text in corpus():
        h.update(f"{label}\n{text}".encode())
    return h.hexdigest()


def test_the_report_corpus_keeps_its_bytes():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
