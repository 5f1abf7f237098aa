"""Workloads, seeded inputs and the checked jobs of the censtab benchmark.

Every input is a seeded presentation of a catalog algebra: the basis is
permuted and rescaled, f_i = d_i e_perm(i), so the structure constants
become c'_ijk = d_i d_j c_ijk / d_k.  That keeps the sparsity and the
isomorphism class (hence the catalog's expected verdict and dimensions) but
makes the coefficients general, so Fraction arithmetic costs what it costs on
real tables, and no two jobs of a run hand censtab the same bytes.

Jobs are checked against the catalog's `Expected`, which does not come from
the decision code, and every certificate is replayed on an independent
reload of the document.  A failed check raises `Mismatch`.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

GF_P = 1000003

# (family, params) rosters.  Every pass of a run executes each entry once,
# in a seeded order, with a fresh presentation.  Each roster has 15 entries:
# with every entry run equally often, the median then falls in the middle
# of the 8th entry's cluster of times and the 90th percentile in the middle
# of the 14th, not on the edge between two clusters, where it would jump
# from run to run.  The verdict workloads share SHARED, so the Q/GF(p) gap
# can be read entry by entry.
SHARED = (
    ("truncated_poly", {"k": 16}),
    ("truncated_poly", {"k": 24}),
    ("upper_triangular", {"n": 6}),
    ("upper_triangular", {"n": 8}),
    ("scalar_plus_strict_upper", {"n": 7}),
    ("strict_upper", {"n": 7}),
    ("strict_upper", {"n": 9}),
    ("matrix_full", {"n": 5}),
    ("matrix_full", {"n": 8}),
    ("matrix_over_commutative", {"n": 3, "k": 4}),
    ("r11_radical", {"n": 3, "k": 4}),
)
Q_ONLY = (("ema", {}), ("ema", {"poly": (-2, 0, 0, 1)}), ("exg", {}), ("exh_rational", {}))
GF_EXTRA = (
    ("scalar_plus_strict_upper", {"n": 6}),
    ("matrix_full", {"n": 6}),
    ("matrix_over_commutative", {"n": 2, "k": 5}),
    ("r11_radical", {"n": 2, "k": 6}),
)
ELEMENT_ROSTER = (
    ("truncated_poly", {"k": 8}),
    ("truncated_poly", {"k": 16}),
    ("upper_triangular", {"n": 3}),
    ("upper_triangular", {"n": 6}),
    ("scalar_plus_strict_upper", {"n": 4}),
    ("scalar_plus_strict_upper", {"n": 6}),
    ("strict_upper", {"n": 5}),
    ("strict_upper", {"n": 7}),
    ("matrix_full", {"n": 3}),
    ("matrix_full", {"n": 5}),
    ("matrix_over_commutative", {"n": 2, "k": 5}),
    ("r11_radical", {"n": 2, "k": 6}),
    ("ema", {}),
    ("exg", {}),
    ("exh_rational", {}),
)

BASIS_QUERIES = 4
RANDOM_QUERIES = 4
# decompose_tensor_element runs on A (x) M_n for unital A up to this dimension;
# above it one decomposition costs more than the rest of the session.
DECOMPOSE_MAX_DIM = 9
DECOMPOSE_N = 2


@dataclass(frozen=True)
class Workload:
    name: str
    field: object  # "Q" or a prime
    kind: str  # "verdict" or "element"
    roster: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verdict-Q",
            "Q",
            "verdict",
            SHARED + Q_ONLY,
            "Load, decide, report, reload and replay catalog algebras over Q (dim 4-64):"
            " time goes to the radical, in decision and replay, and to the associativity"
            " check of build_algebra",
        ),
        Workload(
            "verdict-GFp",
            GF_P,
            "verdict",
            SHARED + GF_EXTRA,
            "The verdict-Q jobs over GF(1000003), other sizes in place of the Q-only"
            " families: same algorithms on machine ints, so a scalar change moves"
            " verdict-Q only, an algorithmic one both",
        ),
        Workload(
            "element-Q",
            "Q",
            "element",
            ELEMENT_ROSTER,
            "Element queries and A(x)M_2 splits on one loaded algebra, replayed on a copy:"
            " center and ideal closure, never the radical, so radical-only changes must"
            " leave it unchanged",
        ),
    )
}


class Mismatch(Exception):
    """A job's output disagrees with the catalog or fails to replay."""


@dataclass(frozen=True)
class Job:
    label: str
    doc: str  # the algebra document, as JSON text
    expected: object  # catalog Expected
    queries: tuple = ()  # element coordinates, as scalar strings
    decompose: tuple | None = None  # (n, coordinates of t) in A (x) M_n


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _small_rational(rng) -> str:
    """A coordinate for element queries: numerator and denominator up to 3."""
    return str(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


class Inputs:
    """The catalog entries of one workload and the seeded jobs drawn from them."""

    def __init__(self, api, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        if workload.field == "Q":
            self.p = None
            field = api.scalars.RATIONALS
        else:
            self.p = workload.field
            field = api.scalars.prime_field(self.p)
        self.entries = []
        for family, params in workload.roster:
            q_only = family in ("ema", "exg", "exh_rational")
            kwargs = dict(params) if q_only else {"field": field, **params}
            entry = api.catalog.build(family, **kwargs)
            label = family + "".join(f" {k}={v}" for k, v in params.items())
            self.entries.append((label, entry))

    def _scalar(self, rng):
        if self.p is None:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        return rng.randint(1, self.p - 1)

    def _present(self, alg, rng) -> str:
        """A random basis permutation and rescaling of alg, as JSON text."""
        n, p = alg.dim, self.p
        perm = rng.sample(range(n), n)
        new = {old: i for i, old in enumerate(perm)}
        d = [self._scalar(rng) for _ in range(n)]
        table = []
        for (i0, j0), pairs in alg.table.items():
            i, j = new[i0], new[j0]
            out = []
            for k0, c in pairs:
                k = new[k0]
                if p is None:
                    out.append([k, str(d[i] * d[j] * c / d[k])])
                else:
                    out.append([k, str(d[i] * d[j] * c * pow(d[k], -1, p) % p)])
            table.append([i, j, sorted(out)])
        table.sort()
        field = "Q" if p is None else {"GF": p}
        return json.dumps({"field": field, "dim": n, "table": table}, sort_keys=True)

    def pass_jobs(self, k: int) -> list:
        """The jobs of pass k: each roster entry once, in a seeded order."""
        rng = random.Random(f"{self.seed}:{self.workload.name}:{k}")
        jobs = []
        for idx in rng.sample(range(len(self.entries)), len(self.entries)):
            label, entry = self.entries[idx]
            alg = entry.algebra
            doc = self._present(alg, rng)
            if self.workload.kind == "verdict":
                jobs.append(Job(label, doc, entry.expected))
                continue
            queries = []
            for i in rng.sample(range(alg.dim), min(BASIS_QUERIES, alg.dim)):
                queries.append(tuple("1" if c == i else "0" for c in range(alg.dim)))
            for _ in range(RANDOM_QUERIES):
                queries.append(tuple(_small_rational(rng) for _ in range(alg.dim)))
            dec = None
            if alg.is_unital and alg.dim <= DECOMPOSE_MAX_DIM:
                width = alg.dim * DECOMPOSE_N * DECOMPOSE_N
                dec = (DECOMPOSE_N, tuple(_small_rational(rng) for _ in range(width)))
            jobs.append(Job(label, doc, entry.expected, tuple(queries), dec))
        return jobs


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def no_span(name):
    return nullcontext()


def _timed(samples, key, span, name, fn, *args):
    """Run fn(*args), in span `name` unless None; add its time to samples[key] unless None."""
    with span(name) if name else nullcontext():
        t = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t
    if key is not None:
        samples[key].append(dt)
    return out


def _load(api, text):
    return api.fileformat.algebra_from_json(json.loads(text))


def _report(api, alg, rep, command):
    ff = api.fileformat
    return ff.dump_json(ff.report_to_json(alg, rep, command=command))


def _replay(api, alg, text):
    return api.fileformat.verify_report_json(alg, json.loads(text))


def verdict_job(api, job: Job, samples, span=no_span):
    """Load, decide, serialize, reload and replay one algebra document."""
    a = _timed(samples, "load", span, "fileformat.load", _load, api, job.doc)
    rep = _timed(samples, "verdict", span, None, api.stability.algebra_centrally_stable, a)
    text = _timed(samples, None, span, "fileformat.report", _report, api, a, rep, "stable")
    b = _timed(samples, "load", span, "fileformat.load", _load, api, job.doc)
    ok = _timed(samples, "replay", span, "fileformat.replay", _replay, api, b, text)

    exp = job.expected
    # the unitization route reports Z(A#), which has the adjoined unity on top
    extra = 1 if rep.bases.get("ambient") == "unitization" else 0
    got = (rep.verdict, len(rep.bases["center"]), len(rep.bases["radical"]))
    want = (exp.verdict, exp.center_dim + extra, exp.radical_dim)
    if got != want:
        raise Mismatch(f"{job.label}: (verdict, center, radical) {got} != expected {want}")
    if not ok:
        raise Mismatch(f"{job.label}: certificate {rep.certificate.kind} failed to replay")
    return rep.certificate.kind == "UnstableElementWitness"


def _check_element(job, rep, ok, what):
    exp = job.expected
    if not ok:
        raise Mismatch(f"{job.label}: {what} certificate failed to replay")
    if exp.verdict == "Stable" and rep.verdict != "Stable":
        raise Mismatch(f"{job.label}: {what} of a Stable algebra tested {rep.verdict}")


def element_job(api, job: Job, samples, span=no_span):
    """One session: load the algebra and an independent copy, query, replay."""
    ff, st = api.fileformat, api.stability
    a = _timed(samples, "load", span, "fileformat.load", _load, api, job.doc)
    b = _timed(samples, "load", span, "fileformat.load", _load, api, job.doc)
    for coords in job.queries:
        x = a.element(ff.vector_from_json(a.field, list(coords), a.dim))
        rep = _timed(samples, "verdict", span, None, st.element_centrally_stable, x)
        text = _timed(samples, None, span, "fileformat.report", _report, api, a, rep, "element")
        ok = _timed(samples, "replay", span, "fileformat.replay", _replay, api, b, text)
        _check_element(job, rep, ok, "element")
        if len(rep.bases["center"]) != job.expected.center_dim:
            raise Mismatch(f"{job.label}: center dimension {len(rep.bases['center'])}")
    if job.decompose is None:
        return False
    n, coords = job.decompose
    t = ff.vector_from_json(a.field, list(coords), a.dim * n * n)
    dec = _timed(samples, "verdict", span, None, st.decompose_tensor_element, a, n, t)
    # t = diag (x) 1 + s, with A-major basis order (j, p, q) -> j*n*n + p*n + q
    s = dec.stable_part.coords
    diag = dec.diagonal_part.coords
    for idx, (ti, si) in enumerate(zip(t, s)):
        j, pq = divmod(idx, n * n)
        shift = diag[j] if pq % (n + 1) == 0 else 0
        if ti != a.field.add(si, shift):
            raise Mismatch(f"{job.label}: t != diag (x) 1 + s at coordinate {idx}")
    text = _timed(samples, None, span, "fileformat.report", _report, api, a, dec.diagonal_report, "element")
    ok = _timed(samples, "replay", span, "fileformat.replay", _replay, api, b, text)
    _check_element(job, dec.diagonal_report, ok, "diagonal part")
    if dec.full_report is None:
        if job.expected.verdict == "Stable":
            raise Mismatch(f"{job.label}: no verdict on t for a Stable algebra")
        return False
    tb = st.tensor_with_matrices(b, n)
    text = _timed(samples, None, span, "fileformat.report", _report, api, dec.tensor_algebra, dec.full_report, "element")
    ok = _timed(samples, "replay", span, "fileformat.replay", _replay, api, tb, text)
    _check_element(job, dec.full_report, ok, "tensor element")
    return False


JOB_KINDS = {"verdict": verdict_job, "element": element_job}
