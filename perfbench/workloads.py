"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload builds its instances once (``build``), then ``run_pass``
computes every timed operation and returns the seconds and the raw
outputs keyed by operation id.  Outputs are digested and checked outside
the timed region: against the committed reference digests where one
exists for the operation, otherwise by the independent checks of the
criterion-7 battery (``check``).

Why each workload exists is recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

# Library calls go through the module attributes, looked up at call time,
# so the layer wrappers installed for a traced run see them.
from pstrata import catalog, gmodule, hausdorff, strata
from pstrata.hausdorff import SubgroupSpec
from pstrata.strata import RateVector

clock = time.perf_counter
HDIM_GAP = Fraction(1, 50)


# -- the criterion-7 recipe, owned by the benchmark ---------------------


def random_sizes(rng: random.Random) -> tuple:
    """Block sizes summing to 2..6, each block at most 4."""
    d = rng.randint(2, 6)
    sizes, left = [], d
    while left:
        b = rng.randint(1, min(4, left))
        sizes.append(b)
        left -= b
    return tuple(sizes)


def _invertible_mod_p(rows, p: int) -> bool:
    m = [list(r) for r in rows]
    n = len(m)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] % p), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            f = (m[r][col] * inv) % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    return True


def subgroup_rows(rng: random.Random, d: int, p: int) -> tuple:
    """Rows of a random saturated subgroup supported on a coordinate subset."""
    r = rng.randint(1, d)
    cols = sorted(rng.sample(range(d), r))
    while True:
        U = [[rng.randrange(0, p**3) for _ in range(r)] for _ in range(r)]
        if _invertible_mod_p(U, p):
            break
    rows = []
    for i in range(r):
        row = [0] * d
        for j, c in enumerate(cols):
            row[c] = U[i][j]
        rows.append(tuple(row))
    return tuple(rows)


# -- digests ------------------------------------------------------------


def _frac(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def canonical(kind: str, value):
    """JSON-ready form of everything ROADMAP promises stays byte-identical."""
    if kind == "series":
        return {"terms": [t.basis for t in value.terms], "profiles": value.profiles,
                "log_indices": value.log_indices}
    if kind == "stratify":
        strat, cert = value
        return {"rates": [_frac(r) for r in strat.rates.rates], "frame": strat.frame,
                "c": strat.c, "window": strat.window, "status": strat.status,
                "cycle": None if cert is None else [cert.j, cert.m, cert.n]}
    if kind == "spectrum":
        return [_frac(v) for v in value]
    if kind == "hdim":
        exact, quotients, strong = value
        return {"exact": _frac(exact), "quotients": [_frac(q) for q in quotients],
                "strong": strong}
    raise ValueError(f"unknown operation kind {kind!r}")


def digest(kind: str, value) -> str:
    text = json.dumps(canonical(kind, value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    """Seconds and raw outputs of each operation of one pass over a workload."""

    def __init__(self, stick=None):
        self.seconds = {}  # op id -> (the end-to-end metric it counts toward, seconds)
        self.stick = stick  # a yardstick.Yardstick, sampled between operations
        self.sampling = {}  # op id -> index of the yardstick sampling just before it
        self.ops = {}  # op id -> (kind, value or the exception raised)


def _yardstick_before(pas: Pass, op: str):
    if pas.stick is not None:
        pas.sampling[op] = pas.stick.between_ops()


def _timed(pas: Pass, metric: str, op: str, kind: str, fn, *args):
    """Run one operation, charging its time to an end-to-end metric.

    Returns the output, or the exception that failed the operation.  An
    operation whose input is such an exception fails with it, unrun.
    """
    blocked = next((a for a in args if isinstance(a, Exception)), None)
    if blocked is not None:
        pas.ops[op] = (kind, blocked)
        return blocked
    _yardstick_before(pas, op)
    t0 = clock()
    try:
        out = fn(*args)
    except Exception as err:  # a raising operation is counted as failed
        out = err
    pas.seconds[op] = (metric, clock() - t0)
    pas.ops[op] = (kind, out)
    return out


# -- workloads ----------------------------------------------------------


class DeepRemark27:
    name = "deep-remark27"
    metrics = ("series_s", "stratify_s")
    seeded_kinds = ()
    I_MAX, N, DENOM = 128, 130, 63

    def build(self, seed):
        # fixed instances: the seed does not change this workload
        return [catalog.get_bundle("remark27", p=p, N=self.N) for p in (2, 3)]

    def run_pass(self, inst, stick=None):
        pas = Pass(stick)
        for b in inst:
            tag = f"p{b.action.p}"
            tr = _timed(pas, "series_s", f"{tag}/series", "series",
                        gmodule.lower_p_series, b.lattice, b.action, self.I_MAX)
            _timed(pas, "stratify_s", f"{tag}/stratify", "stratify",
                   strata.run_stratification, tr, self.DENOM)
        return pas


class Battery:
    name = "battery"
    metrics = ("series_s", "stratify_s", "hdim_s", "spectrum_s")
    seeded_kinds = ("hdim",)
    SLOTS, SUBGROUPS, I_MAX, N = 50, 5, 64, 66

    def build(self, seed):
        """Slot k is the action of criterion-7 seed k; subgroups follow the seed.

        Subgroups come from criterion-7 seed 50*seed + k, drawn after that
        seed's own block sizes as the battery does, so seed 0 reproduces
        criterion-7 seeds 0-49 exactly.  The actions stay fixed because the
        cost of a pass follows the block sizes: fresh 50-action slices
        differ by 10-16% in cost, which would swamp a regression.
        """
        inst = []
        for k in range(self.SLOTS):
            sizes = random_sizes(random.Random(k * 7919 + 13))
            bundle = catalog.random_block_action(sizes, seed=k, p=2, N=self.N)
            rng = random.Random((self.SLOTS * seed + k) * 7919 + 13)
            random_sizes(rng)
            d = bundle.action.d
            subs = [SubgroupSpec(2, self.N, subgroup_rows(rng, d, 2))
                    for _ in range(self.SUBGROUPS)]
            inst.append((bundle, max(sizes + (2,)), subs))
        return inst

    def run_pass(self, inst, stick=None):
        pas = Pass(stick)
        for k, (b, bound, subs) in enumerate(inst):
            tag = f"i{k:02d}"
            tr = _timed(pas, "series_s", f"{tag}/series", "series",
                        gmodule.lower_p_series, b.lattice, b.action, self.I_MAX)
            res = _timed(pas, "stratify_s", f"{tag}/stratify", "stratify",
                         strata.run_stratification, tr, bound)
            strat = res if isinstance(res, Exception) else res[0]
            rates = strat if isinstance(strat, Exception) else strat.rates
            _timed(pas, "spectrum_s", f"{tag}/spectrum", "spectrum", hausdorff.spectrum, rates)
            for j, H in enumerate(subs):
                _timed(pas, "hdim_s", f"{tag}/hdim{j}", "hdim", _hdim, H, tr, strat)
        return pas

    def check(self, inst, op, value, ops):
        """Criterion 7: numeric within 1/50 of exact, exact inside the spectrum."""
        exact, quotients, _ = value
        _, members = ops.get(op.split("/")[0] + "/spectrum", (None, None))
        return (isinstance(members, tuple) and abs(quotients[-1] - exact) <= HDIM_GAP
                and exact in members)


def _hdim(H, tr, strat):
    exact = hausdorff.hdim_exact(H, strat)
    quotients, strong = hausdorff.hdim_numeric(H, tr, strat)
    return exact, tuple(quotients), strong


class WideGm:
    name = "wide-gm"
    metrics = ("series_s", "stratify_s", "spectrum_s")
    seeded_kinds = ()
    I_MAX, N, DENOM = 128, 130, 63

    def build(self, seed):
        # fixed instances: the seed does not change this workload
        gm3 = [catalog.get_bundle("Gm3", p=p, N=self.N) for p in (2, 3)]
        spectra = []
        for m in (4, 5):
            b = catalog.build_Gm_lattice(m)
            rv = RateVector(b.expected_rates)
            spectra.append((f"Gm{m}", rv, ()))
            spectra.append((f"Gm{m}+w", rv, b.extra_weights))
        return gm3, spectra

    def run_pass(self, inst, stick=None):
        gm3, spectra = inst
        pas = Pass(stick)
        for b in gm3:
            tag = f"Gm3/p{b.action.p}"
            tr = _timed(pas, "series_s", f"{tag}/series", "series",
                        gmodule.lower_p_series, b.lattice, b.action, self.I_MAX)
            _timed(pas, "stratify_s", f"{tag}/stratify", "stratify",
                   strata.run_stratification, tr, self.DENOM)
        for tag, rv, extras in spectra:
            _timed(pas, "spectrum_s", f"spectrum/{tag}", "spectrum",
                   hausdorff.spectrum, rv, extras)
        return pas


WORKLOADS = {w.name: w for w in (DeepRemark27(), Battery(), WideGm())}


# -- known failures, run once and untimed --------------------------------


def known_failures(runner) -> list:
    """(name, expected outcome, observed outcome) for each recorded defect."""
    out = []
    code, _, _ = runner.cli(["stratify", "--catalog", "remark27", "--imax", "64",
                                "--denom-bound", "8"])
    out.append(("readme-stratify-denom-bound-8", "exit 3", f"exit {code}"))

    def outcome(fn):
        try:
            fn()
        except Exception as err:  # the outcome is what is recorded
            return type(err).__name__
        return "ok"

    def gm4_stratify():
        b = catalog.build_Gm_lattice(4)
        tr = gmodule.lower_p_series(b.lattice, b.action, 64)
        strata.run_stratification(tr, denom_bound=31)

    def gm6_spectrum():
        b = catalog.build_Gm_lattice(6)
        hausdorff.spectrum(RateVector(b.expected_rates), b.extra_weights)

    out.append(("gm4-stratify-imax-64", "FrameRejected", outcome(gm4_stratify)))
    out.append(("gm6-spectrum-extra-weight", "EnumerationTooLarge", outcome(gm6_spectrum)))
    return out
