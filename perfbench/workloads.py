"""The benchmark's workloads, each a fixed list of checked jobs.

A job is one thing a researcher waits for: a call chain into the library
whose output is checked against an independent path.  A job returns a
dict of numerical diagnostics and raises ``CheckFailed`` when a check
does not hold.  ``jobs(seed, tracer)`` builds one round: the list has
the same shape and cost for every seed, and the seed only draws the
inputs (potentials, perturbations, primes, order).  Every round of a run
repeats the same inputs, so each job is timed several times.

The job lists of four groups (``SphereMetric``, ``BalancedScan``,
``ExactModels``, ``Cli``) are run in pairs as the two benchmark
workloads (``WORKLOADS``): ``spectral`` uses the quadrature grids and
``exact_cli`` never builds one.

Library calls go through module attributes (``H.k_energy``, not a name
imported here), so the tracer's patches are seen.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

PROBE = "probe"   # a job whose failure is a known defect, reported apart


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, independent of the
    library's trial division."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SMALL_PRIMES = [p for p in range(2, 200) if is_probable_prime(p)]


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def job_seed(seed: int, j: int) -> int:
    """Integer seed of job j, for APIs that take an int."""
    return seed * 1009 + j


def aubin_chain(i_val: float, j_val: float, n: int, what: str):
    """0 <= I/(n+1) <= J <= n I/(n+1), to 1e-10."""
    check(i_val / (n + 1) >= -1e-10
          and j_val - i_val / (n + 1) >= -1e-10
          and n * i_val / (n + 1) - j_val >= -1e-10,
          f"Aubin chain fails on {what}: I={i_val!r}, J={j_val!r}")


class Workload:
    def __init__(self, root: Path):
        self.root = root

    def setup(self):
        """Imports and every one-time cost a user pays before the first
        job; run once per process."""
        import numpy
        import heights
        self.np, self.H = numpy, heights

    def jobs(self, seed: int, tracer) -> list:
        raise NotImplementedError

    def close(self):
        pass


# -- sphere_metric ------------------------------------------------------

# (tau, degree) of the flat tori; a degree-d torus has mass V = d
TORI = ((1j, 1), (0.5 + 0.8660254037844386j, 3))
# full-chain jobs per round on each sphere grid; n_theta <= 256 keeps the
# Legendre block cache.  In ``spectral`` the grid-256 chains are the
# 5th to 14th slowest jobs, so job_tail_s (ten jobs beyond it) reads one
SPHERE_MIX = ((128, 14), (256, 10))
# the criterion-04 grid, where the cache is off: a full chain there takes
# ~13 s, so its one job builds the potential from a few harmonics and
# checks the ADFK identity and the spectral operator; it is about a
# quarter of spectral's wall_s
UNCACHED = 512


class SphereMetric(Workload):
    def setup(self):
        super().setup()
        H, np = self.H, self.np
        self.spheres = {n: H.SphereGeometry(n)
                        for n in [n for n, _ in SPHERE_MIX] + [UNCACHED]}
        self.tori = [H.TorusGeometry(tau, n=64, degree=d) for tau, d in TORI]
        # the first transform on a cached grid fills its block cache; on
        # the uncached grid every transform costs the same, so it is left
        # to the jobs
        cached = [self.spheres[n] for n, _ in SPHERE_MIX]
        for g in [*cached, *self.tori]:
            g.laplacian(np.ones(g.shape))
        self.p1 = H.build_p1_fs()
        self.torus_models = [self._torus_model(d) for _, d in TORI]

    def _torus_model(self, degree: int):
        """Genus-one fiber with deg_Ln = degree and deg_LK = 0."""
        H = self.H
        form = H.SymmetricForm(2, {
            ("L", "L"): H.HeightValue(Fraction(1, 2)),
            ("K", "L"): H.HeightValue(log_terms={2: Fraction(1)}),
            ("K", "K"): H.HeightValue(Fraction(0)),
        })
        return H.IntersectionModel(
            n=1, degree_KQ=1,
            classes=(H.DivisorClassId("L", "polarization"),
                     H.DivisorClassId("K", "relative-canonical")),
            form=form, L_class="L", K_class="K",
            deg_Ln=Fraction(degree), deg_LK=Fraction(0))

    def jobs(self, seed, tracer):
        out = []
        for n, count in SPHERE_MIX:
            for _ in range(count):
                out.append((f"sphere{n}", self.spheres[n], self.p1))
        for geom, model in zip(self.tori, self.torus_models):
            out.append(("torus", geom, model))
        jobs = [(label, self._job(geom, model, job_seed(seed, j)), "")
                for j, (label, geom, model) in enumerate(out)]
        jobs.append((f"sphere{UNCACHED}", self._uncached_job(
            job_seed(seed, len(jobs))), ""))
        return jobs

    def _adfk(self, model, phi) -> float:
        """Relative error of h_K(phi) - h_K(0) = (deg_Ln/[K:Q]) mu(phi)."""
        H = self.H
        changed = H.apply_metric_change(model, phi)
        dh = (H.modular_height(changed) - H.modular_height(model)).evaluate()
        mu = float(model.deg_Ln) / model.degree_KQ * H.k_energy(phi)
        err = abs(dh - mu) / max(abs(mu), 1e-30)
        check(err <= 1e-8, f"delta h_K vs mu: rel err {err:.2e}")
        return err

    def _job(self, geom, model, pseed):
        H = self.H

        def run():
            phi = H.PotentialField.random(geom, pseed)
            err = self._adfk(model, phi)
            pair = H.metric_model_pair(model, phi)
            lhs, rhs = H.decomposition_check(pair)
            check(lhs.const_part == rhs.const_part
                  and lhs.log_terms == rhs.log_terms,
                  "exact parts of the decomposition differ")
            check(abs(lhs.real_part - rhs.real_part) <= 1e-12,
                  "float parts of the decomposition differ")
            aubin_chain(H.aubin_I_rel(pair).evaluate(),
                        H.aubin_J_rel(pair).evaluate(), model.n,
                        "the metric pair")
            aubin_chain(H.aubin_i(phi), H.aubin_j(phi), model.n,
                        "the potential")
            return {"diag.adfk_rel_err": err,
                    "diag.omega_phi_min": float(phi.omega_phi.min())}
        return run

    def _uncached_job(self, pseed):
        H, np = self.H, self.np
        geom, model = self.spheres[UNCACHED], self.p1
        rng = np.random.default_rng(pseed)
        coeffs = {}
        while len(coeffs) < 3:
            l = int(rng.integers(1, 13))
            coeffs[(l, int(rng.integers(-l, l + 1)))] = (
                0.02 * rng.normal() / (l * (l + 1)))

        def run():
            phi = H.PotentialField.from_harmonics(geom, coeffs)
            # harmonics are eigenfunctions: ddc Y_lm = -l(l+1) Y_lm
            want = geom.synth_harmonics({(l, m): -l * (l + 1) * c
                                         for (l, m), c in coeffs.items()})
            eig = float(np.max(np.abs(phi.ddc - want)))
            check(eig <= 1e-6, f"spectral operator off by {eig:.2e}")
            err = self._adfk(model, phi)
            return {"diag.adfk_rel_err": err,
                    "diag.omega_phi_min": float(phi.omega_phi.min())}
        return run


# -- balanced_scan --------------------------------------------------------

# m = 8 (134 steps, 11 s) would double the length of a round
BALANCED_M = (3, 5)
SCAN_M_MAX = (250, 500, 2000)
# each Gram job checks m, m + 16 and 49 - m, so the jobs cover m = 1..48
# once and cost about the same; in ``spectral`` they are the middle of
# the job list, so job_p50_s reads one
GRAM_M = tuple(range(1, 17))
SCAN_CONSTANT = (math.log(2.0 * math.pi) - 1.0) / 4.0   # h_K(P^1) / 4


class BalancedScan(Workload):
    def setup(self):
        super().setup()
        self.geom = self.H.SphereGeometry(128)
        self.geom.laplacian(self.np.ones(self.geom.shape))
        self.p1 = self.H.build_p1_fs()

    def jobs(self, seed, tracer):
        out = [(f"balanced_m{m}", self._balanced(m, job_seed(seed, j)),
                "") for j, m in enumerate(BALANCED_M)]
        out += [(f"scan_{m_max}", self._scan(m_max), "")
                for m_max in SCAN_M_MAX]
        out += [(f"gram_m{m}", self._gram(m), "") for m in GRAM_M]
        return out

    def _balanced(self, m, pseed):
        H, np, geom, model = self.H, self.np, self.geom, self.p1

        def run():
            g0 = H.l2_gram("p1-fs", m, "fs", "m-omega")
            rng = np.random.default_rng(pseed)
            sym = rng.standard_normal((m + 1, m + 1))
            sym = (sym + sym.T) / 2.0
            start = H.SectionGram(m, g0.basis, g0.gram * np.exp(0.1 * sym),
                                  g0.volume_convention)
            g, iters, converged, trace = H.balanced_iterate(
                start, geom, tol=1e-10, max_iter=400, model=model)
            check(converged, f"m={m}: no convergence in {iters} steps")
            # fixed points form the orbit diag(lam^a) of the FS Gram
            ratios = np.log(np.diag(g.gram) / np.diag(g0.gram))
            basis = np.column_stack([np.ones(m + 1), np.arange(m + 1)])
            coef, *_ = np.linalg.lstsq(basis, ratios, rcond=None)
            check(np.max(np.abs(ratios - basis @ coef)) < 1e-7,
                  f"m={m}: limit is off the FS orbit")
            off = g.gram - np.diag(np.diag(g.gram))
            check(np.max(np.abs(off)) < 1e-10,
                  f"m={m}: limit is not diagonal")
            h_end = H.quantize.htilde_c_of_gram(model, g, geom)
            h_fs = H.quantize.htilde_c_of_gram(model, g0, geom)
            check(abs(h_end - h_fs) <= 1e-10,
                  f"m={m}: h~_C at the limit differs from FS")
            hs = [h for _, _, h in trace]
            check(all(b <= a + 1e-11 for a, b in zip(hs, hs[1:])),
                  f"m={m}: h~_C increased along the flow")
            return {"diag.balanced_final_distance": trace[-1][1],
                    "quantize.iterations": iters}
        return run

    def _scan(self, m_max):
        """Dequantization scan and Hilbert-Samuel residual up to m_max."""
        H, np, model = self.H, self.np, self.p1

        def run():
            res = H.dequantization_scan(model, m_max)
            const_err = abs(res.fitted_constant - SCAN_CONSTANT)
            slope_err = abs(res.fitted_log_slope - 0.25)
            check(const_err <= 1e-3 and slope_err <= 1e-3,
                  f"dequantization fit off: {const_err:.1e}, {slope_err:.1e}")
            rows = H.hilbert_samuel_residual(model, m_max)
            ratios = [abs(r) / m for m, r in rows]
            check(ratios[-1] < 1e-2, "Hilbert-Samuel residual is not o(m)")
            tail = ratios[m_max // 2 - 1:]
            check(all(b <= a + 1e-14 for a, b in zip(tail, tail[1:])),
                  "Hilbert-Samuel residual/m not monotone on the tail")
            # refit the m log m coefficient the main term leaves out
            ms = np.array([m for m, _ in rows if m >= m_max // 2], float)
            resid = np.array([r + m * math.log(m) / 4.0
                              for m, r in rows if m >= m_max // 2])
            X = np.column_stack([ms * np.log(ms), ms, np.log(ms),
                                 np.ones_like(ms)])
            coef, *_ = np.linalg.lstsq(X, resid, rcond=None)
            hs_err = abs(coef[0] - 0.25)
            check(hs_err <= 1e-3, f"m log m coefficient off {hs_err}")
            return {"diag.scan_const_err": const_err,
                    "diag.scan_slope_err": max(slope_err, hs_err)}
        return run

    def _gram(self, m):
        H, np, geom, model = self.H, self.np, self.geom, self.p1

        def run():
            worst = 0.0
            for mm in (m, m + 16, 49 - m):
                for convention in ("omega", "m-omega"):
                    closed = H.l2_gram("p1-fs", mm, "fs", convention)
                    quad = H.l2_gram_quadrature(geom, mm, convention)
                    err = (np.max(np.abs(closed.gram - quad.gram))
                           / np.max(np.abs(closed.gram)))
                    check(err <= 1e-12,
                          f"m={mm} {convention}: Gram err {err}")
                    worst = max(worst, err)
                gap = abs(H.chow_height(model, closed)
                          - H.chow_height(model, quad))
                check(gap <= 1e-10, f"m={mm}: Chow heights differ by {gap}")
            return {"diag.gram_rel_err": worst}
        return run


# -- exact_models -----------------------------------------------------------

# exact_cli's jobs are these blow-ups, one job each for the twists, the
# JSON round trips, the Faltings heights and the small bp charts, bp_big,
# and the CLI examples.  The 18 CLI invocations and the 6-prime blow-up
# take 0.2-0.3 s; six jobs are quicker and seven slower, so both
# job_p50_s and job_tail_s (ten jobs beyond it) read a CLI invocation
BLOWUP_SIZES = (1, 2, 3, 4, 6, 8, 10, 10, 12)
BLOWUP_POOL = SMALL_PRIMES[:30]
# three-exponent charts, all with a two-dimensional cyclic quotient chart
BP_CHARTS = ((8, 15, 7), (5, 7, 11), (3, 5, 7), (4, 5, 9), (7, 11, 13))
BP_BIG = ((4, 5, 7, 9), 8, Fraction(8))   # weights, j_max, multiplicity
CURVES = ("37a1", "11a1", "389a1", "5077a1")
BIG_LABEL = 10 ** 9
# rigidity checks under base twists, one on P^1 and the rest on a blow-up
# model, each with two small and two large primes
TWISTS = 14


def hirzebruch_jung_multiplicity(residues, r: int) -> int:
    """Multiplicity of the cyclic quotient 1/r(a, b) as 2 + sum(b_i - 2)
    over the continued fraction r/q = [b_1, ..., b_k], q = b/a mod r
    (Riemenschneider 1974)."""
    a, b = residues
    q = b * pow(a, -1, r) % r
    total, num, den = 2, r, q
    while den:
        c = -(-num // den)
        total += c - 2
        num, den = den, c * den - num
    return total


class ExactModels(Workload):
    """Fraction arithmetic, the product expansion of SymmetricForm.pair,
    the toric oracle, prime labels near 1e9, model JSON, Faltings heights
    and lattice enumeration; nothing here touches a quadrature grid."""

    def setup(self):
        super().setup()
        self.p1 = self.H.build_p1_fs()

    def jobs(self, seed, tracer):
        rng = random.Random(job_seed(seed, 0))
        out = []
        for j, k in enumerate(BLOWUP_SIZES):
            primes = tuple(sorted(rng.sample(BLOWUP_POOL, k)))
            out.append((f"blowup{j}_{k}", self._blowup(primes), ""))
        base_pair = self.H.build_p2_blowup_family(
            tuple(sorted(rng.sample(BLOWUP_POOL, 3))))
        models = [self.p1] + [base_pair.model] * (TWISTS - 1)
        out.append(("twists", self._twists(models, rng), ""))
        twisted = self.H.twist_by_base_divisor(
            base_pair.model, {next_prime(BIG_LABEL + rng.randrange(10 ** 6)):
                              Fraction(1, 3)})
        out.append(("json", self._json((self.p1, base_pair.model, twisted)),
                    ""))
        out.append(("faltings", self._faltings(CURVES), ""))
        charts = [(weights, rng.choice([p for p in SMALL_PRIMES[4:15]
                                        if all(w % p for w in weights)]))
                  for weights in BP_CHARTS]
        out.append(("bp_charts", self._bp(charts), ""))
        weights, j_max, mult = BP_BIG
        prime = rng.choice([p for p in SMALL_PRIMES[4:15]
                            if all(w % p for w in weights)])
        out.append(("bp_big", self._bp_big(weights, prime, j_max, mult), ""))
        return out

    def _blowup(self, primes):
        H = self.H

        def run():
            pair = H.build_p2_blowup_family(primes, validate=True)
            rel = H.relative_modular_height(pair.model, pair.ref)
            want = H.HeightValue(log_terms={p: -32 for p in primes})
            check(rel.exact_eq(want), f"relative h_K = {rel}")
            lhs, rhs = H.decomposition_check(pair)
            check(lhs.exact_eq(rhs), "decomposition is not exact")
            aubin_chain(H.aubin_I_rel(pair).evaluate(),
                        H.aubin_J_rel(pair).evaluate(), pair.model.n,
                        f"blow-up over {primes}")
            # twist t = 2: S^nA = -n deg_LK/deg_L = 2 (1+2t)/(t^2+2t)
            snA = H.na_scalar_curvature(pair.model, primes[-1])
            check(snA == {"exc": Fraction(5, 4)}, f"S^nA = {snA}")
            calabi = H.na_calabi(pair.model, primes)
            check(calabi == Fraction(25, 64) * len(primes),
                  f"Calabi = {calabi}")
            return {}
        return run

    def _twists(self, models, rng):
        H = self.H
        cases = []
        for model in models:
            big = [next_prime(BIG_LABEL + rng.randrange(10 ** 6))
                   for _ in range(2)]
            small = rng.sample(SMALL_PRIMES[:6], 2)
            D = {p: Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
                 for p in small + big}
            cases.append((model, D, rng.uniform(-2, 2)))

        def run():
            for model, D, c in cases:
                for changed in (H.twist_by_base_divisor(model, D),
                                H.rescale_metric_const(model, c)):
                    d = H.modular_height(changed) - H.modular_height(model)
                    check(d.const_part == 0 and not d.log_terms,
                          f"h_K moved exactly under {D}, {c}: {d}")
                    check(abs(d.real_part) <= 1e-12, "h_K moved numerically")
            return {}
        return run

    def _json(self, models):
        H = self.H

        def run():
            for model in models:
                text = json.dumps(model.to_json(), sort_keys=True)
                back = H.IntersectionModel.from_json(json.loads(text))
                for attr in ("n", "degree_KQ", "classes", "L_class",
                             "K_class", "deg_Ln", "deg_LK", "fibers",
                             "generic_degrees"):
                    check(getattr(back, attr) == getattr(model, attr),
                          f"JSON round trip changed {attr}")
                check(back.form.entries == model.form.entries,
                      "JSON round trip changed the form")
                check(json.dumps(back.to_json(), sort_keys=True) == text,
                      "JSON round trip is not a fixed point")
            return {}
        return run

    def _faltings(self, labels):
        H = self.H

        def run():
            worst = 0.0
            for label in labels:
                curve = H.curve_from_label(label)
                gap = abs(H.elliptic_faltings_height(curve, "qexp")
                          - H.elliptic_faltings_height(curve, "agm"))
                check(gap <= 1e-8, f"{label}: qexp and AGM differ by {gap}")
                worst = max(worst, gap)
            return {"diag.faltings_gap": worst}
        return run

    def _bp(self, charts):
        H = self.H

        def run():
            for weights, prime in charts:
                rep = H.brieskorn_pham_analyze(
                    H.BrieskornPhamSpec(weights, prime))
                r = weights[-1]
                residues = [w % r for w in weights[:-1]]
                want = hirzebruch_jung_multiplicity(residues, r)
                check(rep["stable"] and rep["multiplicity"] == want,
                      f"{weights}: multiplicity {rep['multiplicity']} "
                      f"!= {want}")
                # on the quadrant cone a(v) = sum(v) - 1; the quotient
                # point is residues/r and the barycenter adds the n unit
                # rays to it
                q = Fraction(sum(residues), r)
                check(rep["log_discrepancies"]
                      == {"quotient": q - 1,
                          "barycenter": q + len(residues) - 1},
                      f"{weights}: log discrepancies "
                      f"{rep['log_discrepancies']}")
            return {}
        return run

    def _bp_big(self, weights, prime, j_max, mult):
        H = self.H

        def run():
            rep = H.brieskorn_pham_analyze(H.BrieskornPhamSpec(weights, prime),
                                           j_max=j_max)
            check(rep["stable"] and rep["multiplicity"] == mult,
                  f"{weights}: multiplicity {rep['multiplicity']} != {mult}")
            return {}
        return run


# -- cli --------------------------------------------------------------------

class Cli(Workload):
    """Each README example as a fresh ``python -m heights.cli`` process.

    Expected outputs were recorded from the CLI when the benchmark was
    added (``cli_expected.json``).  Exit codes and every non-float token
    must match exactly; floats match within the tolerance of the library
    check that covers the same number.
    """

    def setup(self):
        super().setup()
        self.expected = json.loads((HERE / "cli_expected.json").read_text())
        self.tmp = self.root / ".perfbench_tmp" / "cli"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        H = self.H
        H.build_p2_blowup_family((2, 3, 5)).model.save(
            self.tmp / "my_model.json")
        bad = H.build_p1_fs().to_json()
        bad["form"]["K,L"] = {"const": "0", "logs": {"6": "1"},
                              "real": 0.0, "real_exact": True}
        (self.tmp / "bad.json").write_text(json.dumps(bad))
        (self.tmp / "gram.json").write_text(
            json.dumps([[0.5, 0.02], [0.02, 0.45]]))

    def close(self):
        shutil.rmtree(self.root / ".perfbench_tmp", ignore_errors=True)

    def jobs(self, seed, tracer):
        out = [(name, self._invocation(name, tracer), "")
               for name in sorted(self.expected)]
        out.append(("roundtrip_scan", self._roundtrip_scan(tracer), PROBE))
        return out

    def _run(self, argv, tracer, module=True):
        """One fresh interpreter; under a tracer the CLI runs inside
        clitrace.py, which ships its spans back through a file."""
        spans = self.tmp / "spans.json"
        if not module:
            cmd = [sys.executable, *argv]
        elif tracer is None:
            cmd = [sys.executable, "-m", "heights.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(spans),
                   *argv]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=self.tmp, capture_output=True,
                              text=True, timeout=120)
        t1 = perf_counter()
        if tracer is not None:
            sid = tracer.add_span("cli.process", t0, t1)
            if module:
                tracer.merge(json.loads(spans.read_text()), sid)
        return proc

    def _invocation(self, name, tracer):
        exp = self.expected[name]

        def run():
            proc = self._run(exp["argv"], tracer)
            check(proc.returncode == exp["exit"],
                  f"{name}: exit {proc.returncode}, stderr {proc.stderr!r}")
            if "error" in exp:
                check(f"{exp['error']}:" in proc.stderr,
                      f"{name}: stderr lacks {exp['error']}: {proc.stderr!r}")
                return {}
            same_output(proc.stdout, exp["stdout"], exp["tol"], name)
            if "--out" in exp["argv"]:
                self._check_out_files(exp["argv"], proc.stdout, exp["tol"])
            return {}
        return run

    def _check_out_files(self, argv, stdout, tol):
        """The CSV has a header plus one CRLF row per m, and the fit file
        repeats the printed fit."""
        out = self.tmp / argv[argv.index("--out") + 1]
        m_max = int(argv[argv.index("--m-max") + 1])
        data = out.read_bytes()
        check(data.count(b"\r\n") == m_max + 1
              and data.count(b"\n") == m_max + 1,
              f"{out.name}: not {m_max} CRLF rows plus a header")
        fit = json.loads((self.tmp / (out.name + ".fit.json")).read_text())
        same_output(" ".join([*fit, *map(repr, fit.values())]), stdout, tol,
                    out.name + ".fit.json")

    def _roundtrip_scan(self, tracer):
        """README flow: save a P^1 model to JSON, then scan it."""
        family = self.expected["scan_dequantization"]

        def run():
            save = self._run(["-c", "import heights; heights.build_p1_fs()"
                              ".save('p1.json')"], tracer, module=False)
            check(save.returncode == 0, f"saving p1.json: {save.stderr!r}")
            argv = ["scan", "--model", "p1.json"] + family["argv"][3:5]
            proc = self._run(argv, tracer)
            check(proc.returncode == 0,
                  f"scan --model p1.json: exit {proc.returncode}, "
                  f"{proc.stderr.strip()}")
            same_output(proc.stdout, family["stdout"], family["tol"],
                        "roundtrip_scan")
            return {}
        return run


def _number(tok: str):
    """The float or complex a token spells, or None for integers, fractions
    and words, which must match exactly."""
    body = tok.strip('",')
    if not any(c in body for c in ".eE"):
        return None
    for kind in (float, complex):
        try:
            return kind(body)
        except ValueError:
            pass
    return None


def same_output(got: str, want: str, tol: float, what: str):
    """Token-wise comparison: floats within tol (relative to max(1, |x|)),
    every other token exactly.  Whitespace runs are not significant, since
    table column widths follow the printed digits."""
    a, b = got.split(), want.split()
    check(len(a) == len(b), f"{what}: {len(a)} tokens, expected {len(b)}")
    for x, y in zip(a, b):
        fx, fy = _number(x), _number(y)
        if fx is not None and fy is not None:
            check(abs(fx - fy) <= tol * max(1.0, abs(fy)),
                  f"{what}: {x} vs recorded {y}")
        else:
            check(x == y, f"{what}: {x!r} vs recorded {y!r}")


class Pair(Workload):
    """Two groups of jobs run as one workload: both set-ups, then a round
    of both groups' jobs in one fixed shuffled order."""

    def __init__(self, root: Path, parts):
        super().__init__(root)
        self.parts = [part(root) for part in parts]

    def setup(self):
        for part in self.parts:
            part.setup()

    def jobs(self, seed, tracer):
        jobs = [job for part in self.parts for job in part.jobs(seed, tracer)]
        # the same order for every seed; it spreads each kind of job over
        # the round, so that the runs of the many small jobs job_p50_s
        # reads sample the machine across the whole run rather than in one
        # stretch of each round
        random.Random(0).shuffle(jobs)
        return jobs

    def close(self):
        for part in self.parts:
            part.close()


WORKLOADS = {"spectral": (SphereMetric, BalancedScan),
             "exact_cli": (ExactModels, Cli)}
