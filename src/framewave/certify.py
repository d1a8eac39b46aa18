"""Exact-identity certification suite.

Each check measures a residual (or a best constant) on a seeded family of
exact fields and sample points and compares against a fixed tolerance.
The suite is the machine-precision backbone behind the grid experiments:
if these pass, the algebra wired into the energy and commutator
evaluators is the algebra the estimates are about.  The checks are
independent, so the suite spreads them over every usable core
(``_fork_map``); each check draws from its own seed, so the results do
not depend on which process ran it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import energy, estimates, vecfields, weights
from .errors import FramewaveError, WorkerLost
from .fields import PolyField
from .geometry import frame_arrays
from .poly import random_poly
from .vecfields import GENERATORS, SCALING


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""

    def to_json(self):
        return {"name": self.name, "value": self.value,
                "tolerance": self.tolerance, "passed": bool(self.passed),
                "detail": self.detail}


def sample_points(rng, n, tmin=-2.0, tmax=2.0, box=3.0, rmin=0.5, chart_z=False):
    """n random spacetime points with r >= rmin, optionally inside the
    x3-axis chart region |x3| <= 0.8 r; rejected draws are skipped."""
    pts = np.empty((n, 4))
    k = 0
    while k < n:
        cand = np.empty(4)
        cand[0] = rng.uniform(tmin, tmax)
        cand[1:] = rng.uniform(-box, box, size=3)
        r = np.linalg.norm(cand[1:])
        if r >= rmin and not (chart_z and abs(cand[3]) > 0.8 * r):
            pts[k] = cand
            k += 1
    return pts


def _fork_map(fn, items):
    """``[fn(item) for item in items]``, spread over every usable core.

    This process and ``min(len(items), cores) - 1`` workers started with
    fork each claim the next unclaimed item until none is left; the
    results come back in item order.  An exception raised in a worker is
    raised here with its own type and message, and a worker that ends
    without sending its results raises ``WorkerLost``.  Every worker is
    joined before this returns, and terminated first on error.  With
    fewer than two items or one usable core it is a plain loop here.
    Workers are forked so that they start with this process's imports,
    caches and inputs: only the results and errors are pickled.
    """
    n_workers = min(len(items), len(os.sched_getaffinity(0))) - 1
    if n_workers < 1:
        return [fn(item) for item in items]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    claimed = ctx.Value("q", 0)

    def claim():
        with claimed.get_lock():
            k = claimed.value
            claimed.value = k + 1
        return k

    def work(conn):
        done = {}
        try:
            while (k := claim()) < len(items):
                done[k] = fn(items[k])
        except Exception as exc:
            try:
                conn.send(("error", exc))
            except Exception:   # pickling failed, so nothing was written
                conn.send(("error", FramewaveError(f"{type(exc).__name__}: {exc}")))
        else:
            conn.send(("done", done))

    results, procs, readers = {}, [], []
    try:
        for _ in range(n_workers):
            # each pipe is made just before its worker, and this process
            # closes the sending end at once, so a worker that dies is
            # the only holder and its end reads as EOF
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            procs.append(ctx.Process(target=work, args=(writer,), daemon=True))
            procs[-1].start()
            writer.close()
        while (k := claim()) < len(items):
            results[k] = fn(items[k])
        for conn in readers:
            try:
                status, payload = conn.recv()
            except EOFError:
                raise WorkerLost("a worker process ended without sending "
                                 "its results") from None
            if status == "error":
                raise payload
            results.update(payload)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in readers:
            conn.close()
    return [results[k] for k in range(len(items))]


def _random_H(rng, degree=2, scale=1):
    H = PolyField.random(rng, rank=2, channels=1, degree=degree, nterms=3,
                         variance=("u", "u"), symmetric=True)
    return H if scale == 1 else H.scale(scale)


def check_weight_lemmas(n_q=10_000, seed=7):
    """Branch arithmetic of the three weights: derivative-ratio window and
    the w <= wtilde <= 2w envelope, exact up to roundoff."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-20, 20, size=n_q)
    q = q[q != 0.0]
    worst = 0.0
    for gamma in (0.25, 0.5, 1.0):
        for mu in (-0.1, -0.25, -1.0):
            p = weights.WeightParams(gamma=gamma, mu=mu)
            ratio = weights.w_hat_prime(q, p) * (1 + np.abs(q)) / weights.w_hat(q, p)
            lo = min(1 + 2 * gamma, -2 * mu)
            hi = max(1 + 2 * gamma, -2 * mu)
            worst = max(worst, float(np.max(np.maximum(lo - ratio, ratio - hi))))
            wv = weights.w(q, p)
            wt = weights.w_tilde(q, p)
            worst = max(worst, float(np.max(wv - wt)), float(np.max(wt - 2 * wv)))
            wp = weights.w_tilde_prime(q, p)
            hp = weights.w_hat_prime(q, p)
            branch = np.where(q > 0, 2.0, 1.0)
            worst = max(worst, float(np.max(np.abs(wp - branch * hp) / np.abs(hp))))
    return CheckResult("weight_lemmas", worst, 1e-12, worst <= 1e-12)


def check_gradient_decomposition(seed=11, n_fields=20, n_pts=100):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        psi = PolyField.random(rng, rank=0, channels=2, degree=3, nterms=5)
        pts = sample_points(rng, n_pts)
        r1, r2 = energy.gradient_decomposition_residuals(psi, pts)
        grad = psi.gradient().eval(pts)
        scale = np.maximum(np.sum(grad ** 2, axis=(1, 2)), 1.0)
        worst = max(worst, float(np.max(r1 / scale)), float(np.max(r2 / scale)))
    return CheckResult("gradient_decomposition", worst, 1e-12, worst <= 1e-12)


def check_nullframe_rewriting(seed=13, n_inputs=100, n_pts=25):
    """Coordinate vs null-frame forms of the T_tt + T_rt density, plus the
    cross-check against the assembled stress components."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_inputs):
        H = _random_H(rng)
        psi = PolyField.random(rng, rank=0, channels=1, degree=2, nterms=4)
        pts = sample_points(rng, n_pts)
        bundle = energy.eval_point_bundle(H, psi, pts)
        a = energy.ttr_coordinate(bundle)
        b = energy.ttr_nullframe(bundle)
        c = energy.ttr_from_stress(H, psi, pts)
        scale = max(1.0, float(np.max(np.abs(a))))
        worst = max(worst, float(np.max(np.abs(a - b))) / scale,
                    float(np.max(np.abs(a - c))) / scale)
    return CheckResult("nullframe_rewriting", worst, 1e-12, worst <= 1e-12)


def check_divergence_identity(seed=17, n_fields=10, n_pts=25):
    """The (div T)_nu display, the exact wave-operator pairing plus the
    h_div kernel the budget integrates, against the direct divergence
    sum_mu d_mu T^mu_nu at sample points, for all four nu, relative to
    max(1, max |direct|) of each field."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        H = _random_H(rng, degree=1)
        psi = PolyField.random(rng, rank=0, channels=1, degree=2, nterms=4)
        pts = sample_points(rng, n_pts)
        got = energy.divergence_display(H, psi, pts)
        want = np.stack([energy.divergence_direct(H, psi, nu).eval_many(pts) for nu in range(4)])
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return CheckResult("divergence_identity", worst, 1e-12, worst <= 1e-12,
                       detail=f"{n_fields * n_pts} sample points x 4 nu")


def check_commutator_identity(seed=19, n_pairs=50, max_order=3, n_pts=20):
    """The exact commutator expansion on seeded (H, phi) pairs.

    For each pair a mixed random multi-index of every length up to
    max_order (scaling generator included with its own draw) is checked at
    sampled points with r > 0.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(n_pairs):
        H = _random_H(rng)
        phi = PolyField.random(rng, rank=0, channels=1, degree=3, nterms=4)
        pts = sample_points(rng, n_pts)
        for order in range(1, max_order + 1):
            gens = tuple(GENERATORS[i] for i in rng.integers(0, 11, size=order))
            if order >= 2 and SCALING not in gens:
                gens = gens[:-1] + (SCALING,)
            worst = max(worst, estimates.identity_residual(H, phi, gens, pts))
            checked += 1
    return CheckResult("commutator_identity", worst, 1e-10, worst <= 1e-10,
                       detail=f"{checked} multi-indices")


def check_slash_representations(seed=23, n_pts=1000):
    """Both generator representations of the restricted derivatives
    against the direct formula, on every sample point through the
    vecfields API, and the vanishing outgoing derivative of x^j / r."""
    rng = np.random.default_rng(seed)
    pts = sample_points(rng, n_pts, rmin=0.4)
    pts[:, 0][np.abs(pts[:, 0]) < 0.2] += 0.5  # keep t away from 0
    worst = float(estimates.lbar_radial_residual(pts))
    F = random_poly(rng, degree=3, nterms=5)
    for i in (1, 2, 3):
        rot, boost = vecfields.restricted_derivative_as_Z(i, pts)
        direct = vecfields.restricted_derivative_direct(i, F, pts)
        v1 = vecfields.apply_representation(rot, F, pts)
        v2 = vecfields.apply_representation(boost, F, pts)
        scale = np.maximum(1.0, np.abs(direct))
        worst = max(worst,
                    float(np.max(np.abs(v1 - direct) / scale)),
                    float(np.max(np.abs(v2 - direct) / scale)),
                    float(np.max(np.abs(v1 - v2) / scale)))
    return CheckResult("slash_as_generators", worst, 1e-10, worst <= 1e-10,
                       detail=f"{n_pts} sample points")


def check_eA_expansions(seed=29, n_pts=200):
    """Both generator representations of e1, e2 against d_{e_A} f, on one
    frame_arrays batch of every sample point."""
    rng = np.random.default_rng(seed)
    pts = sample_points(rng, n_pts, rmin=0.4)
    pts[:, 0][np.abs(pts[:, 0]) < 0.2] += 0.5
    F = random_poly(rng, degree=3, nterms=5)
    gradF = [F.diff(mu).eval_many(pts) for mu in range(4)]
    fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3])
    rot = estimates.eA_rotation_representation(pts, fr)
    boost = estimates.eA_boost_representation(pts, fr)
    worst = 0.0
    for a, name in enumerate(("e1", "e2")):
        direct = sum(fr[name][mu] * gradF[mu] for mu in range(4))
        v1 = vecfields.apply_representation(rot[a], F, pts)
        v2 = vecfields.apply_representation(boost[a], F, pts)
        scale = np.maximum(1.0, np.abs(direct))
        worst = max(worst, float(np.max(np.abs(v1 - direct) / scale)),
                    float(np.max(np.abs(v2 - direct) / scale)))
    return CheckResult("eA_as_generators", worst, 1e-10, worst <= 1e-10)


def check_jacobi():
    worst = float(vecfields.jacobi_residual())
    return CheckResult("jacobi_identity", worst, 0.0, worst == 0.0,
                       detail="165 unordered triples, exact structure constants")


def check_decay_inequalities(seed=31, n_fields=6, n_pts=400):
    """Measured constants in the flat decay inequalities on the declared
    family: random polynomial fields sampled in {t in [1, 4], |x| <= 4}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(n_fields):
        rank = int(rng.integers(0, 2))
        phi = PolyField.random(rng, rank=rank, channels=1, degree=3, nterms=4)
        pts = sample_points(rng, n_pts, tmin=1.0, tmax=4.0, box=4.0, rmin=0.3)
        for I in ((), (GENERATORS[int(rng.integers(0, 11))],)):
            c_full, c_tang = vecfields.measure_decay_constants(phi, I, pts)
            worst = max(worst, c_full, c_tang)
    return CheckResult("decay_inequalities", worst, 10.0, worst <= 10.0)


def run_suite(seed=1234, fast=False):
    """Run every certification check; returns a list of CheckResult in
    the order below.  The checks run on every usable core, heaviest
    first, so this process starts on the commutator identity while a
    worker takes the null-frame rewriting, then the rest."""
    pairs = 10 if fast else 50
    checks = [
        partial(check_weight_lemmas, seed=seed),
        partial(check_gradient_decomposition, seed=seed + 1),
        partial(check_nullframe_rewriting, seed=seed + 2, n_inputs=20 if fast else 100),
        partial(check_divergence_identity, seed=seed + 3, n_fields=4 if fast else 10),
        partial(check_commutator_identity, seed=seed + 4, n_pairs=pairs,
                max_order=2 if fast else 3),
        partial(check_slash_representations, seed=seed + 5, n_pts=200 if fast else 1000),
        partial(check_eA_expansions, seed=seed + 6, n_pts=50 if fast else 200),
        check_jacobi,
        partial(check_decay_inequalities, seed=seed + 7, n_fields=3 if fast else 6),
    ]
    heaviest_first = (4, 2, 8, 7, 3, 1, 0, 5, 6)
    done = dict(zip(heaviest_first, _fork_map(lambda k: checks[k](), heaviest_first)))
    return [done[k] for k in range(len(checks))]
