"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import itertools
import math
import time

import numpy as np

from pairstats.analysis import characterize, contamination_map
from pairstats.loop_detector import (
    PathWeights,
    apply_response,
    response_matrix,
    uniform_weights,
)
from pairstats.model import (
    EffectiveSource,
    JointDistribution,
    joint_distribution,
    perturbative_contamination_fraction,
    suggest_n_max,
)
from pairstats.pipeline import (
    ExperimentConfig,
    _block_rng,
    _sample_pulses,
    bootstrap_characterize,
    run_full,
)
from pairstats.reconstruction import ClickHistogram, em_reconstruct

from oracles import joint_distribution_oracle


def _estimate(rho, name):
    """``characterize(rho).<name>``, which must have status ok."""
    char = characterize(rho)
    assert char.status[name] == "ok", char.status
    return getattr(char, name)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for M in (1.0, 2.0, 4.0):
        for N in (0.1, 1.0, 3.0):
            for eta in (0.3, 0.7, 1.0):
                for etap in (0.3, 0.7, 1.0):
                    src = EffectiveSource(N=N, eta=eta, eta_prime=etap, M=M)
                    a = joint_distribution(src, 12).probs
                    b = joint_distribution_oracle(src, 12).probs
                    worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"max |analytic - oracle| = {worst:.2e} over 81 cases in {elapsed:.1f}s")


def test_criterion_2_lossless_diagonal_law():
    worst = 0.0
    for N in (0.1, 1.0, 3.0):
        src = EffectiveSource(N=N, eta=1.0, eta_prime=1.0, M=1.0)
        probs = joint_distribution(src, 12).probs
        n = np.arange(13)
        expect = np.zeros((13, 13))
        expect[n, n] = N**n / (N + 1.0) ** (n + 1)
        worst = max(worst, float(np.abs(probs - expect).max()))
    _report(2, worst <= 1e-12, f"max deviation from geometric diagonal = {worst:.2e}")


def test_criterion_3_delta_squared_identities():
    worst = 0.0
    for M in (1.0, 2.0, 4.0):
        for N in (0.1, 1.0, 3.0):
            for eta in (0.3, 0.7, 1.0):
                for etap in (0.3, 0.7, 1.0):
                    src = EffectiveSource(N=N, eta=eta, eta_prime=etap, M=M)
                    rho = joint_distribution(src, suggest_n_max(src, 1e-15))
                    expect = 1.0 - 2.0 / (1.0 / eta + 1.0 / etap)
                    worst = max(worst, abs(1.0 - _estimate(rho, "eta_hat") - expect))
    # equal-loss special case 1 - eta
    src = EffectiveSource(N=0.5, eta=0.6, eta_prime=0.6, M=2.0)
    rho = joint_distribution(src, suggest_n_max(src, 1e-15))
    worst_eq = abs(1.0 - _estimate(rho, "eta_hat") - (1.0 - 0.6))

    # Monte Carlo cross-check at 1e6 pulses, batched for the error bar
    src = EffectiveSource(N=1.0, eta=0.7, eta_prime=0.3, M=2.0)
    exact = 1.0 - 2.0 / (1.0 / 0.7 + 1.0 / 0.3)
    batches = []
    for b in range(20):
        rng = _block_rng(314159, 3, b)
        # the pulses the sampler leaves out are empty: pad them back as zeros
        n, m = (np.pad(x, (0, 50_000 - x.size)) for x in _sample_pulses(src, rng, 50_000))
        mn, mm = n.mean(), m.mean()
        num = (
            n.var() / mn**2 + m.var() / mm**2
            - 2.0 * ((n * m).mean() - mn * mm) / (mn * mm)
        )
        batches.append(num / (1.0 / mn + 1.0 / mm))
    batches = np.asarray(batches)
    mc = batches.mean()
    sem = batches.std(ddof=1) / math.sqrt(len(batches))
    mc_ok = abs(mc - exact) <= 5.0 * sem
    ok = worst <= 1e-9 and worst_eq <= 1e-9 and mc_ok
    _report(
        3,
        ok,
        f"max |delta^2 - identity| = {worst:.2e}; equal-loss dev = {worst_eq:.2e};"
        f" MC dev = {abs(mc - exact):.2e} vs 5 sigma = {5 * sem:.2e}",
    )


def test_criterion_4_mode_number():
    worst = 0.0
    spread = 0.0
    for M in (1.0, 2.0, 4.0, 16.6):
        values = []
        for N in (0.01, 0.1, 1.0):
            src = EffectiveSource(N=N, eta=0.7, eta_prime=0.7, M=M)
            rho = joint_distribution(src, suggest_n_max(src, 1e-16))
            values.append(_estimate(rho, "M_hat"))
        worst = max(worst, max(abs(v - M) for v in values))
        spread = max(spread, max(values) - min(values))
    ok = worst <= 1e-9 and spread <= 2e-9
    _report(4, ok, f"max |M_hat - M| = {worst:.2e}; max spread over N = {spread:.2e}")


def test_criterion_5_loop_detector_matrix():
    rng = np.random.default_rng(20)
    raw = rng.random(8)
    cases = {"uniform": np.full(8, 0.125), "random": raw / raw.sum()}
    worst = 0.0
    for w in cases.values():
        resp = response_matrix(PathWeights(w), 6)
        reference = np.zeros((9, 7))
        for n in range(7):
            for assign in itertools.product(range(8), repeat=n):
                prob = 1.0
                for path in assign:
                    prob *= w[path]
                reference[len(set(assign)), n] += prob
        worst = max(worst, float(np.abs(resp.P - reference).max()))
    uni = response_matrix(uniform_weights(8), 2)
    exact = abs(uni.P[1, 1] - 1.0) <= 1e-12 and abs(uni.P[2, 2] - 7.0 / 8.0) <= 1e-12
    ok = worst <= 1e-12 and exact
    _report(
        5,
        ok,
        f"max |P - enumeration| = {worst:.2e} (n <= 6, uniform & random weights);"
        f" P11 = {uni.P[1, 1]}, P22 = {uni.P[2, 2]}",
    )


def test_criterion_6_em_properties():
    resp = response_matrix(uniform_weights(8), 3)

    # monotone log-likelihood on 20 random finite-sample instances
    rng = np.random.default_rng(606)
    worst_dip = 0.0
    for _ in range(20):
        raw = rng.random((4, 4))
        truth = JointDistribution(raw / raw.sum(), 3, 0.0)
        p = apply_response(truth, resp, resp).p
        f = rng.multinomial(100_000, p.ravel() / p.sum()).reshape(9, 9)
        result = em_reconstruct(
            ClickHistogram(f, 100_000), resp, resp, 3, tol=0.0, max_iter=300
        )
        worst_dip = max(worst_dip, -float(np.diff(result.log_likelihood_trace).min()))
    mono_ok = worst_dip <= 1e-10

    # noiseless inversion: counts exactly proportional to the model clicks
    rho_star = (
        np.array([[10, 6, 2, 1], [6, 8, 3, 1], [2, 3, 6, 2], [1, 1, 2, 10]], float)
        / 64.0
    )
    p = apply_response(JointDistribution(rho_star, 3, 0.0), resp, resp).p
    f = np.rint(p * 4194304 * 64).astype(np.int64)
    hist = ClickHistogram(f, int(f.sum()))
    recovered = em_reconstruct(hist, resp, resp, 3, tol=0.0, max_iter=10_000)
    tv = 0.5 * float(np.abs(recovered.rho.probs - rho_star).sum())

    # fixed-point invariance under one update from the exact solution
    one_step = em_reconstruct(
        hist, resp, resp, 3, tol=0.0, max_iter=1,
        init=JointDistribution(rho_star, 3, 0.0),
    )
    drift = float(np.abs(one_step.rho.probs - rho_star).max())

    ok = mono_ok and tv <= 1e-6 and drift <= 1e-12
    _report(
        6,
        ok,
        f"worst LL dip = {worst_dip:.2e} (20 instances); noiseless TV = {tv:.2e};"
        f" fixed-point drift = {drift:.2e}",
    )


def test_criterion_7_contamination():
    worst = 0.0
    for N in (0.5, 1.0, 2.0):
        src = EffectiveSource(N=N, eta=1.0, eta_prime=1.0, M=1.0)
        rho = joint_distribution(src, suggest_n_max(src, 1e-13))
        eps2_expect = N / (N + 1.0)
        eps4_expect = 1.0 - (N**2 / (N + 1.0) ** 3) / (N / (N + 1.0)) ** 2
        worst = max(
            worst,
            abs(_estimate(rho, "eps2") - eps2_expect),
            abs(_estimate(rho, "eps4") - eps4_expect),
        )

    etas = [0.3, 0.5, 0.8, 1.0]
    surfaces_ok = True
    for which, rates in ((2, [1e-5, 1e-4, 1e-3]), (4, [1e-8, 1e-7, 1e-6])):
        eps = contamination_map(etas, rates, M=1.0, which=which)
        surfaces_ok &= bool(np.all(np.isfinite(eps)))
        surfaces_ok &= bool(np.all(np.diff(eps, axis=0) <= 1e-12))  # decreasing in eta
        surfaces_ok &= bool(np.all(np.diff(eps, axis=1) >= -1e-12))  # increasing in rate
    ok = worst <= 1e-9 and surfaces_ok
    _report(
        7,
        ok,
        f"max closed-case deviation = {worst:.2e}; contour surfaces monotone = {surfaces_ok}",
    )


def test_criterion_8_perturbative_fraction():
    worst_rel = 0.0
    for eta in (0.3, 0.5, 0.9):
        src = EffectiveSource(N=1e-4, eta=eta, eta_prime=eta, M=1.0)
        got = perturbative_contamination_fraction(src)
        expect = 2.0 * (1.0 - eta) ** 2 * 1e-4
        worst_rel = max(worst_rel, abs(got - expect) / expect)
    _report(8, worst_rel <= 0.01, f"max relative deviation = {worst_rel:.2e}")


def test_criterion_9_end_to_end_closure():
    start = time.perf_counter()
    M_true, eta_true = 16.0, 0.045
    N_true = 0.15 / (M_true * eta_true)  # arm means 0.15, the measured regime
    cfg = ExperimentConfig(
        source=EffectiveSource(N=N_true, eta=eta_true, eta_prime=eta_true, M=M_true),
        pulses=10_000_000,
        seed=7,
        calibration_pulses=4_000_000,
        calibration_N=0.006,
        n_max=8,
        em_tol=1e-12,
        em_max_iter=200_000,
    )
    report = run_full(cfg)
    char = report.characterization
    m_err = abs(char.M_hat / M_true - 1.0)
    eta_err = abs(char.eta_hat / eta_true - 1.0)

    boot = bootstrap_characterize(
        report.histogram,
        report.response_a,
        report.response_b,
        cfg.n_max,
        replicas=10,
        seed=cfg.seed,
        tol=1e-12,
    )
    m_sigma = float(np.nanstd(boot["M_hat"], ddof=1))
    eta_sigma = float(np.nanstd(boot["eta_hat"], ddof=1))

    # double-pair contamination at the fitted no-filter parameters
    src6 = EffectiveSource(N=0.15 / (16.0 * 0.049), eta=0.049, eta_prime=0.049, M=16.0)
    rho6 = joint_distribution(src6, suggest_n_max(src6, 1e-12))
    eps4 = _estimate(rho6, "eps4")

    elapsed = time.perf_counter() - start
    ok = (
        not report.failures
        and m_err <= 0.10
        and eta_err <= 0.15
        and abs(eps4 - 0.5) <= 0.1
        and elapsed < 300.0
    )
    _report(
        9,
        ok,
        f"M_hat = {char.M_hat:.2f} ({m_err:.1%} off, bootstrap sigma {m_sigma:.2f});"
        f" eta_hat = {char.eta_hat:.4f} ({eta_err:.1%} off, sigma {eta_sigma:.4f});"
        f" eps4 = {eps4:.3f} vs 0.5; {elapsed:.0f}s",
    )
