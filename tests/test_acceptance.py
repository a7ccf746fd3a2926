"""The ten package-level acceptance checks, one test per criterion.

Each test prints a single "ACCEPTANCE n: PASS/FAIL (...)" line with the
measured quantities, then asserts at the stated tolerance, so a FAIL line
always arrives together with a pytest failure naming the offender.
"""
import time

import numpy as np
import pytest

from entropic_pfr import dists
from entropic_pfr.bsg import bsg_check, endgame_tables
from entropic_pfr.cover import SetInput, pfr_pipeline
from entropic_pfr.descent import descend, diagnostics, entropic_pfr, extract_subgroup
from entropic_pfr.dists import JointDist, fwht, xor_convolve
from entropic_pfr.fibring import fibring_decompose
from entropic_pfr.fixtures import demo_pair
from entropic_pfr.randgen import (make_rng, random_coset_union, random_dist,
                                  random_joint, random_linear_map,
                                  random_subgroup)
from entropic_pfr.ruzsa import (ETA_DEFAULT, RefPair, check_cond_distance,
                                check_double_shift, check_madiman,
                                check_ruzsa_diff, check_submodularity,
                                check_sum_shift, check_sum_shift_cond,
                                check_triangle, rdist)
from oracles import diagnostics_gap, diagnostics_via_joints, endgame_informations, uvs_table

ETA = ETA_DEFAULT


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def certificate_corpus():
    """Twenty unions of at most four cosets in F_2^6, half-density or more."""
    out = []
    for seed in range(20):
        rng = make_rng(1000 + seed)
        rank = int(rng.integers(1, 4))
        cosets = int(rng.integers(1, 5))
        keep = float(rng.uniform(0.5, 1.0))
        out.append(SetInput(6, tuple(random_coset_union(rng, 6, rank,
                                                        cosets, keep))))
    return out


def test_01_fibring_identity_residuals(capsys):
    t0 = time.time()
    worst = 0.0
    for i in range(500):
        rng = make_rng(i)
        Z1, Z2 = random_dist(rng, 4), random_dist(rng, 4)
        pi = random_linear_map(rng, 4, int(rng.integers(1, 5)))
        worst = max(worst, abs(fibring_decompose(Z1, Z2, pi).residual))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(capsys, 1, ok,
           f"500 pairs, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_02_inequality_suites(capsys):
    def trial(suite, rng, n):
        if suite == "triangle":
            return check_triangle(random_dist(rng, n), random_dist(rng, n),
                                  random_dist(rng, n))
        if suite == "madiman":
            return check_madiman(random_dist(rng, n), random_dist(rng, n),
                                 random_dist(rng, n))
        if suite == "cond-distance":
            return check_cond_distance(random_joint(rng, n, 2, ["X", "Z"]),
                                       random_joint(rng, n, 2, ["Y", "W"]))
        if suite == "sum-shift":
            return check_sum_shift(random_dist(rng, n), random_dist(rng, n),
                                   random_dist(rng, n))
        if suite == "sum-shift-cond":
            return check_sum_shift_cond(random_dist(rng, n),
                                        random_dist(rng, n),
                                        random_dist(rng, n))
        if suite == "double-shift":
            return check_double_shift(random_dist(rng, n), random_dist(rng, n),
                                      random_dist(rng, n), random_dist(rng, n))
        if suite == "ruzsa-diff":
            return check_ruzsa_diff(random_dist(rng, n), random_dist(rng, n))
        if suite == "submodularity":
            return check_submodularity(random_joint(rng, n, 3,
                                                    ["A", "B", "C"]))
        return bsg_check(random_joint(rng, n, 2, ["A", "B"]))

    suites = ["triangle", "madiman", "cond-distance", "sum-shift",
              "sum-shift-cond", "double-shift", "ruzsa-diff",
              "submodularity", "bsg"]
    t0 = time.time()
    worst_by = {}
    for suite in suites:
        worst = np.inf
        for i in range(500):
            rng = make_rng(10_000 + i)
            n = int(rng.integers(2, 6))
            worst = min(worst, trial(suite, rng, n).slack)
        worst_by[suite] = worst
    elapsed = time.time() - t0
    bad = {s: w for s, w in worst_by.items() if w < -1e-9}
    ok = not bad and elapsed < 300.0
    floor = min(worst_by.values())
    report(capsys, 2, ok,
           f"9 suites x 500 trials, worst slack {floor:.2e}, {elapsed:.1f}s"
           + (f", violations {bad}" if bad else ""))


def test_03_convolution_against_brute_force(capsys, monkeypatch):
    transforms = []
    monkeypatch.setattr(dists, "fwht", lambda a: transforms.append(1) or fwht(a))
    worst, by_wht = 0.0, 0
    for i in range(200):
        rng = make_rng(i)
        n = int(rng.integers(1, 9))
        X, Y = random_dist(rng, n), random_dist(rng, n)
        p, q = X.dense(), Y.dense()
        brute = np.zeros(p.size)
        g = np.arange(p.size)
        np.add.at(brute, g[:, None] ^ g[None, :], np.outer(p, q))
        before = len(transforms)
        dev = np.abs(xor_convolve(X, Y).dense() - brute).max()
        by_wht += len(transforms) > before
        worst = max(worst, dev)
    ok = worst <= 1e-12 and by_wht > 0
    report(capsys, 3, ok, f"200 pairs, n <= 8, {by_wht} through the WHT, "
           f"max deviation {worst:.2e}")


def brute_uvs(X1, X2):
    n = X1.n
    p1, p2 = X1.dense(), X2.dense()
    g = np.arange(1 << n)
    x1 = g[:, None, None, None]
    x2 = g[None, :, None, None]
    t1 = g[None, None, :, None]
    t2 = g[None, None, None, :]
    w = (p1[x1] * p2[x2] * p1[t1] * p2[t2]).ravel()
    U, V = x1 ^ x2, t1 ^ x2
    S = x1 ^ x2 ^ t1 ^ t2
    keys = (U | (V << n) | (S << (2 * n))).ravel()
    out = np.zeros(1 << (3 * n))
    np.add.at(out, keys, w)
    return out


def test_04_endgame_tables_against_enumeration(capsys):
    # the informations, read from pairs of fibres, against those of the
    # enumerated (U, V, S) table, which also checks the table oracle
    worst_tab, worst_info, worst_sym = 0.0, 0.0, 0.0
    for i in range(50):
        rng = make_rng(200 + i)
        n = 3 if i < 25 else 4
        X1, X2 = random_dist(rng, n), random_dist(rng, n)
        t = endgame_tables(X1, X2)
        brute = brute_uvs(X1, X2)
        worst_tab = max(worst_tab, np.abs(uvs_table(X1, X2).dense() - brute).max())
        J = JointDist(n, 3, ["U", "V", "S"], dense=brute)
        want = (*endgame_informations(J), J.entropy("S"))
        got = (t.I1, t.I2, t.I3, t.H_S)
        worst_info = max(worst_info, *(abs(a - b) for a, b in zip(got, want)))
        worst_sym = max(worst_sym, abs(t.I2 - t.I3))
    ok = worst_tab <= 1e-12 and worst_info <= 1e-12 and worst_sym <= 1e-10
    report(capsys, 4, ok, f"50 pairs at n = 3, 4, max table deviation "
                          f"{worst_tab:.2e}, max information deviation {worst_info:.2e}, "
                          f"max |I2 - I3| {worst_sym:.2e}")


def test_05_trials_entropy_formula(capsys):
    worst = 0.0
    for i in range(100):
        rng = make_rng(300 + i)
        J = random_joint(rng, 3, 2, ["X", "Y"])
        tab = J.dense().reshape(8, 8)          # row y, column x
        py = tab.sum(axis=1)
        probs = []
        for y in range(8):
            if py[y] > 0:
                probs.append(np.outer(tab[y], tab[y]).ravel() / py[y])
        p = np.concatenate(probs)
        p = p[p > 0]
        explicit = -float(p @ np.log(p))
        formula = 2.0 * J.entropy() - J.entropy("Y")
        worst = max(worst, abs(formula - explicit))
    ok = worst <= 1e-10
    report(capsys, 5, ok, f"100 joints at n = 3, max gap {worst:.2e}")


def test_06_exact_coset_recovery(capsys):
    hits = 0
    worst = 0.0
    for i in range(100):
        rng = make_rng(400 + i)
        H = random_subgroup(rng, 8, int(rng.integers(1, 9)))
        shift = int(rng.integers(0, 256))
        X = SetInput(8, tuple(h ^ shift for h in H.enumerate())).uniform()
        cert = extract_subgroup(X)
        if cert.H.rows == H.rows:
            hits += 1
        worst = max(worst, cert.d1)
    ok = hits == 100 and worst <= 1e-12
    report(capsys, 6, ok, f"{hits}/100 recovered, max d[X;U_H] {worst:.2e}")


def test_07_demo_first_moves(capsys):
    details = []
    ok = True
    for which, want in ((1, "sum-self"), (2, "fibre-cross"), (3, "endgame")):
        t0 = time.time()
        X01, X02 = demo_pair(which)
        ref = RefPair(X01, X02)
        st = descend(ref, X02, X01)
        elapsed = time.time() - t0
        first = st.trace[0]["kind"]
        ok &= first == want and st.k <= 1e-4 and elapsed < 300.0
        if which == 3:
            # the four sum and fibre classes are all scored at the initial
            # state and every one loses to the endgame move
            per = st.trace[0]["per_class_tau"]
            cheap = {"sum-self", "sum-cross", "fibre-self", "fibre-cross"}
            ok &= cheap <= set(per)
            ok &= all(per[c] > per["endgame"] for c in cheap)
            margin = min(per[c] for c in cheap) - per["endgame"]
            details.append(f"demo 3: endgame by {margin:.1e}")
        else:
            details.append(f"demo {which}: {first}")
        details[-1] += f", k {st.k:.1e}, {elapsed:.1f}s"
    report(capsys, 7, ok, "; ".join(details))


def test_08_subgroup_distance_certificates(capsys):
    worst_pair, worst_side = -np.inf, -np.inf
    for A in certificate_corpus():
        U = A.uniform()
        state, cert = entropic_pfr(U, U)
        worst_pair = max(worst_pair, cert.d1 + cert.d2 - 11.0 * cert.k0)
        worst_side = max(worst_side, cert.d1 - 6.0 * cert.k0,
                         cert.d2 - 6.0 * cert.k0)
    ok = worst_pair <= 1e-6 and worst_side <= 1e-6
    report(capsys, 8, ok,
           f"20 coset unions, worst d1+d2-11k {worst_pair:.2e}, "
           f"worst single-side excess over 6k {worst_side:.2e}")


def test_09_coset_cover_certificates(capsys):
    ok = True
    worst_ratio = 0.0
    for A in certificate_corpus():
        cover, _ = pfr_pipeline(A)
        ok &= cover.certified
        ok &= cover.covers(A.points)
        ok &= cover.Hp.span_size() <= len(A)
        ok &= len(cover.translates) <= cover.size_bound() + 1e-9
        worst_ratio = max(worst_ratio,
                          len(cover.translates) / cover.size_bound())
    report(capsys, 9, ok, f"20/20 certified, worst translate count at "
                          f"{worst_ratio:.2e} of the 2K^12 budget")


def test_10_terminal_state_estimates(capsys):
    runs = []
    for which in (1, 2, 3):
        X01, X02 = demo_pair(which)
        ref = RefPair(X01, X02)
        runs.append((ref, descend(ref, X02, X01, eps_d=1e-6)))
    for A in certificate_corpus():
        U = A.uniform()
        state, _ = entropic_pfr(U, U, eps_d=1e-6)
        runs.append((state.ref, state))

    stalled = 0
    worst_i1 = -np.inf
    # every terminal state's diagnostics against the pushforward oracle
    worst_gap = 0.0
    ok = True
    for ref, st in runs:
        diag = diagnostics(ref, st.X1, st.X2)
        worst_gap = max(worst_gap, diagnostics_gap(
            diag, diagnostics_via_joints(ref, st.X1, st.X2)))
        if st.k > 1e-6:
            stalled += 1
            ok &= not st.converged
            ok &= "bounds" in diag
        else:
            ok &= st.converged
            I1 = endgame_tables(st.X1, st.X2).I1
            worst_i1 = max(worst_i1, I1 - 2.0 * ETA * st.k)
            ok &= I1 <= 2.0 * ETA * st.k + 1e-6

    # force one stalled run to confirm the dump machinery itself
    X01, X02 = demo_pair(1)
    ref = RefPair(X01, X02)
    st = descend(ref, X02, X01, eps_d=1e-6, max_iter=1)
    forced = diagnostics(ref, st.X1, st.X2)
    worst_gap = max(worst_gap, diagnostics_gap(
        forced, diagnostics_via_joints(ref, st.X1, st.X2)))
    ok &= not st.converged and st.k > 1e-6 and "bounds" in forced
    ok &= worst_gap <= 1e-12
    report(capsys, 10, ok,
           f"{len(runs)} runs, {stalled} non-converged (each dumped), "
           f"worst I1 - 2*eta*k {worst_i1:.2e}, forced stall dumped, "
           f"diagnostics within {worst_gap:.2e} of the pushforward oracle")
