"""Set covers: doubling, shifts, greedy covering, and the full pipeline."""
import dataclasses
import math

import numpy as np
import pytest

import entropic_pfr.cover as cover_mod
import entropic_pfr.descent as descent_mod
from entropic_pfr.cover import (CosetCover, SetInput, best_shift,
                                doubling_constant, load_set, pfr_pipeline,
                                ruzsa_cover, save_set)
from entropic_pfr.descent import DescentState, extract_subgroup
from entropic_pfr.dists import (CostGuardExceeded, fwht, uniform_on,
                                uniform_on_subgroup)
from entropic_pfr.groups import span
from entropic_pfr.randgen import make_rng, random_coset_union, random_subgroup
from entropic_pfr.ruzsa import RefPair, rdist
from oracles import diagnostics_gap, diagnostics_via_joints
from test_descent import random_embedding, tau_path


def brute_overlap(A, H, x0):
    return sum(1 for a in A.points if H.contains(a ^ x0))


def random_set(rng, n, size):
    return SetInput(n, tuple(rng.choice(1 << n, size=size, replace=False)
                             .tolist()))


def sumset_oracle(pts):
    """The distinct sums a ^ b, ascending, by enumerating every pair."""
    a = np.asarray(pts, dtype=np.int64)
    return np.unique(np.concatenate([np.unique(a[i:i + 512, None] ^ a)
                                     for i in range(0, len(a), 512)]))


def greedy_cover_oracle(A, core):
    """Scan A in order; keep a point whose core-translate meets no kept one."""
    core = sorted(set(core))
    used: set = set()
    T = []
    for a in A.points:
        shifted = [a ^ c for c in core]
        if used.isdisjoint(shifted):
            T.append(a)
            used.update(shifted)
    return T


def test_set_input_normalizes_and_validates():
    A = SetInput(4, (7, 3, 3, 7, 1))
    assert A.points == (1, 3, 7)
    assert len(A) == 3
    assert np.allclose(A.uniform().dense(), uniform_on([1, 3, 7], 4).dense())
    with pytest.raises(ValueError):
        SetInput(4, ())
    with pytest.raises(ValueError):
        SetInput(4, (16,))
    with pytest.raises(ValueError):
        SetInput(4, (-1,))


def test_doubling_constant_matches_brute():
    rng = make_rng(3)
    for _ in range(20):
        A = random_set(rng, 5, int(rng.integers(1, 20)))
        sums = {a ^ b for a in A.points for b in A.points}
        assert doubling_constant(A) == len(sums) / len(A)
    H = span([1, 2, 4], 5)
    assert doubling_constant(SetInput(5, tuple(H.enumerate()))) == 1.0


def test_sumset_on_both_sides_of_the_size_rule(monkeypatch):
    # the transform pair runs exactly when W's table is smaller than the
    # pair array; both sides give the enumerated sums, in ascending order
    calls = []
    monkeypatch.setattr(cover_mod, "fwht", lambda a: calls.append(1) or fwht(a))
    rng = make_rng(17)
    sets = [random_set(rng, n, size) for n, size in
            [(1, 1), (4, 3), (8, 10), (8, 200), (10, 40), (10, 600),
             (12, 900), (16, 30)]]
    sets += [SetInput(n, tuple(random_coset_union(rng, n, rank, c, keep)))
             for n, rank, c, keep in [(12, 6, 3, 1.0), (14, 9, 2, 0.5),
                                      (16, 2, 4, 1.0)]]
    sides = []
    for A in sets:
        pts = np.asarray(A.points, dtype=np.int64)
        W = span((pts ^ pts[0]).tolist(), A.n)
        calls.clear()
        assert np.array_equal(cover_mod._sumset(pts, W), sumset_oracle(pts))
        assert bool(calls) == ((1 << W.rank) < len(A) ** 2)
        assert doubling_constant(A) == len(sumset_oracle(pts)) / len(A)
        sides.append((bool(calls), W.rank))
    assert {side for side, _ in sides} == {True, False}
    assert any(side and rank >= 9 for side, rank in sides)


def test_best_shift_matches_brute():
    rng = make_rng(14)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        A = random_set(rng, n, int(rng.integers(1, 1 << (n - 1))))
        H = random_subgroup(rng, n, int(rng.integers(1, n)))
        x0, overlap = best_shift(A, H)
        # exhaustive scan with the same tie rule: best count, then the
        # smallest canonical representative among the maximizers
        counts = {H.reduce(a) for a in A.points}
        table = {r: brute_overlap(A, H, r) for r in counts}
        want = max(table.values())
        want_rep = min(r for r, c in table.items() if c == want)
        assert overlap == want == brute_overlap(A, H, x0)
        assert x0 == want_rep == H.reduce(x0)


def test_ruzsa_cover_properties():
    rng = make_rng(6)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        A = random_set(rng, n, int(rng.integers(2, 1 << (n - 1))))
        H = random_subgroup(rng, n, int(rng.integers(1, n)))
        x0, _ = best_shift(A, H)
        core = sorted(set(A.points) & {h ^ x0 for h in H.enumerate()})
        T = ruzsa_cover(A, core)
        assert set(T) <= set(A.points)
        # translates of the core are pairwise disjoint across T
        used: set = set()
        for t in T:
            shifted = {t ^ c for c in core}
            assert used.isdisjoint(shifted)
            used |= shifted
        # hence |T| is at most |A + core| / |core|
        plus = {a ^ c for a in A.points for c in core}
        assert len(T) <= len(plus) / len(core)
        # maximality: every point of A lands in some t + core + core
        cc = {c1 ^ c2 for c1 in core for c2 in core}
        assert all(any(a ^ t in cc for t in T) for a in A.points)
    with pytest.raises(ValueError):
        ruzsa_cover(SetInput(3, (1, 2)), [])


def test_ruzsa_cover_equals_the_greedy_scan():
    # cores of 1-8 random points, whole cosets of a random subgroup, and A's
    # points in one coset of it, as the pipeline takes them
    rng = make_rng(18)
    for case in range(60):
        n = int(rng.integers(3, 17))
        if case % 2:
            A = random_set(rng, n, int(rng.integers(1, min(1 << n, 500) + 1)))
        else:
            rank = int(rng.integers(0, min(n - 2, 8) + 1))
            A = SetInput(n, tuple(random_coset_union(
                rng, n, rank, int(rng.integers(1, 4)), float(rng.uniform(0.3, 1)))))
        H = random_subgroup(rng, n, int(rng.integers(0, min(n, 6) + 1)))
        x0 = int(rng.choice(A.points))
        cores = [rng.choice(1 << n, size=int(rng.integers(1, min(1 << n, 8) + 1)),
                            replace=False).tolist(),
                 (H.enumerate_array() ^ x0).tolist(),
                 [a for a in A.points if H.contains(a ^ x0)]]
        for core in cores:
            assert ruzsa_cover(A, core) == greedy_cover_oracle(A, core)


def test_pipeline_on_a_large_union_matches_the_oracles():
    A = SetInput(16, tuple(random_coset_union(make_rng(1), 16, 10, 4)))
    cover, report = pfr_pipeline(A)
    assert report["K"] == len(sumset_oracle(A.points)) / len(A)
    H = report["certificate"].H
    assert report["cover_source"] == "terminal"
    T = greedy_cover_oracle(A, [a for a in A.points
                                if H.reduce(a) == report["shift"]])
    quot = np.unique(cover.Hp.reduce(H.enumerate_array()))
    assert report["raw_translates"] == len(T)
    assert cover.translates == tuple(np.unique(np.asarray(T)[:, None] ^ quot).tolist())
    assert cover.certified


def test_pipeline_refuses_a_distance_above_log_k(monkeypatch):
    # d[U_A;U_A] <= log K always holds, so a certificate past it is a fault
    A = SetInput(6, tuple(random_coset_union(make_rng(21), 6, 2, 3, 1.0)))
    log_K = math.log(doubling_constant(A))
    real = cover_mod.entropic_pfr

    def inflated(X01, X02, **kw):
        state, cert = real(X01, X02, **kw)
        return state, dataclasses.replace(cert, k0=log_K + 1e-6)

    monkeypatch.setattr(cover_mod, "entropic_pfr", inflated)
    with pytest.raises(ArithmeticError, match=r"d\[U_A;U_A\] = .* exceeds log K"):
        pfr_pipeline(A)


def test_pipeline_on_coset_is_trivial():
    H = span([3, 12], 6)
    A = SetInput(6, tuple(h ^ 33 for h in H.enumerate()))
    cover, report = pfr_pipeline(A)
    assert cover.certified
    assert cover.K == 1.0
    assert len(cover.translates) == 1
    assert cover.covers(A.points)
    assert cover.Hp.rank == 2
    assert report["cover_source"] == "terminal"
    assert report["translate_count"] == 1
    assert report["d_AA"] == pytest.approx(0.0, abs=1e-12)
    assert report["cover_exponent"] == 0.0


def test_cover_exponent_on_a_coset_without_a_subgroup(monkeypatch):
    # K = 1: no exponent allows 4 translates, since 2 K^c = 2 for every c
    A = SetInput(6, tuple(h ^ 33 for h in span([3, 12], 6).enumerate()))
    point = uniform_on([0], 6)

    def stalled(X01, X02, **kw):
        st = DescentState(RefPair(X01, X02), point, point, 0.0, 0.0)
        st.stop_reason = "iteration limit"
        return st, extract_subgroup(point)

    monkeypatch.setattr(cover_mod, "entropic_pfr", stalled)
    cover, report = pfr_pipeline(A)
    assert report["K"] == 1.0 and len(cover.translates) == 4
    assert not cover.certified
    assert report["cover_exponent"] == math.inf


def test_random_coset_union_is_reproducible():
    # points drawn with these seeds by the scalar coset loop it replaced
    assert random_coset_union(make_rng(5), 6, 2, 3, 0.5) == [
        1, 6, 25, 30, 42, 43, 50, 51]
    assert random_coset_union(make_rng(11), 5, 2, 3) == [
        10, 11, 14, 15, 18, 19, 22, 23, 24, 25, 28, 29]
    # four cosets of a rank-2 subgroup of F_2^4: the whole quotient, so
    # most draws land in a class already taken and are redrawn
    pts = random_coset_union(make_rng(2), 4, 2, 4, 0.5)
    assert pts == [4, 6, 8, 9, 10, 12, 14, 15]
    assert all(type(p) is int for p in pts)
    pts = random_coset_union(make_rng(13), 10, 3, 5, 0.5)
    assert (len(pts), sum(pts), pts[:5]) == (17, 9213, [71, 99, 117, 167, 171])


def test_pipeline_report_contents():
    rng = make_rng(21)
    pts = random_coset_union(rng, 6, 2, 3, 1.0)
    A = SetInput(6, tuple(pts))
    cover, report = pfr_pipeline(A)
    for key in ("K", "d_AA", "log_K", "descent", "certificate",
                "cover_source", "d_UA_UH", "shift", "overlap", "core_size",
                "raw_translates", "span_size", "final_subgroup_size",
                "translate_count", "size_bound", "cover_exponent"):
        assert key in report, key
    assert report["d_AA"] <= report["log_K"] + 1e-10
    assert report["size_bound"] == pytest.approx(2.0 * report["K"] ** 12.0)
    assert cover.covers(A.points)
    assert cover.Hp.span_size() <= len(A)
    if cover.certified:
        assert len(cover.translates) <= cover.size_bound() + 1e-9


def test_cover_exponent_is_the_least_that_bounds_the_translates():
    A = SetInput(10, tuple(random_coset_union(make_rng(9), 10, 3, 4, 0.5)))
    cover, report = pfr_pipeline(A)
    m, K, c = len(cover.translates), report["K"], report["cover_exponent"]
    assert m > 2 and K > 1
    assert c == math.log(m / 2) / math.log(K)
    assert 2 * K ** c == pytest.approx(m, rel=1e-12)
    assert 2 * K ** (c - 1e-6) < m


def test_pipeline_falls_back_to_snapshots(monkeypatch):
    # rank-2 coset: K = 1 caps the certified cover at two translates, so a
    # deliberately ruined terminal state cannot certify and the pipeline
    # must reach back to the good snapshot
    H = span([1, 2], 6)
    A = SetInput(6, tuple(H.enumerate()))
    good = uniform_on_subgroup(H)
    bad = uniform_on(list(range(64)), 6)
    ref = RefPair(good, good)

    def stalled(X01, X02, **kw):
        st = DescentState(ref, bad, bad, rdist(bad, bad), ref.tau(bad, bad))
        st.snapshots = [(good, good), (bad, bad)]
        st.stop_reason = "iteration limit"
        return st, extract_subgroup(bad)

    monkeypatch.setattr(cover_mod, "entropic_pfr", stalled)
    cover, report = pfr_pipeline(A)
    assert cover.certified
    assert report["cover_source"] == "1 steps back"
    assert len(cover.translates) == 1
    assert cover.covers(A.points)
    # the stalled descent also leaves a diagnostics dump in the report
    assert "bounds" in report["diagnostics"]


def test_fallback_picks_the_snapshot_covers_without_distances(monkeypatch):
    # the fallback reads only each snapshot's subgroup: it takes no
    # distance and picks the cover extract_subgroup's H gives
    # at c = 4 only the first two snapshots certify, with two translates
    # each, and the terminal pair does not
    A = SetInput(6, tuple(random_coset_union(make_rng(5), 6, 2, 3)))
    UA = A.uniform()
    laws = [UA, uniform_on(A.points[:4], 6), uniform_on(A.points[:2], 6),
            uniform_on_subgroup(span([1, 2], 6)), uniform_on([A.points[0]], 6),
            uniform_on(list(range(64)), 6)]
    K = doubling_constant(A)
    cover, source = None, "terminal"
    for back, Y in enumerate(reversed(laws[:-1]), 1):
        cand, _ = cover_mod._assemble_cover(A, extract_subgroup(Y).H, K, 4.0)
        if cand.certified and (cover is None or len(cand.translates) < len(cover.translates)):
            cover, source = cand, f"{back} steps back"
    assert source == "4 steps back"

    def stalled(X01, X02, **kw):
        st = DescentState(RefPair(UA, UA), laws[-1], laws[-1], 1.0, 1.0)
        st.snapshots = [(Y, Y) for Y in laws]
        st.stop_reason = "iteration limit"
        return st, cert

    def no_distance(X, Y):
        raise AssertionError("the fallback took a distance")

    cert = extract_subgroup(laws[-1])
    monkeypatch.setattr(cover_mod, "entropic_pfr", stalled)
    monkeypatch.setattr(cover_mod, "diagnostics", lambda ref, X1, X2: {})
    monkeypatch.setattr(descent_mod, "rdist", no_distance)
    got, report = pfr_pipeline(A, c_exponent=4.0)
    assert (got, report["cover_source"]) == (cover, source)


def test_covers_matches_brute_force():
    rng = make_rng(15)
    mixed = 0
    for _ in range(25):
        n = int(rng.integers(6, 10))
        H = random_subgroup(rng, n, int(rng.integers(0, n)))
        T = rng.choice(1 << n, size=int(rng.integers(0, 40)), replace=False)
        cov = CosetCover(H, tuple(T.tolist()), 2.0, 12.0, False)
        members = set(H.enumerate())
        pts = rng.integers(0, 1 << n, size=30).tolist()
        hit = [any(p ^ int(t) in members for t in T) for p in pts]
        assert [cov.covers([p]) for p in pts] == hit
        assert cov.covers(pts) == all(hit)
        assert cov.covers([])
        mixed += 0 < sum(hit) < len(hit)
    assert mixed >= 10


def test_shrunk_cover_translates_match_brute_quotient():
    rng = make_rng(16)
    shrunk = 0
    for _ in range(20):
        n = int(rng.integers(4, 9))
        H = random_subgroup(rng, n, int(rng.integers(2, n)))
        A = random_set(rng, n, int(rng.integers(1, H.span_size())))
        cov, info = cover_mod._assemble_cover(A, H, doubling_constant(A), 12.0)
        # brute force: the core, the greedy translates, then every coset of
        # the shrunk subgroup inside each t + H
        x0, _ = best_shift(A, H)
        members = H.enumerate()
        T = ruzsa_cover(A, sorted(set(A.points) & {h ^ x0 for h in members}))
        Hp = H.shrink_to_size(len(A))
        small = Hp.enumerate()
        quot = {min(h ^ s for s in small) for h in members}
        assert cov.Hp == Hp
        assert cov.translates == tuple(sorted({t ^ q for t in T for q in quot}))
        assert all(type(t) is int for t in cov.translates)
        assert cov.covers(A.points)
        assert info["raw_translates"] == len(T)
        shrunk += Hp != H
    assert shrunk >= 10


def test_cover_size_bound_and_membership():
    H = span([1, 2], 4)
    cov = CosetCover(H, (0, 4), 2.0, 12.0, True)
    assert cov.size_bound() == 2.0 * 2.0 ** 12.0
    assert cov.covers([0, 3, 4, 7])
    assert not cov.covers([8])


def test_set_files_round_trip(tmp_path):
    A = SetInput(6, (0, 5, 9, 33))
    for style in ("bin", "hex"):
        p = tmp_path / f"set.{style}"
        save_set(A, str(p), style)
        assert load_set(str(p)) == A
    p = tmp_path / "mixed"
    p.write_text("# comment\ndim = 4\n0b0011\n0x7\n12  # trailing\n")
    assert load_set(str(p)) == SetInput(4, (3, 7, 12))


def test_set_file_header_errors(tmp_path):
    cases = {
        "no_header": "3\n5\n",
        "dup": "dim=3\ndim=3\n1\n",
        "empty": "# nothing\n",
    }
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError):
            load_set(str(p))


def test_pipeline_records_only_cost_guards_from_diagnostics(monkeypatch):
    H = span([1, 2], 6)
    A = SetInput(6, tuple(H.enumerate()))
    U = uniform_on_subgroup(H)

    def stalled(X01, X02, **kw):
        st = DescentState(RefPair(U, U), U, U, 0.0, 0.0)
        st.stop_reason = "iteration limit"
        return st, extract_subgroup(U)

    def guarded(ref, X1, X2):
        raise CostGuardExceeded("ENDGAME_SUPPORT_CAP", 6400 ** 2, "too wide")

    def broken(ref, X1, X2):
        raise ValueError("not a cost guard")

    monkeypatch.setattr(cover_mod, "entropic_pfr", stalled)
    monkeypatch.setattr(cover_mod, "diagnostics", guarded)
    _, report = pfr_pipeline(A)
    assert report["diagnostics"] == {"error": "too wide"}
    # anything else is a fault, not a size limit, and reaches the caller
    monkeypatch.setattr(cover_mod, "diagnostics", broken)
    with pytest.raises(ValueError, match="not a cost guard"):
        pfr_pipeline(A)


def test_pipeline_reports_intrinsic_dim_from_point_to_full_rank():
    cover, report = pfr_pipeline(SetInput(6, (37,)))
    assert report["intrinsic_dim"] == 0
    assert cover.certified and cover.Hp.rank == 0
    assert cover.translates == (37,)
    cover, report = pfr_pipeline(SetInput(3, tuple(range(8))))
    assert report["intrinsic_dim"] == 3
    assert cover.certified and cover.Hp.rank == 3


@pytest.mark.parametrize("N", [16, 24])
def test_pipeline_is_blind_to_injective_affine_embeddings(N):
    # the acceptance corpus, moved from F_2^6 into F_2^N: same taus, and a
    # certified cover by as many translates of a subgroup of the same rank
    from test_acceptance import certificate_corpus
    rng = make_rng(100 + N)
    for A in certificate_corpus():
        f = random_embedding(rng, 6, N)
        cover, report = pfr_pipeline(A)
        cover_N, report_N = pfr_pipeline(SetInput(N, tuple(f(p) for p in A.points)))
        assert np.allclose(tau_path(report_N["descent"]),
                           tau_path(report["descent"]), rtol=0, atol=1e-12)
        assert report_N["intrinsic_dim"] == report["intrinsic_dim"]
        assert cover_N.certified and cover.certified
        assert cover_N.Hp.rank == cover.Hp.rank
        assert len(cover_N.translates) == len(cover.translates)


def test_pipeline_diagnostics_run_in_span_coordinates():
    # 12 random points of F_2^6 moved into F_2^16: the diagnostics read the
    # span of the laws, so a stalled run reports what it reports at n = 6,
    # and both agree with the pushforward oracle
    pts = np.random.default_rng(3).choice(64, size=12, replace=False)
    f = random_embedding(make_rng(16), 6, 16)
    _, report = pfr_pipeline(SetInput(6, tuple(int(p) for p in pts)), max_iter=0)
    _, report_N = pfr_pipeline(SetInput(16, tuple(f(p) for p in pts)), max_iter=0)
    diag, diag_N = report["diagnostics"], report_N["diagnostics"]
    assert "error" not in diag and set(diag_N) == set(diag)
    for key, value in diag.items():
        if key != "bounds":
            assert diag_N[key] == pytest.approx(value, rel=0, abs=1e-12), key
    assert set(diag_N["bounds"]) == set(diag["bounds"])
    for name, b in diag["bounds"].items():
        got = diag_N["bounds"][name]
        assert got["holds"] == b["holds"], name
        for part in ("lhs", "rhs", "slack"):
            assert got[part] == pytest.approx(b[part], rel=0, abs=1e-12), name
    st_N = report_N["descent"]
    assert diagnostics_gap(diag_N, diagnostics_via_joints(
        st_N.ref, st_N.X1, st_N.X2)) <= 1e-12
