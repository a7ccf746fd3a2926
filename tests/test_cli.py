"""Subcommand behaviour: JSON lines, exit codes, determinism, quiet mode."""
import json

import numpy as np
import pytest

import entropic_pfr.cli as cli
from entropic_pfr.cli import SUITES, main
from entropic_pfr.cover import SetInput, save_set
from entropic_pfr.dists import PRODUCT_SUPPORT_CAP, CostGuardExceeded, uniform_on
from entropic_pfr.groups import span
from entropic_pfr.randgen import (make_rng, random_coset_union, random_dist,
                                  random_joint)
from entropic_pfr import ruzsa
from entropic_pfr.ruzsa import IneqReport
from oracles import table_informations


def run(capsys, argv):
    code = main(argv)
    lines = [json.dumps(json.loads(ln), sort_keys=True)
             for ln in capsys.readouterr().out.splitlines()]
    return code, lines


def dist_file(tmp_path, name, X):
    p = tmp_path / name
    p.write_text(json.dumps(X.to_json()))
    return str(p)


def coset_files(tmp_path):
    U = uniform_on([h ^ 5 for h in span([1, 2], 4).enumerate()], 4)
    return dist_file(tmp_path, "a.json", U), dist_file(tmp_path, "b.json", U)


def test_check_runs_every_suite(capsys):
    code, lines = run(capsys, ["--quiet", "check", "--trials", "5",
                               "--dim", "3"])
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    assert [r["suite"] for r in rows] == SUITES
    for r in rows:
        assert r["trials"] == 5
        assert r["violations"] == 0
        assert r["worst_slack"] >= -1e-9


def test_check_is_deterministic(capsys):
    args = ["--quiet", "check", "--suite", "triangle", "--trials", "8",
            "--dim", "4", "--seed", "7"]
    _, first = run(capsys, args)
    _, again = run(capsys, args)
    assert first == again


@pytest.mark.parametrize("command", ["check", "verify-fibring"])
@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_are_a_usage_error(capsys, command, trials):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--trials", trials])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "need at least 1 trial" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "--dim", "-1"], "check --suite all needs --dim from 1 to 20, got -1"),
    (["check", "--suite", "submodularity", "--dim", "21"],
     "check --suite submodularity needs --dim from 1 to 20, got 21"),
    # bsg_check packs (A, B, A ^ B) into one key, 3n <= 62
    (["check", "--suite", "bsg", "--dim", "21"],
     "check --suite bsg needs --dim from 1 to 20, got 21"),
    # a joint on one point has fewer keys than random_joint draws
    (["check", "--suite", "bsg", "--dim", "0"],
     "check --suite bsg needs --dim from 1 to 20, got 0"),
    (["check", "--suite", "triangle", "--dim", "63"],
     "check --suite triangle needs --dim from 0 to 62, got 63"),
    (["verify-fibring", "--out-dim", "-1"], "need at least 0 dimensions, got -1"),
    (["verify-fibring", "--dim", "-1"], "need at least 0 dimensions, got -1"),
])
def test_dimensions_a_suite_cannot_draw_are_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


@pytest.mark.parametrize("command", [["descend", "--x1", "a.json", "--x2", "b.json"],
                                     ["demo", "1"], ["cover", "--set", "a.set"]])
@pytest.mark.parametrize("flag, value, message", [
    ("--budget", "-1", "need at least 0 conditioning values, got -1"),
    ("--max-iter", "-1", "need at least 0 iterations, got -1"),
    # RefPair accepts only 0 < eta < ETA_MAX = 1 / (4 + sqrt 17)
    ("--eta", "0.5", "need 0 < eta < 0.123106, got 0.5"),
    ("--eta", "0", "need 0 < eta < 0.123106, got 0"),
    ("--eta", "nan", "need 0 < eta < 0.123106, got nan"),
    # no distance is at most a negative or NaN eps_d, so descent never converges
    ("--eps-d", "-1", "need eps_d >= 0, got -1"),
    ("--eps-d", "nan", "need eps_d >= 0, got nan"),
])
def test_descent_flags_out_of_range_are_a_usage_error(capsys, command, flag, value, message):
    # refused while the arguments are parsed, before any file is read
    with pytest.raises(SystemExit) as exit_:
        main(command + [flag, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


@pytest.mark.parametrize("argv, message", [
    # the bound 2 K^c is printed as JSON and compared with the translate count
    (["cover", "--set", "a.set", "--c-exponent", "nan"], "need a finite c >= 0, got nan"),
    (["cover", "--set", "a.set", "--c-exponent", "inf"], "need a finite c >= 0, got inf"),
    (["cover", "--set", "a.set", "--c-exponent", "-1"], "need a finite c >= 0, got -1"),
    # numpy's generators take no negative seed
    (["check", "--seed", "-5"], "need at least 0 as a seed, got -5"),
    (["verify-fibring", "--seed", "-5"], "need at least 0 as a seed, got -5"),
    (["demo", "1", "--seed", "-5"], "need at least 0 as a seed, got -5"),
])
def test_exponents_and_seeds_out_of_range_are_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_a_budget_of_zero_is_accepted(capsys):
    # the fibre classes still take one conditioning value per side
    code, lines = run(capsys, ["--quiet", "demo", "1", "--budget", "0"])
    assert code == 0 and json.loads(lines[-1])["converged"] is True


@pytest.mark.parametrize("suite, dim", [("submodularity", "20"), ("bsg", "20"),
                                        ("bsg", "1"), ("triangle", "0")])
def test_check_runs_at_the_ends_of_its_dimension_range(capsys, suite, dim):
    code, lines = run(capsys, ["check", "--suite", suite, "--dim", dim,
                               "--trials", "1"])
    assert code == 0 and json.loads(lines[0])["violations"] == 0


def test_suite_table_draws_the_inputs_in_order(monkeypatch):
    # each check gets its inputs drawn from the trial's seed in argument
    # order, joints with their labels
    got = {}
    for suite, name in (("double-shift", "check_double_shift"),
                        ("cond-distance", "check_cond_distance"),
                        ("bsg", "bsg_check")):
        monkeypatch.setattr(cli, name, lambda *inputs: inputs)
        got[suite] = cli._suite_trial(suite, 9, 3)
    rng = make_rng(9)
    want = {"double-shift": [random_dist(rng, 3) for _ in range(4)]}
    rng = make_rng(9)
    want["cond-distance"] = [random_joint(rng, 3, 2, ["X", "Z"]),
                             random_joint(rng, 3, 2, ["Y", "W"])]
    want["bsg"] = [random_joint(make_rng(9), 3, 2, ["A", "B"])]

    def law(x):
        return getattr(x, "labels", None), [a.tolist() for a in x.items()]
    assert {k: [law(x) for x in v] for k, v in got.items()} == {
        k: [law(x) for x in v] for k, v in want.items()}


def test_check_reports_counterexample_on_violation(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_triangle",
                        lambda *a: IneqReport("triangle", 1.0, 0.0))
    code, lines = run(capsys, ["check", "--suite", "triangle",
                               "--trials", "3", "--seed", "11"])
    assert code == 1
    rows = [json.loads(ln) for ln in lines]
    assert rows[0]["violations"] == 3
    ce = rows[1]["counterexample"]
    # the seed pins the violating inputs exactly
    assert ce["seed"] == 11 and ce["slack"] == -1.0


def test_verify_fibring(capsys):
    code, lines = run(capsys, ["--quiet", "verify-fibring", "--trials", "4",
                               "--dim", "4", "--out-dim", "2"])
    assert code == 0
    row = json.loads(lines[0])
    assert row["holds"] and row["worst_residual"] <= 1e-9


def test_an_eps_d_of_zero_is_accepted(capsys):
    code, lines = run(capsys, ["--quiet", "demo", "1", "--eps-d", "0", "--max-iter", "0"])
    assert code == 1 and json.loads(lines[0])["converged"] is False


def test_rdist_command_convolves_once(capsys, tmp_path, monkeypatch):
    # d and H_sum read one sum; d as scalar rdist computes it, bit for bit
    rng = make_rng(7)
    X, Y = random_dist(rng, 5), random_dist(rng, 5)
    sums, convolve = [], cli.xor_convolve
    def counting(A, B):
        sums.append(1)
        return convolve(A, B)
    monkeypatch.setattr(cli, "xor_convolve", counting)
    monkeypatch.setattr(ruzsa, "xor_convolve", counting)
    code, lines = run(capsys, ["rdist", "--x", dist_file(tmp_path, "x.json", X),
                               "--y", dist_file(tmp_path, "y.json", Y)])
    assert code == 0 and len(sums) == 1
    row = json.loads(lines[0])
    assert row["d"] == ruzsa.rdist(X, Y) and row["H_sum"] == convolve(X, Y).entropy()


def test_rdist_and_entropy_on_files(capsys, tmp_path):
    a, b = coset_files(tmp_path)
    code, lines = run(capsys, ["rdist", "--x", a, "--y", b])
    assert code == 0
    row = json.loads(lines[0])
    assert row["d"] == pytest.approx(0.0, abs=1e-12)
    assert row["H_x"] == pytest.approx(row["H_sum"], abs=1e-12)

    code, lines = run(capsys, ["entropy", a, b])
    assert code == 0
    assert len(lines) == 2
    for ln in lines:
        row = json.loads(ln)
        assert row["dim"] == 4 and row["support"] == 4


def test_endgame_subcommand(capsys, tmp_path):
    a, b = coset_files(tmp_path)
    code, lines = run(capsys, ["endgame", "--x1", a, "--x2", b])
    assert code == 0
    row = json.loads(lines[0])
    assert row["k"] == pytest.approx(0.0, abs=1e-12)
    assert row["I2"] == pytest.approx(row["I3"], abs=1e-10)
    # a random pair against the pushforward oracle
    rng = make_rng(6)
    X1, X2 = random_dist(rng, 4), random_dist(rng, 4)
    a, b = dist_file(tmp_path, "e1.json", X1), dist_file(tmp_path, "e2.json", X2)
    code, lines = run(capsys, ["endgame", "--x1", a, "--x2", b])
    assert code == 0
    row = json.loads(lines[0])
    want = table_informations(X1, X2)
    assert set(row) == set(want)
    for key, value in want.items():
        assert row[key] == pytest.approx(value, rel=0, abs=1e-12), key


def test_endgame_subcommand_past_the_old_cap(capsys, tmp_path):
    # 76 points: a (U, V, S) law of (76 * 76)^2 entries, past the cap that
    # once refused the command; the tables read it from pairs of fibres
    pts = random_coset_union(make_rng(1), 12, 5, 4, 0.6)
    assert len(pts) == 76
    a = dist_file(tmp_path, "stalled.json", uniform_on(pts, 12))
    code, lines = run(capsys, ["endgame", "--x1", a, "--x2", a])
    assert code == 0 and len(lines) == 1
    row = json.loads(lines[0])
    assert set(row) == {"k", "I1", "I2", "I3", "H_S"}
    assert row["I1"] >= -1e-12 and row["I2"] == row["I3"]


def test_descend_converges_on_coset_pair(capsys, tmp_path):
    a, b = coset_files(tmp_path)
    code, lines = run(capsys, ["--quiet", "descend", "--x1", a, "--x2", b])
    assert code == 0
    row = json.loads(lines[0])
    assert row["converged"] and row["bound_check"]
    assert row["subgroup_rank"] == 2 and row["iterations"] == 0


def test_descend_reports_intrinsic_dim(capsys, tmp_path):
    # both files hold one coset of a rank-2 subgroup of F_2^4
    a, b = coset_files(tmp_path)
    code, lines = run(capsys, ["--quiet", "descend", "--x1", a, "--x2", b])
    assert code == 0
    assert json.loads(lines[0])["intrinsic_dim"] == 2


def test_descend_emits_diagnostics_when_stalled(capsys, tmp_path):
    rng = make_rng(5)
    a = dist_file(tmp_path, "r1.json", random_dist(rng, 4))
    b = dist_file(tmp_path, "r2.json", random_dist(rng, 4))
    code, lines = run(capsys, ["descend", "--x1", a, "--x2", b,
                               "--max-iter", "0"])
    assert code == 1
    rows = [json.loads(ln) for ln in lines]
    assert rows[0]["stop"] == "iteration limit"
    assert not rows[0]["converged"]
    assert "sum_split_identity" in rows[1]["bounds"]


def coset_union_file(tmp_path):
    # uniform on three cosets of a rank-7 subgroup of F_2^12: 384 points
    pts = random_coset_union(make_rng(21), 12, 7, 3)
    assert len(pts) == 384
    return dist_file(tmp_path, "union.json", uniform_on(pts, 12))


def test_cost_guards_end_in_one_json_line(capsys, tmp_path):
    # uniform on 1024 generic points of F_2^12: the endgame tables would
    # transform nearly every pair of 4096 fibres of about 256 points, far
    # past their cap, in F_2^12 and in the span diagnostics reduce to
    X = uniform_on(np.random.default_rng(5).choice(1 << 12, 1024, replace=False), 12)
    a = dist_file(tmp_path, "dense.json", X)
    code, lines = run(capsys, ["--quiet", "descend", "--x1", a, "--x2", a,
                               "--max-iter", "0"])
    rows = [json.loads(ln) for ln in lines]
    assert code == 1 and len(rows) == 2
    assert rows[0]["stop"] == "iteration limit"
    assert set(rows[1]) == {"error", "guard", "size"}
    assert rows[1]["error"] == "fibre pair sums too large"
    assert rows[1]["guard"] == "PRODUCT_SUPPORT_CAP"
    assert rows[1]["size"] > PRODUCT_SUPPORT_CAP
    code, lines = run(capsys, ["endgame", "--x1", a, "--x2", a])
    assert code == 1
    assert [json.loads(ln) for ln in lines] == [rows[1]]


def test_sums_past_the_cap_end_in_one_json_line(capsys, tmp_path):
    # generic laws of 100 and 110 points in F_2^24: few fibre pairs, but
    # C * C would enumerate 11,000^2 sums; the command refuses the pair in
    # one guard line instead of forming them
    rng = np.random.default_rng(7)
    a, b = (dist_file(tmp_path, f"generic{m}.json",
                      uniform_on(rng.choice(1 << 24, m, replace=False), 24))
            for m in (100, 110))
    code, lines = run(capsys, ["endgame", "--x1", a, "--x2", b])
    rows = [json.loads(ln) for ln in lines]
    assert code == 1 and len(rows) == 1
    assert rows[0]["guard"] == "PRODUCT_SUPPORT_CAP" and rows[0]["size"] > PRODUCT_SUPPORT_CAP
    # past DENSE_BITS no law is read, so no key of the tables can overflow
    wide = tmp_path / "wide57.json"
    wide.write_text(json.dumps({"dim": 57, "entries": [[1, 0.5], [2, 0.5]]}))
    code, lines = run(capsys, ["endgame", "--x1", str(wide), "--x2", str(wide)])
    assert code == 1
    assert [json.loads(ln) for ln in lines] == [
        {"error": "ambient dimension 57 out of range", "guard": "DENSE_BITS", "size": 57}]


def test_descend_certifies_rank_24_without_enumerating_the_subgroup(capsys, tmp_path):
    # generic laws of 100 and 110 points span all of F_2^24: descent stops
    # at once, the rank-24 certificate reads d[X; U_H] in closed form (a
    # uniform law on its 2^24 points took 24.5 s), and the diagnostics
    # refuse the pair in one guard line
    rng = np.random.default_rng(5)
    a, b = (dist_file(tmp_path, f"generic{m}.json",
                      uniform_on(rng.choice(1 << 24, m, replace=False), 24))
            for m in (100, 110))
    code, lines = run(capsys, ["--quiet", "descend", "--x1", a, "--x2", b, "--max-iter", "0"])
    rows = [json.loads(ln) for ln in lines]
    assert code == 1 and len(rows) == 2
    assert rows[0]["bound_check"] is True and rows[0]["subgroup_rank"] == 24
    assert rows[1]["guard"] == "PRODUCT_SUPPORT_CAP"


def test_check_past_dense_bits_ends_in_one_json_line(capsys):
    # the guard trips before the first draw, not after a 2^30-point one;
    # the sum-conditioned checks pack no product keys, so --dim 30 is no
    # usage error for them either
    for suite in ("triangle", "sum-shift-cond", "double-shift"):
        code, lines = run(capsys, ["check", "--suite", suite, "--dim", "30"])
        assert code == 1
        assert [json.loads(ln) for ln in lines] == [
            {"error": "ambient dimension 30 out of range", "guard": "DENSE_BITS",
             "size": 30}]


def test_other_errors_still_propagate(tmp_path):
    a = coset_union_file(tmp_path)
    b = dist_file(tmp_path, "small.json", uniform_on([1, 2], 4))
    with pytest.raises(ValueError, match="dimension mismatch") as err:
        main(["endgame", "--x1", a, "--x2", b])
    assert not isinstance(err.value, CostGuardExceeded)


def test_demo_trace_lines_and_quiet_mode(capsys):
    code, lines = run(capsys, ["demo", "2", "--eps-d", "1e-6"])
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    assert rows[0]["kind"] == "fibre-cross"
    assert rows[-1]["converged"] and rows[-1]["subgroup_rank"] == 2

    code, quiet_lines = run(capsys, ["--quiet", "demo", "2",
                                     "--eps-d", "1e-6"])
    assert code == 0
    # quiet drops the per-iteration lines, keeping only the summary
    assert len(quiet_lines) == 1
    assert quiet_lines[0] == lines[-1]


def test_cover_subcommand(capsys, tmp_path):
    H = span([1, 2, 8], 5)
    A = SetInput(5, tuple(h ^ 16 for h in H.enumerate()))
    p = tmp_path / "A.txt"
    save_set(A, str(p))
    code, lines = run(capsys, ["cover", "--set", str(p)])
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    assert rows[0]["certified"] and rows[0]["translates"] == 1
    assert rows[0]["K"] == 1.0
    # non-quiet mode appends one line per translate
    assert rows[1:] and all("translate" in r for r in rows[1:])
