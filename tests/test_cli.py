import hashlib
import importlib
import json
import pickle
import pkgutil
import subprocess
import sys

import pytest

import comaj
from comaj import cli, engine
from comaj.identities import VerificationReport

RUN = [sys.executable, "-m", "comaj"]


def run_cli(args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def test_stat_worked_example(capsys):
    rc = cli.main(
        [
            "stat",
            "--shape",
            "4,2,1",
            "--tableau",
            "1,2,4,5/3,6/7",
            "--perms",
            "3651274,6523417,1423567",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "descent set R: {2,5,6}" in out
    assert "Z^1 = (1, 1, 0, 2, 0, 0, 1)" in out
    assert "Z^2 = (21, 01, 10, 12, 00, 00, 21)" in out
    assert "Z^3 = (021, 201, 210, 112, 300, 400, 421)" in out
    assert "Z^4 = (0021, 0201, 0210, 1112, 1300, 1400, 1421)" in out
    assert "weight: q1^5 q2^6 q3^16 q4^4" in out
    assert out.rstrip().endswith("total: 31")


def test_stat_second_example(capsys):
    rc = cli.main(
        [
            "stat",
            "--shape",
            "2,2,1,1",
            "--tableau",
            "1,3/2,4/5/6",
            "--perms",
            "631254,365412",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Z^3 = (021, 022, 100, 112, 212, 310)" in out
    assert "total: 21" in out


README_STAT = ["stat", "--shape", "4,2,1", "--tableau", "1,2,4,5/3,6/7",
               "--perms", "3651274,6523417,1423567"]


@pytest.mark.parametrize("fmt, digest", [
    ("text", "bce9c2ab58a8387a55a00a6a7fca2b1e35eb1c9155742c4cf349485a1f006ee8"),
    ("json", "506f1fc5ab0f2f1c88f42864fc964b5c7672b4b3fef5900cb78dbc2734d91abb"),
])
def test_stat_readme_example_digest(capsys, fmt, digest):
    # the README's stat example, as first recorded, in both formats
    rc = cli.main([*README_STAT, "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_stat_trivial_shape(capsys):
    rc = cli.main(["stat", "--shape", "1", "--perms", ""])
    out = capsys.readouterr().out
    assert rc == 0
    assert "total: 0" in out


def test_stat_json_format(capsys):
    rc = cli.main(
        ["stat", "--shape", "2,1", "--tableau", "1,2/3", "--perms", "213", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    obj = json.loads(out)
    assert obj["descent_set"] == [2]
    assert obj["total"] == sum(obj["components"])


def test_stat_takes_one_permutation_past_nine_with_a_trailing_semicolon(capsys):
    # one comma list with n >= 10 needs the ';' form; one empty last token is dropped
    sigma = (2, 1, 3, 4, 5, 6, 7, 8, 9, 10)
    rc = cli.main(["stat", "--shape", "10", "--perms", "2,1,3,4,5,6,7,8,9,10;",
                   "--format", "json"])
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert tuple(obj["components"]) == engine.comaj_components(frozenset(), 10, (sigma,)) == (9, 9)
    # an empty token anywhere else is still an error
    for text in (";2,1", "2,1;;1,2"):
        assert cli.main(["stat", "--shape", "2", "--perms", text]) == 2
        assert "error:" in capsys.readouterr().err


def test_stat_rejects_bad_permutation(capsys):
    rc = cli.main(["stat", "--shape", "2,1", "--tableau", "1,2/3", "--perms", "113"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_stat_requires_tableau_when_ambiguous(capsys):
    rc = cli.main(["stat", "--shape", "2,1", "--perms", "123"])
    assert rc == 2
    assert "--tableau" in capsys.readouterr().err


def test_evaluate_schur(capsys):
    rc = cli.main(["evaluate", "schur", "--lambda", "2,1", "--k", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out) == {
        "D": 3,
        "k": 1,
        "terms": [{"c": "1", "e": [1]}, {"c": "1", "e": [2]}],
    }


def test_evaluate_schur_trivial(capsys):
    rc = cli.main(["evaluate", "schur", "--lambda", "1", "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["terms"] == [{"c": "1", "e": [0, 0, 0]}]


def test_evaluate_fundamental(capsys):
    rc = cli.main(["evaluate", "fundamental", "--n", "2", "--r-set", "1", "--k", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["terms"] == [{"c": "1", "e": [1]}]


def test_evaluate_fundamental_rejects_empty_n(capsys):
    rc = cli.main(["evaluate", "fundamental", "--n", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: need n >= 1, got 0" in captured.err


@pytest.mark.parametrize("k", ["1", "2"])
def test_evaluate_fundamental_rejects_r_outside_the_positions(capsys, k):
    # the comaj route's k = 1 base and its step tables both refuse a bad R
    rc = cli.main(["evaluate", "fundamental", "--n", "3", "--r-set", "5", "--k", k])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: R must be a subset of 1..2: [5]\n"


def test_evaluate_rejects_low_degree_bound(capsys):
    for target in (["schur", "--lambda", "2,1"], ["fundamental", "--n", "3", "--r-set", "1"]):
        rc = cli.main(["evaluate", *target, "--k", "2", "--D", "3"])
        assert rc == 2
        assert "D=3 is below the exact bound 6" in capsys.readouterr().err


def test_evaluate_jt_requires_degree(capsys):
    rc = cli.main(["evaluate", "schur-jt", "--lambda", "2,1", "--k", "1"])
    assert rc == 2
    capsys.readouterr()
    rc = cli.main(["evaluate", "schur-jt", "--lambda", "2,1", "--k", "1", "--D", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["D"] == 6


def test_evaluate_csv(capsys):
    rc = cli.main(["evaluate", "schur", "--lambda", "2,1", "--k", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "e1,c\n1,1\n2,1\n"


def test_multiplicity_table(capsys):
    rc = cli.main(["multiplicity", "--n", "2", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (
        "lambda,q^0,q^1,q^2\n"
        "2,1,0,1\n"
        '"1,1",0,2,0\n'
        "TOTAL[q=1],4,4,ok\n"
    )


def test_multiplicity_footer_dimension(capsys):
    rc = cli.main(["multiplicity", "--n", "3", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.rstrip().splitlines()[-1] == "TOTAL[q=1],36,36,ok"


def test_multiplicity_single_row(capsys):
    rc = cli.main(["multiplicity", "--n", "1", "--k", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1] == "1,1"


def test_verify_single_case(capsys):
    rc = cli.main(["verify", "finite", "--lambda", "1", "--k", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["status"] == "pass"
    assert report["identity"] == "finite_evaluation"


def test_verify_prop41_sweep(capsys):
    rc = cli.main(["verify", "prop41", "--n", "3", "--r", "2", "--bound", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4 * 4 * 6  # subsets x targets x permutations
    assert all(json.loads(line)["status"] == "pass" for line in lines)


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    fake = VerificationReport(
        identity="row_case",
        params={"n": 2, "k": 2},
        status="fail",
        digests={},
        counterexample={"pair": ["a", "b"], "exponent": [0], "left": "0", "right": "1"},
    )
    monkeypatch.setattr(cli.identities, "verify_row_case", lambda n, k: fake)
    rc = cli.main(["verify", "row", "--n", "2", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert json.loads(out.strip())["counterexample"]["pair"] == ["a", "b"]


def test_verify_all_stream_order(capsys):
    # digest of the stream as first recorded; "--jobs 2" gives the same bytes
    rc = cli.main(["verify", "all", "--max-n", "3", "--max-k", "2", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "99377b206aef00d1237a7d1999071389ab0671df00b4b1d3c367086466b0c40f"
    )


@pytest.mark.parametrize("argv, digest", [
    # the box shape of the benchmark's prop41 workload, at a smaller entry bound
    (["--n", "4", "--r", "2", "--bound", "2"],
     "dc0982a0d2256c785c5b55c615c1c50a4456f5de20853c3fcc61c9481463d5da"),
    (["--n", "3", "--r", "3", "--bound", "2"],
     "09b33dfed0dbdcac017302170259b89405358a6947cf306a932b0daaae86c6c1"),
    # most of the 4^10 boxes with entries at most 3 lie above the degree bound
    (["--n", "5", "--r", "2", "--bound", "3", "--r-set", "1,3"],
     "002a2cba01a7e6dd597b21281fa5cbd1c1ebfd4162a953c3886a5390667cbee5"),
], ids=["n4-r2-bound2", "n3-r3-bound2", "n5-r2-bound3-R13"])
def test_verify_prop41_stream_digest(capsys, argv, digest):
    rc = cli.main(["verify", "prop41", *argv, "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_prop41_shared_pairs_stream_digest(capsys, jobs):
    # recorded before keys with equal sides shared one pair; workers build
    # their own pairs, so every --jobs value writes these bytes
    rc = cli.main(["verify", "prop41", "--n", "4", "--r", "1", "--bound", "3", "--jobs", jobs])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "fdcf993d363a873a548d7b29822c86ff2b62526986aced10a28662d04fcb182c"
    )


@pytest.mark.parametrize("argv, digest", [
    (["verify", "kronecker", "--max-n", "4", "--max-k", "3", "--jobs", "1"],
     "a461669e9f36dfee469560b2549f36670458dfd62cac4b1bf8516a9da4e52cb4"),
    (["verify", "reindex", "--max-n", "4", "--max-k", "3", "--jobs", "1"],
     "32eae2b4cba10a3914f3a926ad99ebd5cbb349785666a4b32f443e34973a1177"),
    (["multiplicity", "--n", "5", "--k", "2"],
     "ff37641d50c084d77c2e43a07b9c4a43a0ffb136403d3ef508698f91093358b4"),
    # these two also read the character oracle at every partition of n <= 5
    (["verify", "kronecker", "--max-n", "5", "--max-k", "3", "--jobs", "1"],
     "99ddd8d091ad31434f4c4fc07344619cce7463c9968efd5383f159ae4a688528"),
    (["verify", "row", "--max-n", "5", "--max-k", "3", "--jobs", "1"],
     "fda52c1d467bf9f284e153360551352b4ece6b81ebace130d82ab6508a8c8fd9"),
    # these two also read the QPoly product routes: Jacobi-Trudi and the chain enumeration
    (["verify", "finite", "--max-n", "4", "--max-k", "3", "--jobs", "1"],
     "9df519509f394fc6f02783238b87c08adcf60bc3fcb30263cbea88ac830d64a0"),
    (["verify", "quasi", "--max-n", "4", "--max-k", "3", "--jobs", "1"],
     "99a6b726f08dd78591eda37458d0a9c6eee0530bc5614879a4b07ebfd8e1913c"),
    # every F_R of n = 5 at k = 3 through the full recursion
    (["verify", "quasi", "--n", "5", "--k", "3", "--jobs", "1"],
     "78dd6a2d35677ea5b98e96f31c703ee34770dde5d869e1f13f0a28baf58926b2"),
    # n = 5 at k = 3: all four finite routes, the labeled side over 120^2 vectors per tableau
    (["verify", "finite", "--lambda", "3,1,1", "--k", "3", "--jobs", "1"],
     "c70323f33d113a77804980f962353fead7e189ac05c728ebc56a257d86eab9dc"),
    # n = 6 at k = 3 and n = 5 at k = 4: beyond the per-vector tally of test_identities
    (["verify", "kronecker", "--n", "6", "--k", "3", "--jobs", "1"],
     "757bf02807f5bd47ab70d54e53a14b6a2c28756674ef2c9fb20b95945aab94d6"),
    (["verify", "kronecker", "--n", "5", "--k", "4", "--jobs", "1"],
     "f3d7bb431dd24304ed39d8e9482b5ae9f621a5849be90fecd37a8e954d0d33bf"),
    # n = 6 at k = 4 and n = 7 at k = 3, recorded from the full k-variable
    # recursion, which kronecker and multiplicity no longer run
    (["verify", "kronecker", "--lambda", "3,2,1", "--k", "4", "--jobs", "1"],
     "06999ea7339a3342cde9e20012f927a6774717253e569b56cd1501249881b57d"),
    (["verify", "kronecker", "--n", "7", "--k", "3", "--jobs", "1"],
     "df8318365d2918b367b076c874f803d285d7220f9d939985999bb51f338192c4"),
    (["multiplicity", "--n", "6", "--k", "3"],
     "25f5f7681ebcc593e0d271c068112b08a6c4d2ae71c998b3344051915e3ec5d9"),
], ids=["kronecker-n4-k3", "reindex-n4-k3", "multiplicity-n5-k2", "kronecker-n5-k3",
        "row-n5-k3", "finite-n4-k3", "quasi-n4-k3", "quasi-n5-k3", "finite-311-k3",
        "kronecker-n6-k3", "kronecker-n5-k4", "kronecker-321-k4", "kronecker-n7-k3",
        "multiplicity-n6-k3"])
def test_comaj_formula_stream_digest(capsys, argv, digest):
    # streams built on the comaj formula, as first recorded
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv, message", [
    (["prop41", "--n", "3", "--r", "0"], "need r >= 1, got 0"),
    (["prop41", "--n", "3", "--r", "1", "--bound", "-1"], "need bound >= 0, got -1"),
    (["reindex", "--lambda", "2,1", "--m", "0"], "need m >= 1, got 0"),
    (["quasi", "--n", "0", "--k", "2"], "need n >= 1, got 0"),
    (["quasi", "--n", "3", "--k", "2", "--D", "-1"], "need k >= 1 and D >= 0, got k=2, D=-1"),
    (["row", "--n", "2", "--k", "0"], "need k >= 1, got 0"),
    # an option the named suite never reads is refused, not dropped
    (["prop41", "--n", "2", "--k", "0", "--r", "1", "--bound", "1"],
     "verify prop41 does not read --k"),
    (["reindex", "--lambda", "2,1", "--k", "2"], "verify reindex does not read --k"),
    (["kronecker", "--lambda", "2,1", "--n", "3", "--k", "2"],
     "verify kronecker does not read --n next to --lambda"),
    (["finite", "--lambda", "2,1", "--n", "3", "--k", "2"],
     "verify finite does not read --n next to --lambda"),
    (["row", "--n", "2", "--k", "2", "--bound", "3"], "verify row does not read --bound"),
    (["kronecker", "--lambda", "2,1", "--k", "2", "--D", "9"],
     "verify kronecker does not read --D"),
    (["quasi", "--n", "2", "--k", "1", "--m", "1"], "verify quasi does not read --m"),
    (["row", "--n", "2", "--k", "2", "--r", "1"], "verify row does not read --r"),
    (["finite", "--lambda", "2,1", "--k", "1", "--r-set", "1"],
     "verify finite does not read --r-set"),
    (["quasi", "--lambda", "2,1"], "verify quasi does not read --lambda"),
    # an empty --lambda is a bad partition, not the default sweep
    (["kronecker", "--lambda", "", "--max-n", "2", "--max-k", "1"], "bad partition ''"),
    # a range that selects nothing is refused, not run as an empty stream
    (["all", "--max-n", "0"], "need max-n >= 1, got 0"),
    (["all", "--max-n", "2", "--max-k", "0"], "need max-k >= 1, got 0"),
    (["prop41", "--n", "1"], "verify prop41 selects no task"),
    # prop41 has no task below n = 2, and "all" names it instead of dropping it
    (["all", "--max-n", "1", "--max-k", "1"], "verify prop41 selects no task"),
    # an R outside 1..n-1 is refused by the first task, before any line
    (["prop41", "--n", "5", "--r", "1", "--bound", "3", "--r-set", "9"],
     "R must be a subset of 1..4: [9]"),
], ids=["r0", "bound-1", "m0", "n0", "quasi-D-1", "k0", "prop41-k", "reindex-k", "kronecker-n-lambda",
        "finite-n-lambda", "row-bound", "kronecker-D", "quasi-m", "row-r", "finite-r-set",
        "quasi-lambda", "empty-lambda", "all-max-n0", "all-max-k0",
        "prop41-n1", "all-max-n1", "prop41-r-set-outside"])
def test_verify_rejects_out_of_range_options(capsys, argv, message):
    # an explicit 0 is not the default range
    rc = cli.main(["verify", *argv, "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_verify_kronecker_reaches_n6_at_k3(capsys):
    # the comaj route against the character oracle at the n = 6, k = 3 frontier
    rc = cli.main(["verify", "kronecker", "--lambda", "3,2,1", "--k", "3", "--jobs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines and all(json.loads(line)["status"] == "pass" for line in lines)


def test_boundary_checks_hold_under_optimize():
    # preconditions raise errors rather than assert, so -O keeps them
    script = "from comaj import engine; engine.comaj_components({3}, 3, ())"
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "ValueError: R must be a subset of 1..2" in proc.stderr
    stat = ["stat", "--shape", "2,1", "--tableau", "1,2/3", "--perms", "1234"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "comaj", *stat], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "error: permutation size 4 != 3" in proc.stderr


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "reports.jsonl"
    rc = cli.main(["verify", "row", "--n", "2", "--k", "2", "-o", str(target)])
    out = capsys.readouterr().out
    assert rc == 0
    assert target.read_text() == out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_run_keeps_finished_reports(tmp_path, capsys, jobs):
    # the 7th task, shape (3), needs D >= 3: the 6 reports before it are written
    target = tmp_path / "reports.jsonl"
    argv = ["verify", "finite", "--max-n", "3", "--max-k", "2", "--D", "2", "--jobs", jobs]
    rc = cli.main([*argv, "-o", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: need D >= 3" in captured.err
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [(r["params"]["lambda"], r["params"]["k"]) for r in reports] == [
        ([1], 1), ([1], 2), ([2], 1), ([2], 2), ([1, 1], 1), ([1, 1], 2)]
    assert all(r["status"] == "pass" for r in reports)
    assert target.read_text() == captured.out


def test_one_worker_streams_its_tasks(capsys, monkeypatch):
    # a task that fails mid-stream leaves a prefix of the full stream, and
    # under --jobs 1 no task past the failing one has been drawn
    argv = ["verify", "prop41", "--n", "3", "--r", "1", "--bound", "2", "--jobs", "1"]
    assert cli.main(argv) == 0
    full = capsys.readouterr().out.splitlines(keepends=True)
    assert len(full) == 96
    name, reads, payloads = cli.SUITES["prop41"]
    drawn = []

    def counted(args):
        for payload in payloads(args):
            drawn.append(payload)
            yield payload

    verify = cli.identities.verify_injection_recursion

    def fails_eighth(*payload):
        if len(drawn) == 8:
            raise ValueError("task 8 failed")
        return verify(*payload)

    monkeypatch.setitem(cli.SUITES, "prop41", (name, reads, counted))
    monkeypatch.setattr(cli.identities, "verify_injection_recursion", fails_eighth)
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: task 8 failed" in captured.err
    assert captured.out == "".join(full[:7])
    assert len(drawn) == 8


def test_parser_does_not_import_multiprocessing():
    # only a run that starts a process pool pays for importing one
    script = ("import sys; from comaj import cli; cli.build_parser(); "
              "print('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # refused before any task runs, with nothing on stdout
    monkeypatch.setattr(cli.identities, "verify_row_case",
                        lambda n, k: pytest.fail("task ran"))
    target = str(tmp_path / "missing" / "x")
    for argv in (["verify", "row", "--n", "2", "--k", "2"],
                 ["evaluate", "schur", "--lambda", "2,1"]):
        rc = cli.main([*argv, "-o", target])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"error: cannot write {target}: No such file or directory" in captured.err


def test_byte_identical_reruns():
    first = run_cli(["multiplicity", "--n", "3", "--k", "2"])
    second = run_cli(["multiplicity", "--n", "3", "--k", "2"])
    assert first.stdout == second.stdout and first.returncode == 0
    a = run_cli(["evaluate", "schur", "--lambda", "2,2", "--k", "2"])
    b = run_cli(["evaluate", "schur", "--lambda", "2,2", "--k", "2"])
    assert a.stdout == b.stdout and a.returncode == 0


@pytest.fixture
def fake_pool(monkeypatch):
    """Each pool started: its size, the items it is handed, its chunk size and the items drawn.

    The fake pool runs the items inline, each after the pickle round trip a
    real pool makes.
    """
    started = []

    class FakePool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            drawn = []
            started.append((self.processes, items, chunksize, drawn))

            def draw():
                for item in items:
                    drawn.append(item)
                    yield pickle.loads(pickle.dumps(item))
            return map(pickle.loads(pickle.dumps(fn)), draw())

    monkeypatch.setattr("multiprocessing.Pool", FakePool)
    return started


@pytest.mark.parametrize("jobs, message", [
    ("0", "need jobs >= 1, got 0"),
    ("-2", "need jobs >= 1, got -2"),
], ids=["jobs0", "jobs-2"])
def test_verify_rejects_jobs_below_one(capsys, fake_pool, jobs, message):
    # refused before any task runs or any pool starts
    rc = cli.main(["verify", "row", "--max-n", "2", "--max-k", "2", "--jobs", jobs])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert fake_pool == []


def test_jobs_capped_by_cpus_and_tasks(capsys, monkeypatch, fake_pool):
    args = ["verify", "row", "--max-n", "2", "--max-k", "2", "--jobs", "5000"]  # 4 tasks
    for cpus, expected in [(3, 3), (64, 4)]:
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli.main(args) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4
        assert fake_pool.pop()[0] == expected
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert cli.main(args) == 0
    assert fake_pool == []


@pytest.mark.parametrize("argv, blocks, size", [
    (["row", "--max-n", "2", "--max-k", "2"], 4, 1),
    (["prop41", "--n", "6", "--r-set", "1,3", "--bound", "0"], 2, 23040),
], ids=["row", "prop41-n6"])
def test_pool_is_handed_a_task_stream(capsys, monkeypatch, fake_pool, argv, blocks, size):
    # the pool draws from an iterator one block at a time: the tasks that share
    # a prop41 bucket table, (R, n, r, bound), or one task of any other suite
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli.main(["verify", *argv, "--jobs", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == blocks * size
    [(workers, items, chunk, drawn)] = fake_pool
    assert workers == 2 and chunk == 1
    assert not isinstance(items, list) and iter(items) is items
    assert [len(block) for block in drawn] == [size] * blocks
    if argv[0] == "prop41":
        assert [{cli._block_key(task) for task in block} for block in drawn] == [
            {(frozenset({1, 3}), 6, r, 0)} for r in (1, 2)]


def test_pool_blocks_follow_the_stream(capsys, monkeypatch, fake_pool):
    # one block per (R, r) in stream order, and the same bytes as one worker
    argv = ["verify", "prop41", "--n", "4", "--bound", "2", "--jobs"]
    assert cli.main([*argv, "1"]) == 0
    alone = capsys.readouterr().out
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli.main([*argv, "2"]) == 0
    assert capsys.readouterr().out == alone
    [(workers, _, _, drawn)] = fake_pool
    assert workers == 2 and [len(block) for block in drawn] == [192] * 16
    assert [task for block in drawn for task in block] == list(cli._verify_tasks(
        cli.build_parser().parse_args([*argv, "1"])))
    assert [{cli._block_key(task) for task in block} for block in drawn] == [
        {(R, 4, r, 2)} for r in (1, 2) for R in cli._all_subsets(4)]


@pytest.mark.parametrize("argv, digest", [
    ([], "cb9f19d4e1fdda2bee1b7a5eceae71f1a32e8f2a104cf45e9b1c3369888ea057"),
    (["verify"], "dd138fb1d15707d21070e830da2b7971a12adcddb984899ab119f1bda2dcf515"),
    (["evaluate"], "13ffdf4ddeda39b5007f2e8eb5734a784fc41230127de65b883d352baded55e9"),
    (["evaluate", "schur"], "a39f9c13c51a09ead0529f368fe675c8871c39c8de1f9d222d9db5a022f5179c"),
    (["evaluate", "schur-jt"],
     "661efa780f1970df585241467fe47fbcf14c8ec07c4b7241d78d87a3841ed95d"),
    (["evaluate", "fundamental"],
     "e4d99e420df6702d82f429af904a878f5808c43fad773b33aecf2a6e1f125096"),
], ids=["comaj", "verify", "evaluate", "evaluate-schur", "evaluate-schur-jt",
        "evaluate-fundamental"])
def test_help_text_digest(capsys, monkeypatch, argv, digest):
    # argparse wraps help to the terminal width, so fix it; recorded under Python 3.11
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_every_cache_is_bounded():
    # a long sweep reads ever more keys; only the argument-free parser may
    # keep an unbounded cache
    unbounded = set()
    for info in pkgutil.iter_modules(comaj.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"comaj.{info.name}")
        for fn in vars(module).values():
            if hasattr(fn, "cache_parameters") and fn.cache_parameters()["maxsize"] is None:
                unbounded.add(f"{fn.__module__}.{fn.__qualname__}")
    assert unbounded == {"comaj.cli.build_parser"}
