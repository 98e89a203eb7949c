import json
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import OrderedDict
from fractions import Fraction

import pytest

from spinel import __version__, arith, curves, fields, spinspace, spinstruct
from spinel.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("spin_p3_n1", ["spin", "--p", "3", "--n", "1", "--json"]),
    ("spin_p3_n1_plus", ["spin", "--p", "3", "--n", "1", "--tau-sign", "plus", "--json"]),
    ("spin_p3_n2", ["spin", "--p", "3", "--n", "2", "--json"]),
    ("spin_p2_n1", ["spin", "--p", "2", "--n", "1", "--json"]),
    # tau = +p^n with n even lifts to the rational z = p^(n/2) in K = Q(i)
    ("spin_p2_n2_plus", ["spin", "--p", "2", "--n", "2", "--tau-sign", "plus", "--json"]),
    ("spin_p7_n4_plus", ["spin", "--p", "7", "--n", "4", "--tau-sign", "plus", "--json"]),
    ("lfunc_p3_n1_s1", ["lfunc", "--p", "3", "--n", "1", "--s", "1", "--json"]),
    ("lfunc_p3_n1_s1_3", ["lfunc", "--p", "3", "--n", "1", "--s", "1/3", "--json"]),
    # written from `--s=-3/4`: the spaced form reads the same value
    ("lfunc_p3_n1_s_neg3_4", ["lfunc", "--p", "3", "--n", "1", "--s", "-3/4", "--json"]),
    # p = 1 mod 4 and n even: no structure, so the identity is vacuous
    ("lfunc_p5_n2", ["lfunc", "--p", "5", "--n", "2", "--json"]),
    ("classify_p5_a1", ["classify", "--p", "5", "--a", "1", "--json"]),
    ("crystal_p3_n1", ["crystal", "--p", "3", "--n", "1", "--json"]),
    ("crystal_p3_n2", ["crystal", "--p", "3", "--n", "2", "--json"]),
    ("bpinf_p5", ["bpinf", "--p", "5", "--json"]),
    ("curves_q9_census", ["curves", "--q", "9", "--json"]),
    # the p >= 5 census rows, and the characteristic-2 rows
    ("curves_q49_census", ["curves", "--q", "49", "--json"]),
    ("curves_q8_census", ["curves", "--q", "8", "--json"]),
    ("curves_q9_q14", ["curves", "--q", "9", "--find-q14", "--json"]),
    # F_{127^2}, the largest p^2 field within the construction limit
    ("curves_q16129_q14", ["curves", "--q", "16129", "--find-q14", "--json"]),
    ("hilbert_m1_m3", ["hilbert", "--a", "-1", "--b", "-3", "--json"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_ci_diffs_every_golden():
    # the workflow runs the installed script on each golden case, byte for byte
    workflow = (pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    missing = [
        name for name, argv in GOLDEN_CASES if f"{' '.join(argv)} | diff - tests/golden/{name}.json" not in workflow
    ]
    assert missing == []


def test_json_output_is_stable_and_parseable(capsys):
    assert main(["spin", "--p", "2", "--n", "1", "--json"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["disc"] == -2
    assert doc["tau"] == -2
    assert main(["spin", "--p", "2", "--n", "1", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_spin_positive_tau_has_no_lift(capsys):
    assert main(["spin", "--p", "3", "--n", "1", "--tau-sign", "plus", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"] == 3
    assert doc["lift"] is None
    assert doc["slope"] is None


def test_spin_missing_structure_is_a_clean_error(capsys):
    rc = main(["spin", "--p", "5", "--n", "2", "--json"])
    out = capsys.readouterr()
    assert rc == 1
    doc = json.loads(out.out)
    assert doc["error"] == "no-spin-structure"
    assert "p = 5" in doc["detail"]


def test_spin_even_n_structure_exists(capsys):
    rc = main(["spin", "--p", "3", "--n", "2", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["delta"] == -1
    assert doc["tau"] == -9
    assert doc["slope"] == "1/4"


IGNORED_BOUND_CASES = [
    ("spin_p2_n1", ["spin", "--p", "2", "--n", "1", "--json"]),
    # tau = +p^n with n even lifts to the rational z = p^(n/2) in K = Q(i)
    ("spin_p2_n2_plus", ["spin", "--p", "2", "--n", "2", "--tau-sign", "plus", "--json"]),
    ("spin_p7_n4_plus", ["spin", "--p", "7", "--n", "4", "--tau-sign", "plus", "--json"]),
    ("spin_p3_n2", ["spin", "--p", "3", "--n", "2", "--json"]),
]


def _assert_goldens_with_bound(monkeypatch, capsys, value):
    monkeypatch.setenv("SPINEL_SEARCH_BOUND", value)
    for name, argv in IGNORED_BOUND_CASES:
        assert main(argv) == 0, (value, argv)
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(), (value, argv)


def test_search_bound_env_var(monkeypatch, capsys):
    # the witnesses are read off B_{p,oo} with no search, so no box applies:
    # an empty or a negative SPINEL_SEARCH_BOUND changes nothing
    for value in ("0", "-1", "50"):
        _assert_goldens_with_bound(monkeypatch, capsys, value)


def test_large_search_bound_answers_fast(monkeypatch, capsys):
    # a huge box answers as fast as the default and with the same output
    for argv in (["spin", "--p", "3", "--n", "2", "--json"], ["spin", "--p", "2", "--n", "1", "--json"]):
        monkeypatch.delenv("SPINEL_SEARCH_BOUND", raising=False)
        assert main(argv) == 0
        default = capsys.readouterr().out
        monkeypatch.setenv("SPINEL_SEARCH_BOUND", "1000000000")
        t0 = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - t0
        assert rc == 0, argv
        assert capsys.readouterr().out == default
        assert elapsed < 1.0, (argv, elapsed)


def test_bad_env_var_is_reported(monkeypatch, capsys):
    # the CLI no longer reads SPINEL_SEARCH_BOUND, so a malformed value is
    # not an error: the answers are the goldens and no error line is printed
    _assert_goldens_with_bound(monkeypatch, capsys, "soon")
    assert main(["spin", "--p", "3", "--n", "1", "--json"]) == 0
    assert "error" not in json.loads(capsys.readouterr().out)


def test_closed_stdout_exits_1_without_traceback():
    # the JSON of every class over F_{2^28} is far beyond a pipe buffer
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "spinel", "classify", "--p", "2", "--a", "28", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_usage_errors_exit_2(capsys):
    assert main(["unknown-command"]) == 2
    capsys.readouterr()
    assert main(["spin", "--p", "3"]) == 2  # missing --n
    capsys.readouterr()
    assert main(["spin", "--p", "3", "--n", "-1"]) == 2
    capsys.readouterr()
    assert main(["hilbert", "--a", "x", "--b", "2"]) == 2
    capsys.readouterr()
    assert main(["hilbert", "--a", "1", "--b", "2", "--place", "infinity"]) == 2
    capsys.readouterr()


def test_domain_errors_exit_1(capsys):
    assert main(["curves", "--q", "12", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] != ""
    assert main(["curves", "--q", "5", "--find-q14", "--json"]) == 1
    capsys.readouterr()
    assert main(["hilbert", "--a", "0", "--b", "2", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "zero-input"
    assert main(["crystal", "--p", "3", "--n", "1", "--ell", "3", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "precheck-failed"
    for ell in ("1", "4"):
        assert main(["crystal", "--p", "3", "--n", "1", "--ell", ell, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "not-prime"
    assert main(["classify", "--p", "6", "--a", "1", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "not-prime"


def test_spin_and_crystal_report_one_missing_structure(capsys):
    # p = 5 = 1 mod 4: B_{5,oo} has no pure quaternion of norm 1, so no even n has a structure
    docs = []
    for cmd in ("spin", "crystal"):
        assert main([cmd, "--p", "5", "--n", "2", "--json"]) == 1
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]
    assert json.loads(docs[0]) == {
        "error": "no-spin-structure",
        "detail": "no arithmetic spin structure for p = 5, n = 2: "
        "B_{p,oo} has no pure quaternion of norm 1",
    }


#: commands with a fraction option; VALUE marks where the fraction goes
FRACTION_OPTIONS = {
    "lfunc-s": ["lfunc", "--p", "3", "--n", "1", "--s", "VALUE"],
    "hilbert-a": ["hilbert", "--a", "VALUE", "--b", "-3"],
    "hilbert-b": ["hilbert", "--a", "2", "--b", "VALUE"],
}


@pytest.mark.parametrize("value", ["-3/4", "-1/3", "-7/2", "-2", "-0.5"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", FRACTION_OPTIONS)
def test_negative_fraction_with_a_space_reads_like_equals(case, as_json, value, capsys):
    argv = FRACTION_OPTIONS[case] + (["--json"] if as_json else [])
    at = argv.index("VALUE")
    spaced = argv[:at] + [value] + argv[at + 1:]
    joined = argv[: at - 1] + [f"{argv[at - 1]}={value}"] + argv[at + 1:]
    assert main(joined) == 0
    want = capsys.readouterr()
    assert main(spaced) == 0
    assert capsys.readouterr() == want
    if as_json and case == "lfunc-s":
        assert json.loads(want.out)["numeric"]["s"] == str(Fraction(value))


@pytest.mark.parametrize(
    "argv",
    [
        ["lfunc", "--p", "3", "--n", "1", "--s"],
        ["lfunc", "--p", "3", "--n", "1", "--s", "--json"],
        ["hilbert", "--a", "--b", "-3"],
        ["hilbert", "--a", "2", "--b"],
        ["lfunc", "--p", "3", "--n", "1", "--s", "-3/0"],
        ["lfunc", "--p", "-3/4", "--n", "1"],
    ],
    ids=["s-last", "s-then-json", "a-then-b", "b-last", "zero-denominator", "negative-p"],
)
def test_missing_or_bad_fraction_exits_2(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "usage:" in out.err


def test_human_readable_error_goes_to_stderr(capsys):
    rc = main(["classify", "--p", "6", "--a", "1"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert "not prime" in out.err or "prime" in out.err


def test_failed_library_check_is_an_internal_error(monkeypatch, capsys):
    # a reducible modulus makes the field build's orbit check fail: the CLI
    # reports it with a stable code and exit 1, not a traceback
    monkeypatch.setattr(fields, "_EXTENSIONS", OrderedDict())
    monkeypatch.setattr(fields, "_smallest_modulus", lambda p, a: (1, 0))
    assert main(["curves", "--q", "4", "--json"]) == 1
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert doc["error"] == "internal-error" and "reducible" in doc["detail"]
    assert out.err == ""
    assert main(["curves", "--q", "4"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error (internal-error): ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def _internal_error(capsys, argv) -> str:
    assert main(argv) == 1
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert doc["error"] == "internal-error" and out.err == ""
    return doc["detail"]


def test_failed_spin_checks_name_p_n_and_tau(monkeypatch, capsys):
    # a square that is not z^2 fails spin_lift's check, and a missing lift
    # fails the crystal and the identity; each detail names the input
    monkeypatch.setattr(spinspace.EtaleElement, "square", lambda self: self)
    detail = _internal_error(capsys, ["spin", "--p", "3", "--n", "1", "--json"])
    assert detail == "p = 3, n = 1, tau = -3: z^2 != tau for z = x"
    monkeypatch.undo()
    monkeypatch.setattr(spinstruct, "spin_lift", lambda r: None)
    for command in ("crystal", "lfunc"):
        detail = _internal_error(capsys, [command, "--p", "3", "--n", "1", "--json"])
        assert detail == "p = 3, n = 1, tau = -3: tau has no spin lift", command


def test_failed_spin_check_survives_python_O():
    # the checks are explicit raises, so `python -O` strips none of them
    code = (
        "import sys; from spinel import spinspace; from spinel.cli import main; "
        "spinspace.EtaleElement.square = lambda self: self; "
        "sys.exit(main(['spin', '--p', '3', '--n', '1', '--json']))"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1, out.stderr
    assert json.loads(out.stdout) == {
        "detail": "p = 3, n = 1, tau = -3: z^2 != tau for z = x",
        "error": "internal-error",
    }


def test_hilbert_single_place(capsys):
    assert main(["hilbert", "--a", "-1", "--b", "-1", "--place", "oo", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["symbols"] == {"oo": -1}
    assert doc["product"] == -1


def test_lfunc_inexact_values_are_correctly_rounded(capsys):
    # L(E, 1/3) = 0.1676563149664450453... and L(rho_spin, 1/3) =
    # 0.5905414368138760669... at 80 digits, rounded to 17 significant digits
    assert main(["lfunc", "--p", "3", "--n", "1", "--s", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "L(E, 1/3) = 0.16765631496644505\n" in out
    assert "L(rho_spin, 1/3) = 0.59054143681387607\n" in out
    assert main(["lfunc", "--p", "3", "--n", "1", "--s", "1/3", "--json"]) == 0
    numeric = json.loads(capsys.readouterr().out)["numeric"]
    assert numeric["l_curve"] == numeric["l_spin_half_sq"] == "0.16765631496644505"
    assert numeric["l_spin"] == "0.59054143681387607"


def test_lfunc_inexact_digits_are_pinned(capsys):
    # the 17-digit strings of all four values at every benchmark s where
    # q^(1/2 - s) or q^(1/2 - 2s) is irrational, for p in {2, 3, 7, 11, 65521}
    # and n <= 6, as the 40-digit mpmath route printed them
    pinned = json.loads((GOLDEN / "lfunc_inexact_digits.json").read_text())
    assert len(pinned) == 105
    for key, want in pinned.items():
        p, n, s = key.split()
        assert main(["lfunc", "--p", p, "--n", n, "--s", s, "--json"]) == 0
        numeric = json.loads(capsys.readouterr().out)["numeric"]
        got = [numeric[k] for k in ("l_curve", "l_spin", "l_spin_half", "l_spin_half_sq")]
        assert got == want, key


@pytest.mark.parametrize(
    "s",
    [
        "3/2305843009213693951",  # q^(1/2 - s) = 2^(k/d) with k = 2^61 - 7
        # q^(1/2 - s) = 2^(1/d), d = 2^61 - 1, but q^(1/2 - 2s) = 2^((2 - d)/d)
        "1152921504606846975/2305843009213693951",
    ],
    ids=["large-k", "large-d"],
)
def test_lfunc_irrational_power_beyond_the_limit_fails_fast(s, capsys):
    t0 = time.perf_counter()
    assert main(["lfunc", "--p", "2", "--n", "1", "--s", s, "--json"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert json.loads(capsys.readouterr().out)["error"] == "bound-exceeded"


def test_lfunc_power_limit_detail_names_p_n_and_s(capsys):
    assert main(["lfunc", "--p", "3", "--n", "1", "--s", "3/2305843009213693951", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "detail": "p = 3, n = 1, s = 3/2305843009213693951: 3^2305843009213693945 is at or above "
        "2^4096, the exact power limit",
        "error": "bound-exceeded",
    }
    # the second check, on the exponent 2n(1/2 - 2s) = 4097 of L(rho_spin, s),
    # refuses after the first passed 2n(1/2 - s) = 2049
    assert main(["lfunc", "--p", "2", "--n", "1", "--s", "-1024", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "detail": "p = 2, n = 1, s = -1024: 2^4097 is at or above 2^4096, the exact power limit",
        "error": "bound-exceeded",
    }


#: above arith.PRIMALITY_BOUND, with no prime factor below 1024
BEYOND_PROOF = 340282366920938463463374607431768211297


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["crystal", "--p", "3", "--n", "1", "--ell", str(BEYOND_PROOF)], f"ell = {BEYOND_PROOF}: "),
        (["hilbert", "--a", "2", "--b", "3", "--place", str(BEYOND_PROOF)], f"place {BEYOND_PROOF}: "),
        (["spin", "--p", str(BEYOND_PROOF), "--n", "1"], f"p = {BEYOND_PROOF}: "),
        (["bpinf", "--p", str(BEYOND_PROOF)], f"p = {BEYOND_PROOF}: "),
        (["classify", "--p", str(BEYOND_PROOF), "--a", "1"], f"p = {BEYOND_PROOF}: "),
    ],
    ids=["crystal-ell", "hilbert-place", "spin-p", "bpinf-p", "classify-p"],
)
def test_primality_bound_detail_names_the_argument(argv, prefix, capsys):
    detail = f"{prefix}{BEYOND_PROOF} exceeds primality bound {arith.PRIMALITY_BOUND}"
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"detail": detail, "error": "bound-exceeded"}
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error (bound-exceeded): {detail}\n")


@pytest.mark.parametrize(
    "s, want",
    [
        # roots of degree 50, and 12283, the largest any s allows at p = 2, n = 1
        ("1/100", ["0.11317913782727735", "0.33952284673241901", "0.33642107221052214"]),
        ("4094/12283", ["0.19579213735426475", "0.5574881042468069", "0.4424840532202994"]),
    ],
    ids=["d50", "d12283"],
)
def test_lfunc_roots_of_high_degree_print_the_mpmath_digits(s, want, capsys):
    # the digits the 40-digit mpmath route printed, since p^|k| is far below
    # the exact power limit however large the root degree d
    assert main(["lfunc", "--p", "2", "--n", "1", "--s", s, "--json"]) == 0
    numeric = json.loads(capsys.readouterr().out)["numeric"]
    assert [numeric[k] for k in ("l_curve", "l_spin", "l_spin_half")] == want
    assert numeric["l_spin_half_sq"] == want[0]


def test_version(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) >= 7
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("passed")


def test_selftest_json(capsys):
    assert main(["selftest", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 0
    assert doc["passed"] >= 6
    assert all(doc["results"].values())


@pytest.mark.parametrize("q", ["1099511627776", "16777216"])  # 2^40 and 2^24
def test_huge_field_fails_fast(q, capsys):
    t0 = time.perf_counter()
    rc = main(["curves", "--q", q, "--json"])
    elapsed = time.perf_counter() - t0
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["error"] == "field-too-large"
    assert elapsed < 1.0


@pytest.mark.parametrize("q", ["9973", "64"])
def test_census_over_scan_limit_fails_fast(q, capsys):
    t0 = time.perf_counter()
    rc = main(["curves", "--q", q, "--json"])
    elapsed = time.perf_counter() - t0
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "field-too-large"
    assert f"F_{q}" in doc["detail"]
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "q,size",
    [("64", 16773120), ("9973", 497303645), ("15625", 1220703125), ("16384", 72057593769492480)],
)
def test_census_refused_with_the_scan_size(q, size, capsys):
    # trace_census refuses the scan itself; building F_q first is cheap
    # (F_{2^14}, the largest, in about 20 ms)
    t0 = time.perf_counter()
    assert main(["curves", "--q", q, "--json"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert json.loads(capsys.readouterr().out) == {
        "detail": f"trace census over F_{q}: the normal-form scan needs {size} point "
        "evaluations, over the census limit 10000000",
        "error": "field-too-large",
    }


@pytest.mark.parametrize("command", ["spin", "crystal", "lfunc"])
@pytest.mark.parametrize(
    "p,n,doc",
    [
        ("4", "5000", {"detail": "4 is not prime", "error": "not-prime"}),
        (
            "3",
            "2048",
            {
                "detail": "p = 3, n = 2048: 3^4096 is at or above 2^4096, the exact power limit",
                "error": "bound-exceeded",
            },
        ),
    ],
    ids=["composite-p", "power-limit"],
)
def test_one_error_per_p_and_n(command, p, n, doc, capsys):
    # every command checks (p, n) in one order: p prime, then the power limit
    assert main([command, "--p", p, "--n", n, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == doc


def test_hilbert_zero_input_detail(capsys):
    assert main(["hilbert", "--a", "0", "--b", "2", "--json"]) == 1
    out = capsys.readouterr().out
    assert out == '{"detail": "cannot factor 0", "error": "zero-input"}\n'


def test_hilbert_bound_detail_names_the_value_given(capsys):
    # b = 3 (2^31 - 1)^2 is stripped of a's 3 before the factoring refuses it
    b = 3 * (2**31 - 1) ** 2
    assert main(["hilbert", "--a", "3", "--b", str(b), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "detail": f"{b} leaves the composite cofactor {(2**31 - 1) ** 2}, above factor bound {2**48}",
        "error": "bound-exceeded",
    }


@pytest.mark.parametrize(
    "argv,detail",
    [
        (["curves", "--q", "1"], "q = 1 is not a prime power"),
        (["curves", "--q", "6"], "q = 6 is not a prime power"),
        (["curves", "--q", "8", "--find-q14"], "--find-q14 needs q = p^2"),
    ],
    ids=["q1", "q6", "q8-find-q14"],
)
def test_curves_refusals_have_a_stable_code(argv, detail, capsys):
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"detail": detail, "error": "precheck-failed"}


def test_classify_over_scan_limit_fails_fast(capsys):
    t0 = time.perf_counter()
    rc = main(["classify", "--p", "2", "--a", "60", "--json"])
    elapsed = time.perf_counter() - t0
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "bound-exceeded"
    assert "2^60" in doc["detail"]
    assert elapsed < 1.0


def test_classify_at_scan_limit(capsys):
    # q = 2^29 scans 92,681 traces and answers with the 46,340 odd traces,
    # 0 and +-2^15; q = 2^30 would scan 131,073
    t0 = time.perf_counter()
    assert main(["classify", "--p", "2", "--a", "29", "--json"]) == 0
    elapsed = time.perf_counter() - t0
    assert len(json.loads(capsys.readouterr().out)) == 46340 + 3
    assert elapsed < 5.0
    assert main(["classify", "--p", "2", "--a", "30", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "bound-exceeded"
    assert "131073" in doc["detail"]


def test_find_q14_at_field_limit(capsys):
    # q = 127^2 = 16129, the largest p^2 within the field limit 2^14
    t0 = time.perf_counter()
    assert main(["curves", "--q", "16129", "--find-q14", "--json"]) == 0
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == 128**2 and doc["supersingular"]
    assert elapsed < 5.0


def test_find_q14_counts_the_curve_once(monkeypatch, capsys):
    # find_q14_curve counts the F_{p^2} curve to check it, and the command
    # counts it once more for points, trace and supersingularity
    counted = []
    count_points = curves.count_points

    def counting(E):
        if E.field.a == 2:
            counted.append(E)
        return count_points(E)

    monkeypatch.setattr(curves, "count_points", counting)
    assert main(["curves", "--q", "289", "--find-q14", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["points"], doc["trace"], doc["supersingular"]) == (18**2, -34, True)
    assert len(counted) == 2


@pytest.mark.parametrize(
    "argv,rc,error",
    [
        # p = 2^61 - 1: primality is decided before the trace-scan limit refuses it
        (["classify", "--p", "2305843009213693951", "--a", "1"], 1, "bound-exceeded"),
        # a prime just below the 2^48 factor bound
        (["bpinf", "--p", "281474976710597"], 0, None),
        (["spin", "--p", "281474976710597", "--n", "1"], 0, None),
        # certified primes past the factor bound, which prices rho alone;
        # p48 = 1 mod 4 has no structure at even n
        (["spin", "--p", "281474976710597", "--n", "2"], 1, "no-spin-structure"),
        (["lfunc", "--p", "281474976710597", "--n", "2"], 0, None),
        (["bpinf", "--p", "2305843009213693951"], 0, None),
        (["spin", "--p", "2305843009213693951", "--n", "1"], 0, None),
        (["crystal", "--p", "2305843009213693951", "--n", "3"], 0, None),
        (["lfunc", "--p", "2305843009213693951", "--n", "1", "--s", "1/3"], 0, None),
        (["spin", "--p", "1000000000000037", "--n", "3"], 0, None),
        (["curves", "--q", str(2**50)], 1, "field-too-large"),
    ],
    ids=[
        "classify-mersenne61", "bpinf-p48", "spin-p48", "spin-p48-n2", "lfunc-p48-n2",
        "bpinf-mersenne61", "spin-mersenne61", "crystal-mersenne61-n3", "lfunc-mersenne61-s1_3",
        "spin-p10_15", "curves-q2_50",
    ],
)
def test_large_prime_fails_or_answers_fast(argv, rc, error, capsys):
    t0 = time.perf_counter()
    got = main(argv + ["--json"])
    elapsed = time.perf_counter() - t0
    assert got == rc
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("error") == error
    assert elapsed < 1.0


# --- fuzz gate over the argument space ----------------------------------------

_M61 = str(2**61 - 1)

#: integers around every limit: the field order 2^14 (16129 = 127^2, 16411 the
#: first prime above), the census scan (32, 64, 81, 243, 1409), the trace scan
#: (2^29, 2^30), the factor bound 2^48, the primality bound, the exact power
#: limit 2^4096 (n = 2047, 2048 for p = 2), and the out-of-range 0 and negatives
_FUZZ_INTS = [
    "1", "2", "3", "5", "7", "13", "17", "127", "0", "-1", "-7", _M61,
    str(2**14 - 1), str(2**14), str(2**14 + 1), "16129", "16411",
    "32", "64", "81", "243", "1409", "29", "30", "2047", "2048", "2049",
    str(2**48 - 1), str(2**48), str(2**48 + 1), "281474976710597",
    "3317044064679887385961980", "3317044064679887385961981", "3317044064679887385961982",
    "99999", "100000", "100001",
]
_FUZZ_WORDS = ["x", "1/2", "", "1e3", "0x10", " 5", "oo"]
_FUZZ_FRACTIONS = _FUZZ_INTS + _FUZZ_WORDS + ["-3/4", "7/9", "1/0", "0/5", "3/" + _M61, "-" + _M61]

#: inputs the gate found hanging or raising before the library bounded its
#: exact powers: p^n, p^a and q^s with exponents in the thousands and beyond
_FUZZ_FOUND = [
    ["classify", "--p", "31", "--a", "16129", "--json"],
    ["classify", "--p", "3", "--a", "100000"],
    ["spin", "--p", "31", "--n", "100000", "--json"],
    ["spin", "--p", "3317044064679887385961982", "--n", "3317044064679887385961982"],
    ["crystal", "--p", "7", "--n", "281474976710655", "--json"],
    ["crystal", "--p", "81", "--n", _M61, "--ell", "16383", "--json"],
    ["lfunc", "--p", "17", "--n", "10000000", "--json"],
    ["lfunc", "--p", "3", "--n", "1415", "--s", "2", "--json"],
    ["lfunc", "--p", "281474976710597", "--n", "100000", "--json"],
    ["lfunc", "--p", "2", "--n", "1", "--s", "-" + _M61, "--json"],
]


def _fuzz_argv(rng):
    def pick(pool=_FUZZ_INTS):
        # in-range small values 40% of the time, so commands also answer
        r = rng.random()
        return rng.choice(_FUZZ_WORDS if r < 0.1 else _FUZZ_INTS[:8] if r < 0.5 else pool)

    cmd = rng.choice(["hilbert", "bpinf", "classify", "spin", "lfunc", "curves", "crystal", "selftest"])
    argv = [cmd]
    if cmd == "hilbert":
        argv += ["--a", pick(_FUZZ_FRACTIONS), "--b", pick(_FUZZ_FRACTIONS)]
        if rng.random() < 0.4:
            argv += ["--place", pick(_FUZZ_INTS + ["oo"])]
    elif cmd == "bpinf":
        argv += ["--p", pick()]
    elif cmd == "classify":
        argv += ["--p", pick(), "--a", pick()]
    elif cmd in ("spin", "lfunc", "crystal"):
        argv += ["--p", pick(), "--n", pick()]
        if cmd == "spin" and rng.random() < 0.3:
            argv += ["--tau-sign", rng.choice(["plus", "minus", "zero"])]
        if cmd == "lfunc" and rng.random() < 0.5:
            argv += ["--s", pick(_FUZZ_FRACTIONS)]
        if cmd == "crystal" and rng.random() < 0.5:
            argv += ["--ell", pick()]
    elif cmd == "curves":
        argv += ["--q", pick()]
        argv += rng.choice([[], [], ["--census"], ["--find-q14"], ["--find-q14"]])
    if rng.random() < 0.8:
        argv.append("--json")
    if rng.random() < 0.05:
        rng.shuffle(argv)
    return argv


def test_fuzz_gate(capsys):
    # every argv exits 0, 1 or 2 inside the wall budget, without a traceback,
    # and a --json call that reaches a command prints one JSON document
    rng = random.Random(8)
    argvs = _FUZZ_FOUND + [_fuzz_argv(rng) for _ in range(400)]
    start = time.perf_counter()
    for argv in argvs:
        t0 = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert rc in (0, 1, 2), argv
        assert elapsed < 3.0, (argv, elapsed)
        if "--json" in argv and rc != 2:
            assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
            json.loads(out)
    assert time.perf_counter() - start < 10.0
