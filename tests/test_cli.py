"""Command-line behaviour: reports, determinism, plan round trips, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import tricache
from tricache import cli, delivery, planfile
from tricache.cli import load_plan, main
from tricache.system import build_config, mask_of, packet, random_demand, worst_demand, xor_sum

from conftest import reference_plan_lines
from test_mn import elimination_oracle


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_simulate_lap_k8(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        ["simulate", "--K", "8", "--lambda", "1/2", "--scheme", "lap",
         "--demand", "worst", "--output", str(report_path)],
        capsys,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["R"]["float"] == 0.4
    assert report["R"]["exact"] == "2/5"
    assert report["verified"] is True
    assert report["loads"] == {"A": 28, "B": 28, "P": 28}


def test_simulate_mn_k6(tmp_path, capsys):
    report_path = tmp_path / "mn.json"
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "mn",
         "--output", str(report_path)],
        capsys,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["R"]["float"] == 0.75
    assert report["loads"] == {"single": 15}
    assert report["verified"] is True


def test_simulate_rejects_non_integral_t(capsys):
    code, _, err = run(["simulate", "--K", "8", "--lambda", "1/3"], capsys)
    assert code == 2
    assert "not an integer" in err


def test_simulate_scheme_that_cannot_serve_the_system_is_invalid_use(capsys):
    # K=4, t=1: improved leaves the one-sided subset {2, 3} unmatched, and no
    # two-server split serves it; that is a refused invocation, not a failed
    # verification
    code, out, err = run(["simulate", "--K", "4", "--lambda", "1/4", "--scheme", "improved"],
                         capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(2, 3)" in err and "Traceback" not in err
    assert out == ""


def test_simulate_requires_seed_for_random(capsys):
    code, _, err = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--demand", "random"], capsys
    )
    assert code == 2
    assert "seed" in err


def test_simulate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "improved",
             "--demand", "random", "--seed", "42", "--output", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_report_names_first_failed_packet(tmp_path, capsys, monkeypatch):
    # verify a plan short of its first broadcast, so users fail to decode
    real = tricache.delivery.verify_plan
    seen = []

    def short_plan_verify(plan):
        first = plan.groups[0]
        short = dataclasses.replace(first, broadcasts=first.broadcasts[1:])
        problems, recovery = real(dataclasses.replace(plan, groups=(short,) + plan.groups[1:]))
        seen.extend(recovery.failures())
        return problems, recovery

    monkeypatch.setattr(tricache.delivery, "verify_plan", short_plan_verify)
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "improved",
         "--output", str(report_path)],
        capsys,
    )
    assert code == 1 and seen
    failures = json.loads(report_path.read_text())["failures"]
    assert failures[:len(seen)] == [
        {"user": u.user, "missing": u.missing,
         "first_failed": [u.first_failed.server, u.first_failed.file_index,
                          list(u.first_failed.subset)]}
        for u in seen
    ]


def test_simulate_csv_format(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, _, _ = run(
        ["simulate", "--K", "8", "--lambda", "1/2", "--scheme", "lap",
         "--format", "csv", "--output", str(path)],
        capsys,
    )
    assert code == 0
    header, row = path.read_text().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["R_exact"] == "2/5"
    assert cells["verified"] == "True"


def test_plan_roundtrip_and_tampering(tmp_path, capsys):
    plan_path = tmp_path / "plan.jsonl"
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "lap",
         "--output", str(tmp_path / "r.json"), "--plan-out", str(plan_path)],
        capsys,
    )
    assert code == 0

    code, out, _ = run(["verify", "--plan", str(plan_path)], capsys)
    assert code == 0
    assert "plan ok" in out

    # drop a full pair group: coverage failure names the orphaned subsets
    lines = plan_path.read_text().splitlines()
    pair_keys = [json.loads(l) for l in lines if '"pair"' in l]
    victim = (tuple(pair_keys[0]["s1"]), tuple(pair_keys[0]["s2"]))
    kept = [
        l for l in lines
        if '"pair"' not in l
        or (tuple(json.loads(l)["s1"]), tuple(json.loads(l)["s2"])) != victim
    ]
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(kept) + "\n")
    code, out, _ = run(["verify", "--plan", str(broken)], capsys)
    assert code == 1
    assert "not served" in out

    # corrupt a parity line: origin audit names the twin violation
    def corrupt(line):
        rec = json.loads(line)
        if rec.get("kind") == "pair" and rec["origin"] == "P" and rec["payload"]:
            rec["payload"] = rec["payload"][1:]
            return json.dumps(rec, sort_keys=True)
        return line

    mutated = [corrupt(l) for l in lines]
    broken2 = tmp_path / "broken2.jsonl"
    broken2.write_text("\n".join(mutated) + "\n")
    code, out, _ = run(["verify", "--plan", str(broken2)], capsys)
    assert code == 1
    assert "twin" in out


def test_curves_csv(tmp_path, capsys):
    path = tmp_path / "curves.csv"
    code, _, err = run(
        ["curves", "--K", "14,22,30", "--lambdas", "1/2,1/3", "--output", str(path)],
        capsys,
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("lambda,lambda_num,lambda_den,K,t,regime,n_exact,ni_exact,ni_over_n")
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    assert len(rows) == 3  # lambda = 1/3 admits no odd-t point here
    k30 = next(r for r in rows if r["K"] == "30")
    assert k30["ni_over_n_num"] == "37" and k30["ni_over_n_den"] == "75"
    assert float(k30["ni_over_n"]) == pytest.approx(0.493333333333)
    assert "skipped" in err


def test_curves_empty_grid(capsys):
    code, _, err = run(["curves", "--K", "16", "--lambdas", "1/2"], capsys)
    assert code == 2
    assert "no admissible" in err


def test_curves_large_k_golden(capsys):
    # every row's C(K, t+1), and the window seed of every row but two, take
    # analysis.binom's prime path; the digest was recorded while math.comb
    # computed them all
    code, out, _ = run(["curves", "--K", "2060,4100,6020,7940", "--lambdas", "1/4,9/20,3/4"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 12 and {r.split(",")[5] for r in rows} == {"1", "2", "3"}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4e872fc01b3a05452887fa379995ab584568f83ee924805c8845ac449fb9a54e")


def test_curves_far_above_t_sieve_nothing(fresh_sieve, capsys):
    code, out, _ = run(["curves", "--K", "100000000", "--lambdas", "3/100000000"], capsys)
    assert code == 0 and len(out.splitlines()) == 2
    assert len(fresh_sieve._primes) <= 1000


def test_decimal_lambdas_read_exactly(tmp_path, capsys):
    # Fraction reads a decimal string exactly, so 0.5 is the fraction 1/2
    outputs = {}
    for lam in ("1/2", "0.5"):
        assert main(["simulate", "--K", "12", "--lambda", lam,
                     "--output", str(tmp_path / f"r{len(outputs)}.json")]) == 0
        assert main(["curves", "--K", "14,22", "--lambdas", lam,
                     "--output", str(tmp_path / f"c{len(outputs)}.csv")]) == 0
        outputs[lam] = [(tmp_path / f"{kind}{len(outputs)}.{ext}").read_bytes()
                        for kind, ext in (("r", "json"), ("c", "csv"))]
    assert outputs["0.5"] == outputs["1/2"]


@pytest.fixture
def default_int_str_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-text digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_curves_skip_points_over_the_digit_limit(tmp_path, capsys, default_int_str_limit):
    # C(16002, 8002) has 4815 digits, over the default limit of 4300
    code, _, err = run(["curves", "--K", "16002", "--lambdas", "1/2"], capsys)
    assert code == 2
    assert "skipped lambda=1/2 K=16002: C(16002, 8002) has about 4815 digits" in err
    assert "no admissible" in err
    assert "Traceback" not in err

    path = tmp_path / "curves.csv"
    code, _, err = run(
        ["curves", "--K", "14,16002", "--lambdas", "1/2", "--output", str(path)], capsys
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[3:5] == ["14", "7"]
    assert "K=16002" in err


def test_curves_skip_reason_past_the_digit_limit_prints(capsys, default_int_str_limit):
    # 1e4299 passes the text check (1 + 4299 = 4300 digits), but t = K*lambda
    # has 4301, so its skip reason spells t by its digit count
    start = time.perf_counter()
    code, out, err = run(["curves", "--K", "10", "--lambdas", "1/2,1e4299"], capsys)
    assert code == 0 and out.count("\n") == 2
    (line,) = err.splitlines()
    assert line == f"skipped lambda=1{'0' * 4299} K=10: t = <4301 digits> outside [1, 9]"
    code, out, err = run(["curves", "--K", "10", "--lambdas", "1e4299"], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[1:] == ["no admissible grid points"] and "Traceback" not in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("command", ["curves", "simulate", "verify"])
def test_number_text_over_the_digit_limit_exits_2(tmp_path, capsys, default_int_str_limit, command):
    # 1e-5000 spells a 5001-digit denominator, which a skip reason could not
    # print; 1e10000000 and 1e3000000 spell numerators that take seconds to
    # build.  Each is refused from its text, before any number is built.
    if command == "curves":
        text, argv = "1e-5000", ["curves", "--K", "10", "--lambdas", "1e-5000"]
    elif command == "simulate":
        text, argv = "1e10000000", ["simulate", "--K", "4", "--lambda", "1e10000000"]
    else:
        text, path = "1e3000000", tmp_path / "plan.jsonl"
        assert main(["simulate", "--K", "6", "--lambda", "1/2", "--output", str(tmp_path / "r.json"),
                     "--plan-out", str(path)]) == 0
        meta, *body = path.read_text().splitlines(keepends=True)
        path.write_text(meta.replace('"M": "3/1"', f'"M": "{text}"') + "".join(body))
        argv = ["verify", "--plan", str(path)]
    capsys.readouterr()
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: fraction {text!r} could spell a number of more than "
                                "4300 digits, the interpreter's int-to-text limit"]


@pytest.mark.parametrize("text, digits", [
    ("1e-4299", (1, 4300)), ("1e4299", (4300, 1)), (".1e-4298", (1, 4300)),
    ("2/" + "9" * 4298, (1, 4298)), ("0.5", (1, 1)), ("-1_000e-3", (1, 1)), (" 3 ", (1, 1)),
])
def test_number_text_at_the_digit_limit_parses(default_int_str_limit, text, digits):
    # the text before any exponent, plus the exponent, is at most 4300 long
    value = cli.parse_fraction(text)
    assert (len(str(abs(value.numerator))), len(str(value.denominator))) == digits


@pytest.mark.parametrize("text", ["1e-4300", "1e4300", ".1e-4299", "1/" + "9" * 4299,
                                  "9" * 4301, "0." + "0" * 4300 + "1", "1e-00000000000000005000"])
def test_number_text_past_the_digit_limit_is_refused(default_int_str_limit, text):
    with pytest.raises(cli.SpecError, match="could spell a number of more than 4300 digits"):
        cli.parse_fraction(text)


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRICACHE_OUTDIR", str(tmp_path))
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "mn",
         "--output", "nested/report.json"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "nested" / "report.json").exists()


@pytest.mark.parametrize("bad_subset", [[-1], [4000000000], [0, -1]])
def test_verify_survives_foreign_user_ids_in_payload(tmp_path, capsys, bad_subset):
    # a payload term naming no real user is an unknown the decoder cannot
    # resolve; verify must report it, not crash or build a huge bitmask
    plan_path = tmp_path / "plan.jsonl"
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "improved",
         "--output", str(tmp_path / "r.json"), "--plan-out", str(plan_path)],
        capsys,
    )
    assert code == 0
    records = [json.loads(l) for l in plan_path.read_text().splitlines()]
    first_pair = next(r for r in records if r["kind"] == "pair")
    first_pair["payload"][0][2] = bad_subset
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(["verify", "--plan", str(tampered)], capsys)
    assert code in (1, 2)
    assert "Traceback" not in err
    assert "plan ok" not in out


# K=6, t=3, N=6: payload terms that name no packet, index sets that name no subset
BAD_TERMS = {
    "unsorted": ["A", 1, [1, 0, 2]],
    "repeated": ["A", 1, [0, 0, 1]],
    "wrong-size": ["A", 1, [0, 1]],
    "server-C": ["C", 1, [0, 1, 2]],
    "file-0": ["A", 0, [0, 1, 2]],
    "file-past-half": ["A", 4, [0, 1, 2]],
    "nested-user": ["A", 1, [[0], 1, 2]],
    "user-K": ["A", 1, [0, 1, 6]],
    "negative": ["A", 1, [-1, 0, 1]],
    "huge": ["A", 1, [0, 1, 4000000000]],
}
BAD_INDEX_SETS = {
    "unsorted": [2, 1, 0, 3],
    "repeated": [0, 0, 1, 2],
    "short": [0, 1, 2],
    "user-K": [0, 1, 2, 6],
    "negative": [-1, 0, 1, 2],
    "huge": [0, 1, 2, 4000000000],
    "nested-user": [[0], 1, 2, 3],
}


@pytest.mark.parametrize("term", list(BAD_TERMS.values()), ids=list(BAD_TERMS))
def test_verify_rejects_payload_terms_naming_no_packet(tmp_path, capsys, term):
    # K=6, t=3, N=6: a term needs server A or B, a file in 1..3 and three
    # strictly increasing users; anything else would alias a real packet
    plan_path = tmp_path / "plan.jsonl"
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "improved",
         "--output", str(tmp_path / "r.json"), "--plan-out", str(plan_path)],
        capsys,
    )
    assert code == 0
    records = [json.loads(l) for l in plan_path.read_text().splitlines()]
    next(r for r in records if r["kind"] == "pair")["payload"][0] = term
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(["verify", "--plan", str(tampered)], capsys)
    assert code == 2
    assert "payload term" in err
    assert "Traceback" not in err
    assert "plan ok" not in out


@pytest.mark.parametrize("index_set", list(BAD_INDEX_SETS.values()), ids=list(BAD_INDEX_SETS))
def test_verify_rejects_index_sets_naming_no_subset(tmp_path, capsys, index_set):
    # K=6, t=3: an index set needs four strictly increasing users in 0..5;
    # anything else names no subset, so it is invalid input, not an audit failure
    plan_path = tmp_path / "plan.jsonl"
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "improved",
         "--output", str(tmp_path / "r.json"), "--plan-out", str(plan_path)],
        capsys,
    )
    assert code == 0
    records = [json.loads(l) for l in plan_path.read_text().splitlines()]
    next(r for r in records if r["kind"] == "pair")["s1"] = index_set
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(["verify", "--plan", str(tampered)], capsys)
    assert code == 2
    assert f"index set {index_set}" in err
    assert "Traceback" not in err
    assert "plan ok" not in out


def _verify_with(tmp_path, capsys, records, container, field, value):
    """Set container[field], a number in one of the records' payload terms or
    index sets, to value, then verify the records as a plan file."""
    container[field] = value
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    return run(["verify", "--plan", str(tampered)], capsys)


def _k6_records(tmp_path):
    return [json.loads(l) for l in export_plan(tmp_path, "6", "1/2", "improved")]


def _number_in(records, where, occurrence):
    """The (container, field) of the first or last occurrence of user 0 in
    the commonest payload user list ("user"), of file 1 in a payload term
    ("file"), or of user 0 in a pair's s1 ("set-user")."""
    if where == "user":
        lists = [p[2] for r in records[1:] for p in r["payload"] if p[2][0] == 0]
        common = max(lists, key=lists.count)
        assert lists.count(common) > 1
        return [users for users in lists if users == common][occurrence], 0
    if where == "file":
        return [p for r in records[1:] for p in r["payload"] if p[1] == 1][occurrence], 1
    return [r["s1"] for r in records[1:] if r["kind"] == "pair" and r["s1"][0] == 0][occurrence], 0


@pytest.mark.parametrize("value", [0.0, False], ids=["float", "bool"])
@pytest.mark.parametrize("occurrence", [0, -1], ids=["first", "last"])
def test_verify_rejects_non_int_payload_users(tmp_path, capsys, value, occurrence):
    # 0.0 and False equal the user 0, so a memo of checked user lists would
    # take them for (0, ...) once that list had been seen, and not before
    records = _k6_records(tmp_path)
    code, out, err = _verify_with(tmp_path, capsys, records,
                                  *_number_in(records, "user", occurrence), value)
    assert code == 2
    assert "payload term" in err and "names no packet" in err
    assert "Traceback" not in err and "plan ok" not in out


@pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("occurrence", [0, -1], ids=["first", "last"])
def test_verify_rejects_non_int_file_index(tmp_path, capsys, value, occurrence):
    records = _k6_records(tmp_path)
    code, out, err = _verify_with(tmp_path, capsys, records,
                                  *_number_in(records, "file", occurrence), value)
    assert code == 2
    assert "payload term" in err and "names no packet" in err
    assert "Traceback" not in err and "plan ok" not in out


@pytest.mark.parametrize("value", [0.0, False], ids=["float", "bool"])
@pytest.mark.parametrize("occurrence", [0, -1], ids=["first", "last"])
def test_verify_rejects_non_int_index_set_users(tmp_path, capsys, value, occurrence):
    records = _k6_records(tmp_path)
    code, out, err = _verify_with(tmp_path, capsys, records,
                                  *_number_in(records, "set-user", occurrence), value)
    assert code == 2
    assert "index set" in err and "names no subset" in err
    assert "Traceback" not in err and "plan ok" not in out


SEEDING_CASES = (
    [pytest.param("term", 0, term, id=f"term-{name}") for name, term in BAD_TERMS.items()]
    + [pytest.param("index set", 0, s, id=f"set-{name}") for name, s in BAD_INDEX_SETS.items()]
    + [pytest.param(where, occurrence, value, id=f"{where}-{label}-{type(value).__name__}")
       for where, values in (("user", (0.0, False)), ("file", (1.0, True)), ("set-user", (0.0, False)))
       for label, occurrence in (("first", 0), ("last", -1))
       for value in values]
)


@pytest.mark.parametrize("where, occurrence, value", SEEDING_CASES)
def test_loader_refusals_read_the_same_with_memos_unseeded(tmp_path, capsys, monkeypatch,
                                                           where, occurrence, value):
    # every bad key misses the subset text tables, so its line takes the JSON
    # path and is refused by its check, in the same words whether the tables
    # are built or, with the bytes-per-entry rule raised past the file, empty
    records = _k6_records(tmp_path)
    pair = next(r for r in records if r["kind"] == "pair")
    if where == "term":
        pair["payload"][0] = value
    elif where == "index set":
        pair["s1"] = value
    else:
        container, field = _number_in(records, where, occurrence)
        container[field] = value
    path = tmp_path / "tampered.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    size = path.stat().st_size
    assert planfile._SEED_BYTES_PER_ENTRY * (comb(6, 3) + comb(6, 4)) <= size
    seeded = run(["verify", "--plan", str(path)], capsys)
    monkeypatch.setattr(planfile, "_SEED_BYTES_PER_ENTRY", size + 1)
    assert run(["verify", "--plan", str(path)], capsys) == seeded
    code, out, err = seeded
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("change, message", [
    ({"0": ["A", True]}, "invalid request"),
    ({"0": ["A", 1.0]}, "invalid request"),
    ({"03": ["B", 1]}, "two keys"),
], ids=["bool", "float", "two-keys"])
def test_verify_rejects_bad_meta_demand(tmp_path, capsys, change, message):
    records = _k6_records(tmp_path)
    records[0]["demand"].update(change)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(["verify", "--plan", str(tampered)], capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err and "plan ok" not in out


@pytest.mark.parametrize("t, message", [
    (5, "meta line has t = 5, but K*M/N = 3"),
    (3.0, "meta line has t = '3.0', but K*M/N = 3"),
    (None, "malformed plan file: 't'"),
], ids=["other", "float", "missing"])
def test_verify_checks_the_meta_t(tmp_path, capsys, t, message):
    records = _k6_records(tmp_path)
    if t is None:
        del records[0]["t"]
    else:
        records[0]["t"] = t
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(["verify", "--plan", str(tampered)], capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("origin", [True, 5, None], ids=["bool", "int", "null"])
def test_verify_rejects_non_string_origin(tmp_path, capsys, origin):
    # the audits sort origins, and nothing but a string sorts with the tags
    records = _k6_records(tmp_path)
    next(r for r in records if r["kind"] == "pair")["origin"] = origin
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(["verify", "--plan", str(tampered)], capsys)
    assert code == 2
    assert "not a string" in err
    assert "Traceback" not in err and "plan ok" not in out


def test_verify_fails_unknown_string_origin(tmp_path, capsys):
    # a string origin names no input error; an unknown one fails the audits
    records = _k6_records(tmp_path)
    next(r for r in records if r["kind"] == "pair")["origin"] = "Q"
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(["verify", "--plan", str(tampered)], capsys)
    assert code == 1
    assert "audit failure: pair group" in out and "'Q'" in out
    assert "Traceback" not in err and "plan ok" not in out


def test_verify_failure_output_ignores_hash_seed(tmp_path):
    # two parity terms lose their twins and one A line turns into B: the
    # violations come out in plan-file term order under any hash seed
    records = [json.loads(l) for l in export_plan(tmp_path, "8", "3/8", "improved")]
    parity = [r for r in records[1:] if r["origin"] == "P" and len(r["payload"]) > 2]
    for r in parity[:2]:
        del r["payload"][0]
    next(r for r in records[1:] if r["origin"] == "A" and r["kind"] != "pair")["origin"] = "B"
    path = tmp_path / "broken.jsonl"
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    src = str(Path(tricache.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "tricache.cli", "verify", "--plan", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        outputs.append(done.stdout)
    assert "foreign packet" in outputs[0] and "lacks its twin" in outputs[0]
    assert outputs[0] == outputs[1]


def test_verify_rejects_duplicated_pair_line(tmp_path, capsys):
    plan_path = tmp_path / "plan.jsonl"
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "improved",
         "--output", str(tmp_path / "r.json"), "--plan-out", str(plan_path)],
        capsys,
    )
    assert code == 0
    lines = plan_path.read_text().splitlines(keepends=True)
    first_pair = next(i for i, l in enumerate(lines) if json.loads(l)["kind"] == "pair")
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("".join(lines[:first_pair + 1] + lines[first_pair:]))
    code, out, err = run(["verify", "--plan", str(doubled)], capsys)
    assert code == 2
    assert "duplicate pair line" in err
    assert "plan ok" not in out


@pytest.mark.parametrize("scheme", ["lap", "improved", "mn"])
@pytest.mark.parametrize("K, lam", [("6", "1/2"), ("8", "3/8")])
def test_plan_with_scattered_group_lines_verifies(tmp_path, capsys, K, lam, scheme):
    # sorted body lines scatter every group; the loader regroups them by
    # kind and index sets, so the file verifies as the exported one does
    lines = export_plan(tmp_path, K, lam, scheme)
    exported = tmp_path / f"K{K}-{scheme}.jsonl"
    body = sorted(lines[1:])
    assert body != lines[1:]
    scattered = tmp_path / "scattered.jsonl"
    scattered.write_text("".join(lines[:1] + body))
    code, want, _ = run(["verify", "--plan", str(exported)], capsys)
    assert code == 0 and want.startswith("plan ok")
    code, out, _ = run(["verify", "--plan", str(scattered)], capsys)
    assert code == 0
    assert out == want
    # the groups as multisets, each in the order of kind and index sets
    key = attrgetter("kind", "index_sets")
    assert sorted(load_plan(scattered).groups, key=key) == sorted(load_plan(exported).groups, key=key)


def test_verify_rejects_duplicated_line_far_from_its_group(tmp_path, capsys):
    # the copy of the first pair line comes last, after every other group
    lines = export_plan(tmp_path, "6", "1/2", "improved")
    first_pair = next(i for i, l in enumerate(lines) if json.loads(l)["kind"] == "pair")
    record = json.loads(lines[first_pair])
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("".join(lines + [lines[first_pair]]))
    code, out, err = run(["verify", "--plan", str(doubled)], capsys)
    assert code == 2
    users = f"[{record['s1']}, {record['s2']}]"
    assert err == f"error: duplicate pair line from {record['origin']} for {users}\n"
    assert "plan ok" not in out


@pytest.mark.parametrize("scheme", ["improved", "mn"])
def test_simulate_audits_coverage_once(tmp_path, capsys, monkeypatch, scheme):
    calls = []
    real = delivery.coverage_errors

    def counted(plan):
        calls.append(plan)
        return real(plan)

    monkeypatch.setattr(delivery, "coverage_errors", counted)
    code, _, _ = run(["simulate", "--K", "8", "--lambda", "3/8", "--scheme", scheme,
                      "--output", str(tmp_path / "r.json")], capsys)
    assert code == 0
    assert len(calls) == 1


def test_simulate_missing_demand_file(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--demand", "file",
         "--demand-file", str(tmp_path / "absent.json")],
        capsys,
    )
    assert code == 2
    assert "cannot read --demand-file" in err


K6_DEMAND = '"2": ["A", 3], "3": ["B", 1], "4": ["B", 2], "5": ["B", 3]'


@pytest.mark.parametrize("text, message", [
    ("user 0 wants A1\n", "not JSON"),
    ('["A", 1]', "must map every user"),
    ('{"0": "A"}', "must map every user"),
    # a float or a bool is no file index, though int() takes both
    ('{"0": ["A", 1.9], "1": ["A", 2], %s}' % K6_DEMAND, "invalid request"),
    ('{"0": ["A", 1], "1": ["A", true], %s}' % K6_DEMAND, "invalid request"),
    # "3" and "03" both name user 3
    ('{"0": ["A", 1], "1": ["A", 2], %s, "03": ["B", 2]}' % K6_DEMAND, "two keys"),
])
def test_simulate_bad_demand_file(tmp_path, capsys, text, message):
    path = tmp_path / "demand.json"
    path.write_text(text)
    code, _, err = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--demand", "file",
         "--demand-file", str(path)],
        capsys,
    )
    assert code == 2
    assert message in err


@pytest.mark.parametrize("scheme", ["improved", "lap", "auto"])
def test_simulate_asymmetric_demand_needs_mn(tmp_path, capsys, scheme):
    # user 0 sits on server A's side but asks for a B file
    path = tmp_path / "demand.json"
    demand = {str(u): ["A" if u < 3 else "B", u % 3 + 1] for u in range(6)}
    demand["0"] = ["B", 1]
    path.write_text(json.dumps(demand))
    argv = ["simulate", "--K", "6", "--lambda", "1/2", "--demand", "file",
            "--demand-file", str(path), "--output", str(tmp_path / "r.json")]
    code, _, err = run(argv + ["--scheme", scheme], capsys)
    assert code == 2
    assert "symmetric demand" in err
    code, _, _ = run(argv + ["--scheme", "mn"], capsys)
    assert code == 0


def test_mn_plan_roundtrip_and_dropped_line(tmp_path, capsys):
    plan_path = tmp_path / "plan.jsonl"
    code, _, _ = run(
        ["simulate", "--K", "6", "--lambda", "1/2", "--scheme", "mn",
         "--output", str(tmp_path / "r.json"), "--plan-out", str(plan_path)],
        capsys,
    )
    assert code == 0
    lines = plan_path.read_text().splitlines(keepends=True)
    records = [json.loads(l) for l in lines]
    assert records[0]["scheme"] == "mn"
    assert len(records) == 1 + 15
    assert {(r["kind"], r["origin"]) for r in records[1:]} == {("mn", "SINGLE")}

    code, out, _ = run(["verify", "--plan", str(plan_path)], capsys)
    assert code == 0
    assert out == "plan ok: 15 mn sets, all users decode\n"  # C(6, 4)

    dropped = tmp_path / "dropped.jsonl"
    dropped.write_text("".join(lines[:5] + lines[6:]))
    code, out, _ = run(["verify", "--plan", str(dropped)], capsys)
    assert code == 1
    assert f"subset {tuple(records[5]['s'])} is not served" in out


@pytest.mark.parametrize("argv", [
    ["simulate", "--K", "6", "--lambda", "1/2", "--output", "{dir}"],
    ["simulate", "--K", "6", "--lambda", "1/2", "--output", "{dir}/r.json",
     "--plan-out", "{dir}"],
    ["simulate", "--K", "6", "--lambda", "1/2", "--output", "{dir}/r.json",
     "--plan-out", "{dir}/r.json/plan.jsonl"],
    ["curves", "--K", "14", "--lambdas", "1/2", "--output", "{dir}"],
], ids=["simulate-output", "simulate-plan-out", "simulate-plan-out-under-file", "curves-output"])
def test_unwritable_output_path_is_invalid_input(tmp_path, capsys, argv):
    code, _, err = run([a.format(dir=tmp_path) for a in argv], capsys)
    assert code == 2
    assert "cannot write" in err
    assert "Traceback" not in err


K4_META = json.dumps({"kind": "meta", "K": 4, "M": "2", "N": 4, "t": 2, "scheme": "lap",
                      "demand": {"0": ["A", 1], "1": ["A", 2], "2": ["B", 1], "3": ["B", 2]}})


@pytest.mark.parametrize("argv, files, message", [
    (["simulate", "--K", "6", "--lambda", "1/2", "--M", "3"], {},
     "give either --lambda or --M/--N, not both"),
    (["simulate", "--K", "6"], {}, "give --lambda, or both --M and --N"),
    (["simulate", "--K", "6", "--M", "3", "--N", "0"], {}, "file count N=0 must be positive"),
    (["simulate", "--K", "6", "--M", "1", "--N", "2"], {},
     "worst demand needs N >= K, got N=2, K=6"),
    (["simulate", "--K", "6", "--lambda", "1/2", "--demand", "file"], {},
     "--demand-file is required for --demand file"),
    (["simulate", "--K", "6", "--lambda", "1/2", "--demand", "file", "--demand-file", "{dir}/d.json"],
     {"d.json": '{"0": ["A", 1]}'}, "demand must map every user exactly once"),
    (["simulate", "--K", "6", "--lambda", "one half"], {},
     "expected an exact fraction like 1/2, got 'one half': Invalid literal for Fraction: 'one half'"),
    (["verify", "--plan", "{dir}/absent.jsonl"], {}, "plan file {dir}/absent.jsonl does not exist"),
    (["verify", "--plan", "{dir}/p.jsonl"], {"p.jsonl": '{"kind": "pair"}\n'},
     "plan file must start with a meta line"),
    (["verify", "--plan", "{dir}/p.jsonl"], {"p.jsonl": K4_META + '\n{"kind": "bogus"}\n'},
     "unknown plan line kind 'bogus'"),
    (["curves", "--K", "4,x", "--lambdas", "1/2"], {},
     "bad --K list: invalid literal for int() with base 10: 'x'"),
    (["curves", "--K", ",", "--lambdas", "1/2"], {}, "curves need at least one K and one lambda"),
], ids=["lambda-and-M", "no-size", "N-zero", "worst-N-below-K", "no-demand-file",
        "demand-file-missing-users", "lambda-in-words", "verify-missing-file", "verify-no-meta",
        "verify-unknown-kind", "curves-K-not-int", "curves-no-K"])
def test_invalid_use_exits_2_with_one_error_line(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run([a.format(dir=tmp_path) for a in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(dir=tmp_path)}\n")


def test_verify_refuses_undersized_plan_before_any_work(tmp_path, capsys, monkeypatch):
    # C(60, 31) sets cannot be served by one line; enumerating them would never end
    import tricache.delivery

    def no_audit(*args):
        raise AssertionError("verify audited an undersized plan")

    monkeypatch.setattr(tricache.delivery, "verify_plan", no_audit)
    half = 30
    meta = {"kind": "meta", "K": 60, "M": "30", "N": 60, "t": 30, "scheme": "lap",
            "demand": {str(u): ["A" if u < half else "B", u % half + 1] for u in range(60)}}
    single = {"kind": "single", "origin": "A", "s": list(range(31)), "payload": []}
    path = tmp_path / "tiny.jsonl"
    path.write_text(json.dumps(meta) + "\n" + json.dumps(single) + "\n")
    start = time.perf_counter()
    code, out, err = run(["verify", "--plan", str(path)], capsys)
    # subset tables built for the claimed system, not for the file, would take ages here
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "broadcast lines" in err
    assert "plan ok" not in out


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_sizes_past_sys_maxsize_are_refused_at_once(tmp_path, capsys, command):
    # C(100000000002, 50000000002) index sets fit no sequence, so both
    # commands refuse the system before building even its user tuples
    K = 100000000002
    if command == "simulate":
        argv = ["simulate", "--K", str(K), "--lambda", "1/2", "--scheme", "improved"]
    else:
        meta = {"kind": "meta", "K": K, "M": str(K // 2), "N": K, "t": K // 2,
                "scheme": "improved", "demand": {}}
        path = tmp_path / "huge.jsonl"
        path.write_text(json.dumps(meta) + "\n")
        argv = ["verify", "--plan", str(path)]
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"C({K}, {K // 2 + 1})" in err and "Traceback" not in err
    assert out == ""


def test_demand_far_smaller_than_k_is_refused_in_constant_memory(tmp_path, capsys):
    # the meta line claims 2^22 users and maps two of them; the demand's size
    # is compared with K before any list of the K users is built
    K = 1 << 22
    meta = {"kind": "meta", "K": K, "M": "1", "N": K, "t": 1, "scheme": "lap",
            "demand": {"0": ["A", 1], "1": ["B", 1]}}
    path = tmp_path / "short-demand.jsonl"
    path.write_text(json.dumps(meta) + "\n")
    tracemalloc.start()
    try:
        code, out, err = run(["verify", "--plan", str(path)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: demand must map every user exactly once\n")
    assert peak < 1 << 20, peak


def export_plan(directory, K, lam, scheme) -> list[str]:
    """Export one plan with simulate and return its lines."""
    path = directory / f"K{K}-{scheme}.jsonl"
    argv = ["simulate", "--K", K, "--lambda", lam, "--scheme", scheme,
            "--output", str(directory / "r.json"), "--plan-out", str(path)]
    assert main(argv) == 0
    return path.read_text().splitlines(keepends=True)


def relabelled(lines, scheme) -> list[str]:
    meta = json.loads(lines[0])
    meta["scheme"] = scheme
    return [json.dumps(meta, sort_keys=True) + "\n"] + lines[1:]


@pytest.mark.parametrize("exported, label, want_code, message", [
    ("mn", "lap", 1, "audit failure: mn group [[0, 1, 2, 3]] is not sent by scheme lap"),
    ("improved", "mn", 1, "is not sent by scheme mn"),
    ("improved", "bogus", 2, "unknown plan scheme 'bogus'"),
], ids=["mn-as-lap", "improved-as-mn", "bogus"])
def test_verify_checks_the_plan_scheme(tmp_path, capsys, exported, label, want_code, message):
    lines = export_plan(tmp_path, "6", "1/2", exported)
    path = tmp_path / "relabelled.jsonl"
    path.write_text("".join(relabelled(lines, label)))
    code, out, err = run(["verify", "--plan", str(path)], capsys)
    assert code == want_code
    assert message in out + err
    assert "plan ok" not in out


FUZZ_SYSTEMS = [("6", "1/2"), ("8", "3/8")]


@pytest.fixture(scope="module")
def exported_plans(tmp_path_factory):
    directory = tmp_path_factory.mktemp("exports")
    with contextlib.redirect_stdout(io.StringIO()):
        plans = {
            (K, lam, scheme): export_plan(directory, K, lam, scheme)
            for K, lam in FUZZ_SYSTEMS
            for scheme in ("lap", "improved", "mn")
        }
    return directory / "mutated.jsonl", plans


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_plan_line_mutations_fail_verify(exported_plans, data):
    """Dropping a line is an audit failure and duplicating one is invalid
    input; removing one payload term fails verify unless the plan still
    decodes under full elimination.  Deleting, inserting or flipping one
    byte of a line may give any outcome but a traceback, and a plan that
    loads must decode exactly as full elimination says."""
    path, plans = exported_plans
    lines = plans[data.draw(st.sampled_from(sorted(plans)))]
    n = data.draw(st.integers(1, len(lines) - 1), label="line")
    mutation = data.draw(st.sampled_from(["drop", "duplicate", "term", "byte"]))
    if mutation == "drop":
        mutated, want = lines[:n] + lines[n + 1:], {1}
    elif mutation == "duplicate":
        mutated, want = lines[:n + 1] + lines[n:], {2}
    elif mutation == "term":
        record = json.loads(lines[n])
        assume(record["payload"])
        del record["payload"][data.draw(st.integers(0, len(record["payload"]) - 1))]
        mutated = lines[:n] + [json.dumps(record, sort_keys=True) + "\n"] + lines[n + 1:]
        want = {0, 1}
    else:
        line = bytearray(lines[n].encode())
        i = data.draw(st.integers(0, len(line) - 1), label="byte")
        edit = data.draw(st.sampled_from(["delete", "insert", "flip"]), label="edit")
        if edit == "delete":
            del line[i]
        elif edit == "insert":
            line.insert(i, data.draw(st.integers(0, 255), label="inserted"))
        else:
            line[i] ^= data.draw(st.integers(1, 255), label="mask")
        # surrogateescape carries a byte that is not UTF-8 through to the file
        mutated = lines[:n] + [line.decode(errors="surrogateescape")] + lines[n + 1:]
        want = {0, 1, 2}
    path.write_bytes("".join(mutated).encode(errors="surrogateescape"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--plan", str(path)])
    assert code in want
    if mutation == "term" and code == 0:
        plan = load_plan(path)
        assert elimination_oracle(plan.config, plan.demand, plan.broadcasts).all_ok
    if mutation == "byte" and code != 2:
        plan = load_plan(path)
        report = delivery.verify_plan(plan)[1]
        assert report == elimination_oracle(plan.config, plan.demand, plan.broadcasts)


# (K, M, N): odd and even t, N = 4K so that file indices reach two digits,
# and K=12 and 14 with t near K/2, where the subset tables are largest
WRITER_SYSTEMS = [(6, 3, 6), (6, 12, 24), (8, 3, 8), (8, 4, 8), (10, 5, 10), (10, 12, 40),
                  (12, 5, 12), (14, 9, 14)]


@pytest.mark.parametrize("scheme", ["lap", "improved", "auto", "mn"])
@pytest.mark.parametrize("K, M, N", WRITER_SYSTEMS)
def test_plan_lines_equal_json_dumps_reference(K, M, N, scheme):
    config = build_config(K, M, N)
    for demand in (worst_demand(config), random_demand(config, random.Random(K + M))):
        plan = delivery.build_plan(config, demand, scheme)
        assert list(cli._plan_lines(plan)) == reference_plan_lines(plan)


@pytest.mark.parametrize("scheme, digest", [
    ("improved", "e1cab506b2942d8415cdb6ffd9a8cc08adf5bab67df6ba4fbf1568a8cf803127"),
    ("lap", "cc5737eef8c828d67625bee52594c3364dd02669733eebb7ddf0f07334024575"),
])
def test_plan_file_with_two_digit_file_indices(tmp_path, capsys, scheme, digest):
    # users ask for files 4, 9 and 10 of A, so terms of file 10 must sort after 9
    path = tmp_path / "plan.jsonl"
    code, _, _ = run(
        ["simulate", "--K", "6", "--M", "12", "--N", "24", "--demand", "random", "--seed", "3",
         "--scheme", scheme, "--output", str(tmp_path / "r.json"), "--plan-out", str(path)],
        capsys,
    )
    assert code == 0
    assert '["A", 9, [' in path.read_text() and '["A", 10, [' in path.read_text()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_plan_out_dash_prints_the_file_bytes(tmp_path, capsysbinary):
    argv = ["simulate", "--K", "8", "--lambda", "3/8", "--scheme", "improved",
            "--output", str(tmp_path / "r.json"), "--plan-out"]
    path = tmp_path / "plan.jsonl"
    assert main(argv + [str(path)]) == 0
    capsysbinary.readouterr()
    assert main(argv + ["-"]) == 0
    out, _ = capsysbinary.readouterr()
    assert out == path.read_bytes()


def test_payload_term_with_the_users_of_an_index_set_names_no_packet(tmp_path, capsys):
    # index sets and terms are memoised apart: a term naming t+1 users that an
    # earlier line's index set named must not pass as a packet
    records = _k6_records(tmp_path)
    first = records[1]
    index_set = first[delivery.GROUPS[first["kind"]][0][0]]
    last = next(r for r in reversed(records) if r["payload"])
    code, out, err = _verify_with(tmp_path, capsys, records, last["payload"][0], 2, index_set)
    assert code == 2
    assert "payload term" in err and "names no packet" in err
    assert "Traceback" not in err and "plan ok" not in out


def test_boolean_line_and_idle_file_term_load_as_the_built_plan(tmp_path, capsys):
    # A boolean sends one line to the memos that keep nothing; a term of a
    # file no user asks for is the first sight of that file's packet base.
    path = tmp_path / "plan.jsonl"
    argv = ["simulate", "--K", "8", "--M", "6", "--N", "16", "--demand", "random", "--seed", "1",
            "--scheme", "improved", "--output", str(tmp_path / "r.json"), "--plan-out", str(path)]
    assert run(argv, capsys)[0] == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    demanded = {i for _, i in records[0]["demand"].values()}
    idle = next(i for i in range(1, 9) if i not in demanded)
    records[5]["note"] = True
    seen_users = records[1]["payload"][0][2]
    records[9]["payload"].append(["A", idle, seen_users])
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    config = build_config(8, 6, 16)
    built = delivery.build_plan(config, random_demand(config, random.Random(1)), "improved")
    term = packet("A", idle, mask_of(seen_users), config.K)
    # line 9 is the m_P of the third pair group
    group = built.groups[2]
    m_a, m_b, m_p = group.broadcasts
    grown = dataclasses.replace(
        group, broadcasts=(m_a, m_b, dataclasses.replace(m_p, payload=xor_sum(m_p.payload + (term,)))))
    assert load_plan(path).groups == built.groups[:2] + (grown,) + built.groups[3:]


def test_stdout_closed_early_is_invalid_use():
    # a reader that takes 100 bytes and closes the pipe: one error line and
    # exit 2, with no traceback and no second failure at the exit flush
    src = str(Path(tricache.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tricache.cli", "simulate", "--K", "12", "--lambda", "5/12",
         "--plan-out", "-"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err
