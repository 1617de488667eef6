"""Plan-file reading: the text tables against the checks they stand in for,
the canonical reader against the JSON path, written plans read back as
built, and the names the tracer wraps."""

import json
import random
import sys
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

import tricache.cli
import tricache.planfile
from tricache import delivery, planfile
from tricache.cli import main
from tricache.system import SERVER_A, SERVER_B, build_config, random_demand, worst_demand


def admitted(K, size):
    """Every strictly increasing user tuple of the given size in 0..K-1,
    listed from the masks rather than from `combinations`."""
    return [tuple(u for u in range(K) if m >> u & 1)
            for m in range(1 << K) if bin(m).count("1") == size]


def users_text(key):
    return ", ".join(map(str, key))


@pytest.mark.parametrize("K", [2, 4, 6, 8, 10])
def test_seeded_memos_equal_their_checks(K):
    # the text tables hold exactly the spellings of the keys the checks
    # admit, each with the value its check gives, and the JSON path's memos
    # start empty
    for t in range(1, K):
        config = build_config(K, t, K)
        demand = worst_demand(config)
        entries = comb(K, t) + comb(K, t + 1)
        heads, tails, sets = planfile._text_tables(config, demand, planfile._SEED_BYTES_PER_ENTRY * entries)
        kept, unkept = planfile._plan_memos(config)
        bases, terms, subsets = kept
        requested = {(s, i) for _, i in demand.requests for s in (SERVER_A, SERVER_B)}
        assert heads == {f'"{s}", {i}': bases.check((s, i)) for s, i in requested}
        assert tails == {users_text(key) + "]]": terms.check(key) for key in admitted(K, t)}
        assert sets == {users_text(key): subsets.check(key) for key in admitted(K, t + 1)}
        assert all(memo == {} for memo in kept + unkept)
        # one byte short of the rule, the subset tables are empty
        short = planfile._text_tables(config, demand, planfile._SEED_BYTES_PER_ENTRY * entries - 1)
        assert short == (heads, {}, {})


def test_seeded_memos_still_refuse_what_their_checks_refuse():
    # no bad key is spelled in the tables, and the JSON path's memos refuse it
    config = build_config(6, 3, 6)
    _, tails, sets = planfile._text_tables(config, worst_demand(config), sys.maxsize)
    (_, terms, subsets), _ = planfile._plan_memos(config)
    for memo, table, text, key in [
        (terms, tails, "{}]]", (0, 1)), (terms, tails, "{}]]", (0, 1, 2, 3)),
        (terms, tails, "{}]]", (2, 1, 0)), (subsets, sets, "{}", (0, 1, 2)),
        (subsets, sets, "{}", (0, 1, 2, 6)), (subsets, sets, "{}", ("0.0", 1, 2, 3)),
    ]:
        assert text.format(users_text(key)) not in table
        with pytest.raises(planfile.SpecError):
            memo[key]


@pytest.mark.parametrize("scheme", ["improved", "lap"])
@pytest.mark.parametrize("demand", ["worst", "random"])
def test_benchmark_plans_run_no_subset_check(tmp_path, capsys, monkeypatch, scheme, demand):
    # K=12 t=5: every body line is read through the text tables, so no term
    # or index set runs a subset check and only the meta line is JSON-decoded
    calls, decoded = [], []

    def counted_checks(config):
        base, *subsets = original(config)

        def wrap(check):
            return lambda key: calls.append(key) or check(key)

        return [base] + [wrap(check) for check in subsets]

    original = planfile._plan_checks
    monkeypatch.setattr(planfile, "_plan_checks", counted_checks)
    decode = planfile._PLAN_DECODER.decode
    monkeypatch.setattr(planfile._PLAN_DECODER, "decode", lambda line: decoded.append(line) or decode(line))
    plan = tmp_path / "plan.jsonl"
    argv = ["simulate", "--K", "12", "--lambda", "5/12", "--scheme", scheme, "--demand", demand,
            "--seed", "1", "--output", str(tmp_path / "r.json"), "--plan-out", str(plan)]
    assert main(argv) == 0
    assert main(["verify", "--plan", str(plan)]) == 0
    assert capsys.readouterr().out.startswith("plan ok: ")
    assert calls == []
    assert decoded == plan.read_text().splitlines(True)[:1]


@pytest.mark.parametrize("K, M, N", [(60, 30, 60), (4, 5 * 10**11, 10**12)], ids=["K=60", "N=10^12"])
def test_short_file_claiming_a_huge_system_builds_no_subset_table(tmp_path, monkeypatch, K, M, N):
    # the subset tables are sized by the file, and the heads by the demand
    def no_table(*args):
        raise AssertionError("a subset text table was built for a two-line file")

    monkeypatch.setattr(planfile, "_subset_texts", no_table)
    t, half = K * M // N, K // 2
    meta = {"kind": "meta", "K": K, "M": str(M), "N": N, "t": t, "scheme": "lap",
            "demand": {str(u): ["A" if u < half else "B", N // 2 - u % half] for u in range(K)}}
    single = {"kind": "single", "origin": "A", "payload": [], "s": list(range(t + 1))}
    path = tmp_path / "tiny.jsonl"
    path.write_text(json.dumps(meta, sort_keys=True) + "\n" + json.dumps(single, sort_keys=True) + "\n")
    with pytest.raises(planfile.SpecError, match="broadcast lines"):
        planfile.load_plan(path)


@settings(max_examples=60, deadline=None)
@given(K=st.sampled_from([2, 4, 6, 8, 10]), data=st.data(),
       scheme=st.sampled_from(["lap", "improved", "mn"]), demand=st.sampled_from(["worst", "random"]))
def test_written_plan_loads_as_the_built_plan(tmp_path_factory, K, data, scheme, demand):
    # A random demand repeats files across users, so a message's terms are
    # not met in increasing order; the loaded payloads must still equal the
    # built ones, tuple for tuple, group for group in plan order.
    t = data.draw(st.integers(1, K - 1), label="t")
    assume((K, t, scheme) != (4, 1, "improved"))  # one-sided leftover, refused with exit 2
    config = build_config(K, t, K)
    if demand == "worst":
        chosen = worst_demand(config)
    else:
        chosen = random_demand(config, random.Random(data.draw(st.integers(0, 99), label="seed")))
    plan = delivery.build_plan(config, chosen, scheme)
    path = tmp_path_factory.mktemp("plan") / "plan.jsonl"
    path.write_text("".join(planfile._plan_lines(plan)))
    assert planfile.load_plan(path) == plan


def _respelled(records, rng):
    """Each way to spell a plan line other than the writer's, as a function of
    a line's record and text."""
    demanded = {i for _, i in records[0]["demand"].values()}
    half = records[0]["N"] // 2
    # a file no user asks for, or, when every file is asked for, no file at all
    idle = next((i for i in range(1, half + 1) if i not in demanded), half + 1)

    def dumps(record):
        return json.dumps(record, sort_keys=True) + "\n"

    def with_sets(record, text, order):
        # the line with its index-set fields spelt in the given order
        fields = delivery.GROUPS[record["kind"]][0]
        start = text.index(f', "{fields[0]}": ')
        return text[:start] + "".join(f', "{f}": {record[f]}' for f in order(fields)) + "}\n"

    def shuffled(record, text):
        items = list(record.items())
        rng.shuffle(items)
        return json.dumps(dict(items)) + "\n"

    def in_term(value):
        def spell(record, text):
            payload = [[s, value(i), users] for s, i, users in record["payload"][:1]]
            return dumps(dict(record, payload=payload + record["payload"][1:]))
        return spell

    return {
        "compact": lambda record, text: json.dumps(record, separators=(",", ":")) + "\n",
        "shuffled-keys": shuffled,
        "escaped-origin": lambda record, text: text.replace(
            f'"origin": "{record["origin"]}"', '"origin": "\\u0041"'),
        "origin-A": lambda record, text: dumps(dict(record, origin="A")),
        "duplicated-kind": lambda record, text: '{"kind": "pair", ' + text[1:],
        "duplicated-payload": lambda record, text: text[:-2] + ', "payload": []}\n',
        "true": in_term(lambda i: True),
        "float": in_term(lambda i: float(i)),
        "crlf": lambda record, text: text[:-1] + "\r\n",
        "unrequested-file": lambda record, text: dumps(
            dict(record, payload=record["payload"] + [["A", idle, list(range(records[0]["t"]))]])),
        "empty-payload": lambda record, text: dumps(dict(record, payload=[])),
        "users-only-term": lambda record, text: dumps(
            dict(record, payload=record["payload"][:-1] + [term[2:] for term in record["payload"][-1:]])),
        "sets-reversed": lambda record, text: with_sets(record, text, reversed),
        "duplicated-set": lambda record, text: with_sets(record, text, lambda fields: fields + fields[:1]),
        "other-kind": lambda record, text: dumps(dict(record, kind="single" if record["kind"] == "pair" else "pair")),
    }


def _load_outcome(path):
    try:
        return planfile.load_plan(path)
    except Exception as exc:  # the refusal, compared by its type and words
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(K=st.sampled_from([2, 4, 6, 8, 10]), data=st.data(),
       scheme=st.sampled_from(["lap", "improved", "mn"]), demand=st.sampled_from(["worst", "random"]))
def test_canonical_reader_reads_as_the_json_path(tmp_path_factory, K, data, scheme, demand):
    # Some body lines are respelled so that the canonical reader must decline
    # them (CRLF is read as "\n" in text mode, so that line stays canonical).
    # With the reader on or off, a file loads as the same plan or is refused
    # in the same words.
    t = data.draw(st.integers(1, K - 1), label="t")
    assume((K, t, scheme) != (4, 1, "improved"))  # one-sided leftover, refused with exit 2
    N = K * data.draw(st.sampled_from([1, 2]), label="N/K")
    config = build_config(K, t * N // K, N)
    rng = random.Random(data.draw(st.integers(0, 99), label="seed"))
    chosen = worst_demand(config) if demand == "worst" else random_demand(config, rng)
    lines = list(planfile._plan_lines(delivery.build_plan(config, chosen, scheme)))
    records = [json.loads(line) for line in lines]
    respell = _respelled(records, rng)
    how = data.draw(st.sampled_from(sorted(respell)), label="respelling")
    first = data.draw(st.integers(1, len(lines) - 1), label="first line")
    for n in range(first, min(first + data.draw(st.integers(1, 3), label="lines"), len(lines))):
        lines[n] = respell[how](records[n], lines[n])
    path = tmp_path_factory.mktemp("plan") / "plan.jsonl"
    path.write_bytes("".join(lines).encode())
    read = _load_outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planfile, "_canonical_reader", lambda *args: lambda line: None)
        assert _load_outcome(path) == read


def test_cli_load_plan_is_the_planfile_loader():
    # perfbench/tracer.py wraps `cli.load_plan` and rebinds every copy of it
    assert tricache.cli.load_plan is tricache.planfile.load_plan
