"""Plan-file memos: seeded tables against their checks, written plans read
back as built, and the names the tracer wraps."""

import random
import sys
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

import tricache.cli
import tricache.planfile
from tricache import delivery, planfile
from tricache.cli import main
from tricache.system import build_config, random_demand, worst_demand


def admitted(K, size):
    """Every strictly increasing user tuple of the given size in 0..K-1,
    listed from the masks rather than from `combinations`."""
    return [tuple(u for u in range(K) if m >> u & 1)
            for m in range(1 << K) if bin(m).count("1") == size]


@pytest.mark.parametrize("K", [2, 4, 6, 8, 10])
def test_seeded_memos_equal_their_checks(K):
    for t in range(1, K):
        config = build_config(K, t, K)
        entries = comb(K, t) + comb(K, t + 1)
        kept, unkept = planfile._plan_memos(config, planfile._SEED_BYTES_PER_ENTRY * entries)
        bases, terms, sets = kept
        assert bases == {}
        assert terms == {key: terms.check(key) for key in admitted(K, t)}
        assert sets == {key: sets.check(key) for key in admitted(K, t + 1)}
        assert all(memo == {} for memo in unkept)
        # one byte short of the rule, the memos start empty
        kept, _ = planfile._plan_memos(config, planfile._SEED_BYTES_PER_ENTRY * entries - 1)
        assert all(memo == {} for memo in kept)


def test_seeded_memos_still_refuse_what_their_checks_refuse():
    kept, _ = planfile._plan_memos(build_config(6, 3, 6), sys.maxsize)
    _, terms, sets = kept
    for memo, key in [(terms, (0, 1)), (terms, (0, 1, 2, 3)), (terms, (2, 1, 0)),
                      (sets, (0, 1, 2)), (sets, (0, 1, 2, 6)), (sets, ("0.0", 1, 2, 3))]:
        with pytest.raises(planfile.SpecError):
            memo[key]


@pytest.mark.parametrize("scheme", ["improved", "lap"])
@pytest.mark.parametrize("demand", ["worst", "random"])
def test_benchmark_plans_run_no_subset_check(tmp_path, capsys, monkeypatch, scheme, demand):
    # K=12 t=5: every term and index set of a valid plan hits a seeded memo
    calls = []

    def counted_checks(config):
        base, *subsets = original(config)

        def wrap(check):
            return lambda key: calls.append(key) or check(key)

        return [base] + [wrap(check) for check in subsets]

    original = planfile._plan_checks
    monkeypatch.setattr(planfile, "_plan_checks", counted_checks)
    plan = tmp_path / "plan.jsonl"
    argv = ["simulate", "--K", "12", "--lambda", "5/12", "--scheme", scheme, "--demand", demand,
            "--seed", "1", "--output", str(tmp_path / "r.json"), "--plan-out", str(plan)]
    assert main(argv) == 0
    assert main(["verify", "--plan", str(plan)]) == 0
    assert capsys.readouterr().out.startswith("plan ok: ")
    assert calls == []


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


def test_cli_load_plan_is_the_planfile_loader():
    # perfbench/tracer.py wraps `cli.load_plan` and rebinds every copy of it
    assert tricache.cli.load_plan is tricache.planfile.load_plan
