"""core.memo, the table of base and of the revision table: bounded by
entries and by the rules of the programs its keys hold, and keyed by those
rules, so that equal programs share an entry."""

import sys
import threading

import pytest

from fcmerge import Literal, Program, Rule, Strategy, base
from fcmerge.arbitration import _revised_closure, revised_closure
from fcmerge.core import MEMO_RULES, MEMO_SIZE, memo

from helpers import GAP_P, GAP_Q, TAXONOMY, clear_memos, prog, rank_large_pair


def facts_program(prefix: str, size: int) -> Program:
    return Program(frozenset(Rule.fact(Literal(f"{prefix}{i}")) for i in range(size)))


def counting(fn):
    """fn under memo, and the list of the arguments fn itself was called with."""
    calls = []

    @memo
    def wrapped(*args):
        calls.append(args)
        return fn(*args)

    return wrapped, calls


def test_least_recently_used_entry_leaves_first():
    square, calls = counting(lambda x: x * x)
    for x in range(MEMO_SIZE):
        square(x)
    assert square(0) == 0  # a hit: 0 becomes the newest entry
    square(MEMO_SIZE)  # evicts 1, the oldest
    calls.clear()
    square(0)
    square(1)
    assert calls == [(1,)]


def test_at_most_memo_size_entries():
    square, calls = counting(lambda x: x * x)
    for x in range(3 * MEMO_SIZE):
        square(x)
    info = square.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (
        0, 3 * MEMO_SIZE, MEMO_SIZE, MEMO_SIZE)
    calls.clear()
    square(3 * MEMO_SIZE - 1)
    square(2 * MEMO_SIZE - 1)
    assert calls == [(2 * MEMO_SIZE - 1,)]


@pytest.mark.parametrize("size", [1, 300, 500, MEMO_RULES, MEMO_RULES + 1])
def test_rules_beyond_the_newest_entry_stay_within_memo_rules(size):
    size_of, calls = counting(len)
    programs = [facts_program(f"p{k}_", size) for k in range(12)]
    for p in programs:
        assert size_of(p) == size
        assert size_of.cache_info().currsize <= 1 + MEMO_RULES // size
    kept = min(MEMO_SIZE, 1 + MEMO_RULES // size, len(programs))
    assert size_of.cache_info().currsize == kept
    # the newest entries are the ones kept: asking for them again is a hit
    calls.clear()
    for p in reversed(programs[-kept:]):
        size_of(p)
    assert calls == []


def test_rules_are_summed_over_the_program_arguments():
    # a pair of half-bound programs weighs the whole bound, and other
    # arguments weigh nothing, also when the pair comes alone
    half = MEMO_RULES // 2
    for tag in (("x",), ()):
        union, calls = counting(lambda p, q, *tag: len(p | q))
        union(facts_program("a", half), facts_program("b", half), *tag)
        union(facts_program("c", 1), facts_program("d", 0), *tag)
        assert union.cache_info().currsize == 2
        union(facts_program("e", 1), facts_program("f", 0), *tag)
        assert union.cache_info().currsize == 2  # the first entry left
        calls.clear()
        union(facts_program("c", 1), facts_program("d", 0), *tag)
        assert calls == []


def test_the_values_after_a_program_are_part_of_its_key():
    # a Program and then plain values: each value is part of the key
    tagged, calls = counting(lambda p, tag, flag: (len(p), tag, flag))
    p = facts_program("a", 2)
    assert [tagged(p, "x", True), tagged(p, "y", True), tagged(p, "x", False)] == [
        (2, "x", True), (2, "y", True), (2, "x", False)]
    assert len(calls) == 3
    assert tagged(p, "y", True) == (2, "y", True) and len(calls) == 3


def test_a_hit_keeps_an_entry_from_the_rule_bound():
    size_of, calls = counting(len)
    quarter = MEMO_RULES // 4
    first, *others = [facts_program(f"p{k}_", quarter) for k in range(6)]
    size_of(first)
    for p in others:
        size_of(first)
        size_of(p)
    calls.clear()
    size_of(first)
    assert calls == []


def test_an_exception_is_not_cached():
    outcomes = [ValueError("first call"), 7]

    def flaky(x):
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    wrapped, calls = counting(flaky)
    with pytest.raises(ValueError):
        wrapped(1)
    assert wrapped.cache_info().currsize == 0
    assert wrapped(1) == 7
    assert wrapped(1) == 7
    assert calls == [(1,), (1,)]
    info = wrapped.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 1)


def test_cache_clear_resets_the_counts():
    square, calls = counting(lambda x: x * x)
    square(2)
    square(2)
    square.cache_clear()
    info = square.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    square(2)
    assert calls == [(2,), (2,)]


def test_wrapper_keeps_the_function_name():
    assert base.__name__ == "base"
    assert base.__wrapped__.__name__ == "base"


@pytest.mark.pinned
def test_base_holds_at_most_memo_rules_beyond_its_newest_program():
    # thirty distinct programs of the rank-large generator at 300 rules
    # (290-300 once duplicates collapse): without the rule bound the table
    # would keep all of them
    clear_memos()
    programs = [p for seed in range(1, 16) for p in rank_large_pair(300, seed)]
    assert len(set(programs)) == 30
    for i, p in enumerate(programs):
        base(p)
        # every call misses, so the table holds the newest currsize programs
        first = i + 1 - base.cache_info().currsize
        *older, newest = programs[first:i + 1]
        assert newest is p and sum(map(len, older)) <= MEMO_RULES
        if first:  # and keeping the next older one too would pass the bound
            assert sum(map(len, older)) + len(programs[first - 1]) > MEMO_RULES
    assert base.cache_info()[:2] == (0, 30)
    for p in reversed(programs[first:]):
        base(p)
    assert base.cache_info().misses == 30


@pytest.mark.pinned
def test_the_revision_table_holds_at_most_memo_rules_beyond_its_newest_entry():
    # rank-large pairs from 128 up to two 512-rule programs, each revised both
    # ways (249-1,003 rules an entry): without the rule bound the table
    # would keep all ten revisions
    clear_memos()
    pairs = [pair for size, seed in ((128, 1), (128, 2), (256, 1), (256, 2), (512, 1))
             for p, q in [rank_large_pair(size, seed)] for pair in ((p, q), (q, p))]
    weights = [len(p) + len(q) for p, q in pairs]
    for i, (p, q) in enumerate(pairs):
        revised_closure(p, q, Strategy.RANK)
        # every call misses, so the table holds the newest currsize revisions
        first = i + 1 - _revised_closure.cache_info().currsize
        *older, newest = weights[first:i + 1]
        assert newest == weights[i] and sum(older) <= MEMO_RULES
        if first:  # and keeping the next older one too would pass the bound
            assert sum(older) + weights[first - 1] > MEMO_RULES
    assert _revised_closure.cache_info()[:2] == (0, len(pairs))
    assert first == len(pairs) - 4  # the bound let six older revisions go
    # the entries kept are the most recently used: asking for them is a hit
    for p, q in reversed(pairs[first:]):
        revised_closure(p, q, Strategy.RANK)
    assert _revised_closure.cache_info()[:2] == (len(pairs) - first, len(pairs))


def test_equal_programs_parsed_apart_share_one_entry():
    # both tables look a program up by its rules: a second parse of the same
    # text finds the first parse's entry, also in the revision table's key
    p, q = prog(GAP_P), prog(GAP_Q)
    twin_p, twin_q = prog(GAP_P), prog(GAP_Q)
    assert twin_p == p and twin_p is not p and twin_p.rules is not p.rules
    for table, ask in ((base, lambda p, q: base(p)),
                       (_revised_closure, lambda p, q: revised_closure(p, q, Strategy.HULL))):
        clear_memos()
        ask(p, q)
        before = table.cache_info()
        ask(twin_p, twin_q)
        after = table.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert after.currsize == before.currsize


def _race(jobs, ask, table):
    """Four threads share the tables, asking for the jobs in different
    orders; each must get what one thread alone gets, and the table must
    count every call once, as a hit or a miss."""
    clear_memos()
    expected = [ask(*job) for job in jobs]
    clear_memos()
    results, errors = [None] * 4, []
    start = threading.Barrier(4)

    def worker(t):
        shift = t * len(jobs) // 4
        order = list(range(shift, len(jobs))) + list(range(shift))
        if t % 2:
            order.reverse()
        try:
            start.wait(timeout=60)
            got = {k: ask(*jobs[k]) for k in order}
            results[t] = [got[k] for k in range(len(jobs))]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the memo too
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [expected] * 4
    info = table.cache_info()
    assert info.hits + info.misses == 4 * len(jobs)
    assert info.currsize <= MEMO_SIZE


def _race_programs():
    # small programs and large ones, past both bounds
    small = [prog(TAXONOMY), prog(GAP_P), prog(GAP_Q)]
    large = [p for seed in (1, 2) for p in rank_large_pair(128, seed)]
    return small, large + [facts_program(f"t{k}_", 600) for k in range(4)]


def test_concurrent_base_and_revised_closure_match_a_sequential_run():
    small, large = _race_programs()
    jobs = [(p, q, Strategy.RANK) for p in small + large for q in small + large if p is not q]
    jobs += [(p, q, s) for p in small for q in small if p is not q
             for s in (Strategy.HULL, Strategy.EXTENDED_HULL)]
    _race(jobs, lambda p, q, strategy: (base(p), revised_closure(p, q, strategy)),
          _revised_closure)


def test_concurrent_base_calls_match_a_sequential_run():
    # base alone, so that its own count is exact too: 81 programs, past both
    # bounds, each asked for three times by every thread
    small, large = _race_programs()
    small += [facts_program(f"s{k}_", 3) for k in range(70)]
    _race([(p,) for _ in range(3) for p in small + large], base, base)
