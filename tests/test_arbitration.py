import random
import re

import pytest

from fcmerge import (
    ConfigError,
    PostulateId,
    Program,
    SizeLimitExceeded,
    Strategy,
    arbitrate,
    closure,
    conj,
    disj,
    merge,
)
from fcmerge.arbitration import _revised_closure, revised_closure
from fcmerge.fuzz import FuzzConfig, gen_program, search

from helpers import GAP_P, GAP_Q, clear_memos, closed, prog

ALL = tuple(Strategy)


class TestConj:
    def test_pools_programs(self):
        assert conj(prog("a -> c. b."), prog("b -> c. a.")) == closed("a", "b", "c")

    def test_empty_right_operand(self):
        p = prog(GAP_P)
        assert conj(p, Program()) == closure(p)

    def test_two_facts(self):
        assert conj(prog("b."), prog("a.")) == closed("a", "b")

    def test_conflict_collapses(self):
        assert conj(prog("a."), prog("-a.")).is_bottom


class TestDisj:
    def test_disjoint_facts_share_nothing(self):
        assert disj(prog("a."), prog("b.")) == closed()

    def test_idempotent(self):
        p = prog(GAP_P)
        assert disj(p, p) == closure(p)

    def test_shared_consequences_only(self):
        assert disj(prog("a. b."), prog("b. c.")) == closed("b")

    def test_bottom_is_identity(self):
        assert disj(prog("a. -a."), prog("b.")) == closed("b")


class TestArbitrate:
    def test_gap_pair_strategy_results(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert arbitrate(p, q, Strategy.RANK) == closed()
        assert arbitrate(p, q, Strategy.HULL) == closed("d")
        assert arbitrate(p, q, Strategy.EXTENDED_HULL) == closed("d", "e")

    @pytest.mark.parametrize("strategy", ALL)
    def test_consistent_union_any_strategy(self, strategy):
        p, q = prog("a. a -> b."), prog("c.")
        assert arbitrate(p, q, strategy) == closure(p | q)

    @pytest.mark.parametrize("strategy", ALL)
    def test_commutative(self, strategy):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert arbitrate(p, q, strategy) == arbitrate(q, p, strategy)

    @pytest.mark.parametrize("strategy", ALL)
    def test_both_inconsistent_collapses(self, strategy):
        assert arbitrate(prog("a. -a."), prog("b. -b."), strategy).is_bottom

    @pytest.mark.parametrize("strategy", ALL)
    def test_one_inconsistent_does_not_collapse(self, strategy):
        assert not arbitrate(prog("a. -a."), prog("b."), strategy).is_bottom

    def test_strategy_chain(self):
        rng = random.Random(13)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(100):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            rk = arbitrate(p, q, Strategy.RANK)
            h = arbitrate(p, q, Strategy.HULL)
            eh = arbitrate(p, q, Strategy.EXTENDED_HULL)
            assert rk.issubset(h)
            assert h.issubset(eh)


def test_thread_safe_evaluation():
    # everything is pure and immutable; concurrent calls must agree with
    # sequential ones
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(99)
    cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
    pairs = [(gen_program(cfg, rng), gen_program(cfg, rng)) for _ in range(60)]
    pairs.append((prog(GAP_P), prog(GAP_Q)))
    expected = [arbitrate(p, q, Strategy.EXTENDED_HULL) for p, q in pairs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda pq: arbitrate(pq[0], pq[1], Strategy.EXTENDED_HULL), pairs
        ))
    assert results == expected


def test_lowered_cap_wins_over_memo(monkeypatch):
    # eight candidate rules: within the default cap, above a cap of 3
    p = prog(" ".join(f"a{i} -> c." for i in range(8)))
    q = prog("-c. a0.")
    monkeypatch.delenv("FCMERGE_MAX_ENUM", raising=False)
    arbitrate(p, q, Strategy.HULL)
    monkeypatch.setenv("FCMERGE_MAX_ENUM", "3")
    with pytest.raises(SizeLimitExceeded):
        arbitrate(p, q, Strategy.HULL)


# revising WIDE_P by WIDE_Q searches eight candidate rules: within the
# default cap, above a cap of 3
WIDE_P = prog(" ".join(f"a{i} -> c." for i in range(8)))
WIDE_Q = prog("-c. a0.")


@pytest.mark.parametrize("evaluate", [
    lambda: arbitrate(WIDE_P, WIDE_Q, Strategy.EXTENDED_HULL),
    lambda: merge(WIDE_Q, (WIDE_P,), Strategy.HULL),
], ids=["eh-arbitration", "h-merge"])
def test_lowered_cap_after_a_cached_revision_raises(monkeypatch, evaluate):
    # the revision table keys on the cap: a result cached under the
    # default cap must not answer for a lower one
    clear_memos()
    monkeypatch.delenv("FCMERGE_MAX_ENUM", raising=False)
    evaluate()
    monkeypatch.setenv("FCMERGE_MAX_ENUM", "3")
    with pytest.raises(SizeLimitExceeded):
        evaluate()


def test_malformed_cap_after_cached_revisions(monkeypatch):
    # h reads the cap before looking its revision up, rk never reads it
    p, q = prog(GAP_P), prog(GAP_Q)
    clear_memos()
    monkeypatch.delenv("FCMERGE_MAX_ENUM", raising=False)
    arbitrate(p, q, Strategy.HULL)
    rank = arbitrate(p, q, Strategy.RANK)
    for raw in ("abc", "-1"):
        monkeypatch.setenv("FCMERGE_MAX_ENUM", raw)
        with pytest.raises(ConfigError):
            arbitrate(p, q, Strategy.HULL)
        assert arbitrate(p, q, Strategy.RANK) == rank


def test_lowered_cap_campaign_after_a_default_cap_campaign(monkeypatch):
    # the two campaigns make fewer revisions than the table holds, so every
    # one is still cached when the second cap-3 campaign asks for it
    config = FuzzConfig(seed=0, trials=2, strategies=(Strategy.HULL, Strategy.EXTENDED_HULL),
                        postulates=(PostulateId.SA1, PostulateId.SA2,
                                    PostulateId.SA3, PostulateId.SA4))
    monkeypatch.setenv("FCMERGE_MAX_ENUM", "3")
    clear_memos()
    cold = search(config).to_json()
    monkeypatch.delenv("FCMERGE_MAX_ENUM")
    assert search(config).to_json() != cold  # cap 3 skips what the default runs
    monkeypatch.setenv("FCMERGE_MAX_ENUM", "3")
    assert search(config).to_json() == cold


class TestStrategy:
    def test_tokens(self):
        assert Strategy.from_token("rk") is Strategy.RANK
        assert Strategy.from_token("h") is Strategy.HULL
        assert Strategy.from_token("eh") is Strategy.EXTENDED_HULL

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            Strategy.from_token("hull")

    @pytest.mark.parametrize("token", ["rk", "h", "eh", None])
    def test_a_token_is_not_a_strategy(self, token):
        # the gap pair does not pool, so arbitrate and merge both revise,
        # and a token must not run the hull operator in place of its Strategy,
        # nor find Strategy.RANK's entry in the revision table when it is
        # warm; a pooled merge answers without reading the strategy
        p, q = prog(GAP_P), prog(GAP_Q)
        clear_memos()
        revised_closure(p, q, Strategy.RANK)
        revised_closure(q, p, Strategy.RANK)
        message = re.escape(f"not a Strategy: {token!r}")
        with pytest.raises(TypeError, match=message):
            arbitrate(p, q, token)
        with pytest.raises(TypeError, match=message):
            merge(q, (p,), token)
        assert _revised_closure.cache_info().hits == 0
        assert merge(prog("c."), (prog("a."),), token) == closed("a", "c")
