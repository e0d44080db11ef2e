import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmerge import (
    EmptyProfile,
    Profile,
    Program,
    Strategy,
    arbitrate,
    base,
    closure,
    merge,
    revise_rank,
)
from fcmerge.fuzz import FuzzConfig, gen_program

from helpers import clear_memos, closed, prog
from strategies import dense_programs, programs

ALL = tuple(Strategy)


class TestProfile:
    # a profile is a plain tuple; merge checks it at its entry
    def test_must_be_nonempty(self):
        with pytest.raises(EmptyProfile):
            merge(prog("a."), (), Strategy.RANK)

    def test_members_must_be_nonempty(self):
        with pytest.raises(ValueError):
            merge(prog("a."), (prog("a."), Program()), Strategy.RANK)


class TestMerge:
    @pytest.mark.parametrize("strategy", ALL)
    def test_consistent_pool_is_joint_closure(self, strategy):
        result = merge(prog("a."), Profile((prog("a -> b."),)), strategy)
        assert result == closed("a", "b")

    @pytest.mark.parametrize("strategy", ALL)
    def test_chained_profile_consistent_pool(self, strategy):
        profile = Profile((prog("a -> b."), prog("b -> c.")))
        assert merge(prog("a."), profile, strategy) == closed("a", "b", "c")

    @pytest.mark.parametrize("strategy", ALL)
    def test_singleton_merges(self, strategy):
        assert merge(prog("a."), Profile((prog("a -> b."),)), strategy) == closed("a", "b")
        assert merge(prog("a."), Profile((prog("b -> c."),)), strategy) == closed("a")

    @pytest.mark.parametrize("strategy", ALL)
    def test_conflicting_member_is_revised(self, strategy):
        profile = Profile((prog("a -> c. b -> -c."),))
        assert merge(prog("a. b."), profile, strategy) == closed("a", "b")

    def test_fairness_instance_differs_between_strategies(self):
        constraint = prog("a. b -> c. d -> c.")
        profile = Profile((
            prog("a. a -> d. a, d -> c."),
            prog("a. b. c -> -b. a -> d."),
        ))
        assert merge(constraint, profile, Strategy.RANK) == closed("a")
        assert merge(constraint, profile, Strategy.HULL) == closed("a", "c", "d")
        assert merge(constraint, profile, Strategy.EXTENDED_HULL) == closed("a", "c", "d")

    @pytest.mark.parametrize("strategy", ALL)
    def test_intersection_over_members(self, strategy):
        # members disagree after revision; only shared consequences survive
        profile = Profile((prog("-c. a -> b."), prog("b -> c.")))
        assert merge(prog("a."), profile, strategy) == closed("a")


@given(programs, st.lists(dense_programs.filter(lambda p: p.rules), min_size=1, max_size=3),
       st.data())
@settings(max_examples=60, deadline=None)
def test_merge_ignores_member_order(constraint, members, data):
    # a profile is a multiset: only how often each member occurs counts
    permuted = tuple(data.draw(st.permutations(members)))
    for strategy in ALL:
        assert merge(constraint, permuted, strategy) == merge(constraint, tuple(members), strategy)


class TestMergeProperties:
    @pytest.mark.parametrize("strategy", ALL)
    def test_result_entails_constraint(self, strategy):
        rng = random.Random(3)
        cfg = FuzzConfig(seed=0, trials=1, rules=5, atoms=4)
        for _ in range(100):
            constraint = gen_program(cfg, rng)
            members = []
            for _ in range(rng.randint(1, 3)):
                m = gen_program(cfg, rng)
                if m.rules:
                    members.append(m)
            if not members:
                continue
            result = merge(constraint, Profile(tuple(members)), strategy)
            assert closure(constraint).issubset(result)
            if not closure(constraint).is_bottom:
                assert not result.is_bottom

    @pytest.mark.parametrize("strategy", ALL)
    def test_consistent_pool_case(self, strategy):
        rng = random.Random(8)
        cfg = FuzzConfig(seed=0, trials=1, rules=4, atoms=4)
        hits = 0
        for _ in range(150):
            constraint = gen_program(cfg, rng)
            member = gen_program(cfg, rng)
            if not member.rules:
                continue
            pooled = closure(constraint | member)
            if pooled.is_bottom:
                continue
            hits += 1
            assert merge(constraint, Profile((member,)), strategy) == pooled
        assert hits > 50


def test_one_rank_request_reuses_its_own_closures_and_bases():
    # one rank-style request in miniature, from empty memos.  Its closures and
    # bases are asked for again within the request (16 closure and 4 base
    # hits), which is the short-range reuse the memos are sized for: a
    # memo too small to keep it would show here as extra misses
    p1 = prog("wr_m -> wr_s. wr_c -> wr_m. wr_c -> -wr_s. wr_n -> wr_c. wr_n -> wr_s."
              " wr_a. wr_a -> wr_b.")
    p2 = prog("wr_c. wr_n. wr_b -> -wr_a.")
    constraint = prog("-wr_m.")
    clear_memos()
    revised = revise_rank(p1, p2)
    assert closure(revised) == closed("wr_c", "wr_n", "wr_s")
    assert arbitrate(p1, p2, Strategy.RANK) == closed()
    assert merge(constraint, Profile((p1, p2)), Strategy.RANK) == closed("-wr_m")
    assert closure.cache_info().misses == 9
    assert base.cache_info().misses == 2
