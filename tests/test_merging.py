import random

import pytest

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

from helpers import closed, prog

ALL = tuple(Strategy)


class TestProfile:
    def test_multiset_sum_keeps_multiplicity(self):
        p = prog("a.")
        combined = Profile((p,)) + Profile((p,))
        assert len(combined) == 2
        assert combined.members == (p, p)

    def test_equality_is_order_insensitive(self):
        a, b = prog("a."), prog("b.")
        assert Profile((a, b)) == Profile((b, a))
        assert hash(Profile((a, b))) == hash(Profile((b, a)))
        assert Profile((a, a)) != Profile((a,))

    def test_must_be_nonempty(self):
        with pytest.raises(EmptyProfile):
            Profile(())

    def test_members_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Profile((prog("a."), Program()))

    def test_union_program(self):
        profile = Profile((prog("a."), prog("a -> b.")))
        assert profile.union_program() == prog("a. a -> b.")


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
    # one rank-style request in miniature, over atoms no other test uses,
    # so every program it closes is new to the memos.  Its closures and
    # bases are asked for again within the request (16 closure and 4 base
    # hits), which is the short-range reuse the memos are sized for: a
    # memo too small to keep it would show here as extra misses
    p1 = prog("wr_m -> wr_s. wr_c -> wr_m. wr_c -> -wr_s. wr_n -> wr_c. wr_n -> wr_s."
              " wr_a. wr_a -> wr_b.")
    p2 = prog("wr_c. wr_n. wr_b -> -wr_a.")
    constraint = prog("-wr_m.")
    closure_misses, base_misses = closure.cache_info().misses, base.cache_info().misses
    revised = revise_rank(p1, p2)
    assert closure(revised) == closed("wr_c", "wr_n", "wr_s")
    assert arbitrate(p1, p2, Strategy.RANK) == closed()
    assert merge(constraint, Profile((p1, p2)), Strategy.RANK) == closed("-wr_m")
    assert closure.cache_info().misses - closure_misses == 9
    assert base.cache_info().misses - base_misses == 2
