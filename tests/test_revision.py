import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmerge import (
    BOTTOM,
    Flock,
    Program,
    SizeLimitExceeded,
    base,
    closure,
    exceptional_rules,
    flock_closure,
    hull,
    maximal_extensions,
    rank,
    revise_extended_hull,
    revise_hull,
    revise_rank,
)
from fcmerge.fuzz import FuzzConfig, atom_pool, gen_program

from helpers import (
    ALL_EXCEPTIONAL,
    GAP_P,
    GAP_Q,
    TAXONOMY,
    TAXONOMY_LEVEL1,
    TAXONOMY_LEVEL2,
    closed,
    prog,
)
from oracles import brute_maximal_extensions, naive_base, naive_exceptional, naive_rank
from strategies import rules


class TestExceptionalRules:
    def test_taxonomy_first_level(self):
        assert exceptional_rules(prog(TAXONOMY)) == prog(TAXONOMY_LEVEL1)

    def test_tolerant_program_has_none(self):
        assert exceptional_rules(prog(TAXONOMY_LEVEL2)) == Program()

    def test_fully_exceptional_consistent_program(self):
        p = prog(ALL_EXCEPTIONAL)
        assert exceptional_rules(p) == p

    def test_inconsistent_program_all_rules_exceptional(self):
        p = prog("a. -a. b -> c.")
        assert exceptional_rules(p) == p

    def test_facts_of_consistent_program_never_exceptional(self):
        p = prog("a. a -> b. b -> -a.")  # inconsistent: everything exceptional
        assert exceptional_rules(p) == p
        q = prog("a. b -> -a.")
        assert not any(r.is_fact for r in exceptional_rules(q).rules)

    def test_one_level_adds_at_most_one_closure_miss(self):
        # 48 rules over atoms no other test uses, so nothing is memoised yet:
        # 16 opposed pairs, each exceptional, and 16 tolerated rules
        opposed = " ".join(f"wc_p{i} -> wc_f{i}. wc_p{i} -> -wc_f{i}." for i in range(16))
        tolerated = " ".join(f"wc_b{i} -> wc_f{i}." for i in range(16))
        p = prog(f"{opposed} {tolerated}")
        misses = closure.cache_info().misses
        assert exceptional_rules(p) == prog(opposed)
        assert closure.cache_info().misses - misses <= 1


class TestBase:
    def test_taxonomy_levels(self):
        b = base(prog(TAXONOMY))
        assert b.levels == (
            prog(TAXONOMY),
            prog(TAXONOMY_LEVEL1),
            prog(TAXONOMY_LEVEL2),
            Program(),
        )

    def test_empty_program(self):
        assert base(Program()).levels == (Program(),)

    def test_fully_exceptional_base(self):
        p = prog(ALL_EXCEPTIONAL)
        assert base(p).levels == (p, Program())

    def test_levels_decrease_and_end_empty(self):
        b = base(prog(TAXONOMY))
        for bigger, smaller in zip(b.levels, b.levels[1:]):
            assert smaller.rules < bigger.rules
        assert b.levels[-1] == Program()

    def test_matches_naive_oracle(self):
        rng = random.Random(42)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(100):
            p = gen_program(cfg, rng)
            levels = base(p).levels
            assert levels == naive_base(p)
            if not closure(p).is_bottom:
                assert all(not level.facts for level in levels[1:])


class TestRank:
    def test_taxonomy_with_new_fact(self):
        assert rank(prog(TAXONOMY), prog("n.")) == 2

    def test_consistent_union_has_rank_zero(self):
        assert rank(prog("a."), prog("b.")) == 0

    def test_gap_pair_rank_one(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert rank(p, q) == 1
        assert rank(q, p) == 1
        assert base(p).levels[1] == Program()

    def test_inconsistent_inputs_use_last_level(self):
        p = prog(TAXONOMY)
        assert rank(p, prog("x. -x.")) == base(p).last_index
        assert rank(prog("x. -x."), p) == 1  # base is (P, empty)

    def test_monotone_in_new_information(self):
        rng = random.Random(9)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(150):
            p = gen_program(cfg, rng)
            q2 = gen_program(cfg, rng)
            sub = [r for r in q2 if rng.random() < 0.5]
            q1 = Program(frozenset(sub))
            assert rank(p, q1) <= rank(p, q2)

    def test_matches_naive_oracle(self):
        rng = random.Random(5)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(100):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            assert rank(p, q) == naive_rank(p, q)


class TestReviseRank:
    def test_gap_pair_collapses_to_new_information(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert revise_rank(p, q) == q
        assert revise_rank(q, p) == p

    def test_consistent_union(self):
        assert revise_rank(prog("a."), prog("b.")) == prog("a. b.")

    def test_taxonomy_with_new_fact(self):
        result = revise_rank(prog(TAXONOMY), prog("n."))
        assert result == prog("n -> c. n -> s. n.")
        assert closure(result) == closed("n", "c", "s")

    def test_success(self):
        rng = random.Random(17)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(200):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            assert closure(q).issubset(closure(revise_rank(p, q)))


class TestMaximalExtensions:
    def test_gap_pair_extensions(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        of_q = maximal_extensions(q, p)
        assert set(of_q) == {
            prog("a -> e. a, e -> d. c -> d. c -> f. b."),
            prog("a, b -> c. a -> e. a, e -> c. a, e -> d. c -> d. c -> f."),
        }
        of_p = maximal_extensions(p, q)
        assert set(of_p) == {
            prog("b -> d. -c -> e. a, -c -> f. a."),
            prog("a, b -> -c. b -> d. b -> -c. -c -> e. a, -c -> f."),
        }

    def test_inconsistent_new_information_gives_empty(self):
        assert maximal_extensions(prog("a."), prog("x. -x.")) == ()

    def test_canonical_order_is_sorted_text(self):
        exts = maximal_extensions(prog(GAP_Q), prog(GAP_P))
        assert [str(e) for e in exts] == sorted(str(e) for e in exts)

    def test_consistent_pair_single_extension(self):
        p = prog("a. a -> b.")
        assert maximal_extensions(p, prog("c.")) == (p,)

    def test_matches_brute_force(self):
        rng = random.Random(23)
        cfg = FuzzConfig(seed=0, trials=1, rules=7, atoms=4)
        for _ in range(60):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            assert maximal_extensions(p, q) == brute_maximal_extensions(p, q)

    def test_matches_brute_force_under_dense_conflict(self):
        # tiny vocabulary and heavy negation force deep enumeration
        cfg = FuzzConfig(seed=0, trials=1, rules=10, atoms=3, body_len=2,
                         neg_prob=0.5)
        rng = random.Random(31337)
        pool = atom_pool(3)
        for _ in range(150):
            p, q = gen_program(cfg, rng, pool), gen_program(cfg, rng, pool)
            assert maximal_extensions(p, q) == brute_maximal_extensions(p, q)

    def test_independent_conflicts_match_brute_force(self):
        # k = 6 pairs bi. and bi -> zi., revised by every -zi.: each pair
        # loses one of its two rules independently, so 2^6 extensions; the
        # search also reaches sets below them, which must not be kept
        k = 6
        p = prog(" ".join(f"ic_b{i}. ic_b{i} -> ic_z{i}." for i in range(k)))
        q = prog(" ".join(f"-ic_z{i}." for i in range(k)))
        extensions = maximal_extensions(p, q)
        assert len(extensions) == 2 ** k
        assert extensions == brute_maximal_extensions(p, q)

    def test_enumeration_adds_no_closure_miss_per_subset(self):
        # late conflict over atoms no other test uses: 10 candidates, of
        # which only lc_x and lc_x -> lc_z together collide with q.  Besides
        # closure(q) and rank's closure(p | q), every question goes to one index
        facts = " ".join(f"lc_a{i}." for i in range(8))
        p, q = prog(f"{facts} lc_x. lc_x -> lc_z."), prog("-lc_z.")
        misses = closure.cache_info().misses
        assert len(maximal_extensions(p, q)) == 2
        assert closure.cache_info().misses - misses <= 3

    def test_cap_exceeded(self, monkeypatch):
        rules = " ".join(f"a{i} -> c." for i in range(25))
        p, q = prog(rules), prog("-c. a0.")
        with pytest.raises(SizeLimitExceeded):
            maximal_extensions(p, q)
        monkeypatch.setenv("FCMERGE_MAX_ENUM", "25")
        assert len(maximal_extensions(p, q)) > 0

    def test_cap_env_override(self, monkeypatch):
        rules = " ".join(f"a{i} -> c." for i in range(10))
        p, q = prog(rules), prog("-c. a0.")
        monkeypatch.setenv("FCMERGE_MAX_ENUM", "5")
        with pytest.raises(SizeLimitExceeded):
            maximal_extensions(p, q)
        monkeypatch.setenv("FCMERGE_MAX_ENUM", "12")
        assert maximal_extensions(p, q)


class TestHull:
    def test_gap_pair_hulls(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert hull(q, p) == prog("a -> e. a, e -> d. c -> d. c -> f.")
        assert hull(p, q) == prog("b -> d. -c -> e. a, -c -> f.")

    def test_consistent_pair_returns_whole_program(self):
        p = prog("a. a -> b.")
        assert hull(p, prog("c.")) == p

    def test_empty_on_inconsistent_new_information(self):
        assert hull(prog("a."), prog("x. -x.")) == Program()

    def test_contains_rank_level_and_below_every_extension(self):
        rng = random.Random(31)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(150):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            h = hull(p, q)
            exts = maximal_extensions(p, q)
            level = base(p).levels[rank(p, q)]
            for ext in exts:
                assert h.rules <= ext.rules
            if exts:
                assert level.rules <= h.rules


class TestReviseHull:
    def test_gap_pair_closures(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert closure(revise_hull(q, p)) == closed("a", "d", "e")
        assert closure(revise_hull(p, q)) == closed("b", "d")

    def test_consistent_union(self):
        p, q = prog("a."), prog("b.")
        assert closure(revise_hull(p, q)) == closure(p | q)


class TestExtendedHull:
    def test_conflicting_constraint_splits_into_flock(self):
        before = prog("a -> c. b -> -c.")
        update = prog("a. b.")
        result = revise_extended_hull(before, update)
        assert result.members == (
            prog("a. b. a -> c."),
            prog("a. b. b -> -c."),
        )
        assert flock_closure(result) == closed("a", "b")

    def test_consistent_union_single_member(self):
        result = revise_extended_hull(prog("a."), prog("b."))
        assert result.members == (prog("a. b."),)

    def test_gap_pair_flock_closures(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert flock_closure(revise_extended_hull(p, q)) == closed("b", "d", "e")
        assert flock_closure(revise_extended_hull(q, p)) == closed("a", "d", "e", "f")

    def test_inconsistent_new_information_keeps_it_alone(self):
        result = revise_extended_hull(prog("a."), prog("x. -x."))
        assert result.members == (prog("x. -x."),)

    def test_flock_lifting_concatenates_memberwise(self):
        flock = Flock((prog("a -> c. b -> -c."), prog("d.")))
        update = prog("a. b.")
        result = revise_extended_hull(flock, update)
        assert result.members == (
            prog("a. b. a -> c."),
            prog("a. b. b -> -c."),
            prog("a. b. d."),
        )

    def test_flock_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Flock(())

    def test_flock_concatenation(self):
        f = Flock.of(prog("a.")) + Flock.of(prog("b."))
        assert f.members == (prog("a."), prog("b."))


class TestFlockClosure:
    def test_singleton_is_program_closure(self):
        p = prog("a. a -> b.")
        assert flock_closure(Flock.of(p)) == closure(p)

    def test_gap_extensions_intersection(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        members = tuple(t | p for t in maximal_extensions(q, p))
        assert flock_closure(Flock(members)) == closed("a", "d", "e", "f")

    def test_all_bottom_members(self):
        bad = prog("a. -a.")
        assert flock_closure(Flock((bad, bad))).is_bottom

    def test_bottom_member_is_absorbed(self):
        assert flock_closure(Flock((prog("a. -a."), prog("b.")))) == closed("b")


class TestRevisionProperties:
    def test_conservative_extension_chain(self):
        rng = random.Random(57)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(150):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            rk = closure(revise_rank(p, q))
            h = closure(revise_hull(p, q))
            eh = flock_closure(revise_extended_hull(p, q))
            assert rk.issubset(h)
            assert h.issubset(eh)

    def test_revisions_consistent_for_consistent_updates(self):
        rng = random.Random(71)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        checked = 0
        for _ in range(200):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            if closure(q).is_bottom:
                continue
            checked += 1
            assert not closure(revise_rank(p, q)).is_bottom
            assert not closure(revise_hull(p, q)).is_bottom
            for member in revise_extended_hull(p, q):
                assert not closure(member).is_bottom
        assert checked > 100

    def test_hull_revision_conservative_over_rank(self):
        p, q = prog(TAXONOMY), prog("n.")
        assert closure(revise_rank(p, q)).issubset(closure(revise_hull(p, q)))


def test_shared_pool_helper_sizes():
    assert len(atom_pool(3)) == 3
    assert len(set(atom_pool(40))) == 40


programs_up_to_12 = st.builds(Program, st.frozensets(rules, max_size=12))
programs_up_to_16 = st.builds(Program, st.frozensets(rules, max_size=16))


@given(programs_up_to_16)
@settings(max_examples=300, deadline=None)
def test_exceptional_rules_and_base_match_naive_oracles(p):
    assert exceptional_rules(p) == naive_exceptional(p)
    assert base(p).levels == naive_base(p)


@given(programs_up_to_12, programs_up_to_12)
@settings(max_examples=150, deadline=None)
def test_maximal_extensions_match_brute_force(p, q):
    assert rank(p, q) == naive_rank(p, q)
    assert maximal_extensions(p, q) == brute_maximal_extensions(p, q)
