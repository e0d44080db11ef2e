import hashlib
import random
from collections import Counter
from functools import reduce
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmerge import (
    BOTTOM,
    Program,
    SizeLimitExceeded,
    arbitrate,
    base,
    closure,
    exceptional_rules,
    hull,
    maximal_extensions,
    merge,
    rank,
    revise_extended_hull,
    revise_hull,
    revise_rank,
)
from fcmerge.arbitration import Strategy, _revised_closure, revised_closure
from fcmerge.core import CompiledProgram
from fcmerge.revision import _add_edge, _rank_level, dualize, hull_closure, search_extensions
from fcmerge.fuzz import FuzzConfig, atom_pool, gen_program, search

from helpers import (
    ALL_EXCEPTIONAL,
    GAP_P,
    GAP_Q,
    TAXONOMY,
    TAXONOMY_LEVEL1,
    TAXONOMY_LEVEL2,
    clear_memos,
    closed,
    count_index_builds,
    facts,
    flock_meet,
    prog,
    rank_large_pair,
    rank_large_triple,
)
from oracles import brute_maximal_extensions, naive_base, naive_exceptional, naive_rank
from strategies import dense_programs, programs, rules


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
        assert all(r.body for r in exceptional_rules(q).rules)

    def test_one_level_adds_at_most_one_closure_miss(self):
        # 48 rules: 16 opposed pairs, each exceptional, and 16 tolerated rules
        opposed = " ".join(f"wc_p{i} -> wc_f{i}. wc_p{i} -> -wc_f{i}." for i in range(16))
        tolerated = " ".join(f"wc_b{i} -> wc_f{i}." for i in range(16))
        p = prog(f"{opposed} {tolerated}")
        clear_memos()
        assert exceptional_rules(p) == prog(opposed)
        assert closure.cache_info().misses <= 1


class TestBase:
    def test_taxonomy_levels(self):
        assert base(prog(TAXONOMY)) == (
            prog(TAXONOMY),
            prog(TAXONOMY_LEVEL1),
            prog(TAXONOMY_LEVEL2),
            Program(),
        )

    def test_empty_program(self):
        assert base(Program()) == (Program(),)

    def test_fully_exceptional_base(self):
        p = prog(ALL_EXCEPTIONAL)
        assert base(p) == (p, Program())

    def test_levels_decrease_and_end_empty(self):
        levels = base(prog(TAXONOMY))
        for bigger, smaller in zip(levels, levels[1:]):
            assert smaller.rules < bigger.rules
        assert levels[-1] == Program()

    def test_matches_naive_oracle(self):
        rng = random.Random(42)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(100):
            p = gen_program(cfg, rng)
            levels = base(p)
            assert levels == naive_base(p)
            if not closure(p).is_bottom:
                assert all(not facts(level) for level in levels[1:])


class TestRank:
    def test_taxonomy_with_new_fact(self):
        assert rank(prog(TAXONOMY), prog("n.")) == 2

    def test_consistent_union_has_rank_zero(self):
        assert rank(prog("a."), prog("b.")) == 0

    def test_gap_pair_rank_one(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert rank(p, q) == 1
        assert rank(q, p) == 1
        assert base(p)[1] == Program()

    def test_inconsistent_inputs_use_last_level(self):
        p = prog(TAXONOMY)
        assert rank(p, prog("x. -x.")) == len(base(p)) - 1
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

    def test_inconsistent_new_information_gives_empty(self, monkeypatch):
        assert maximal_extensions(prog("a."), prog("x. -x.")) == ()
        # the search reads the cap only after the q check, so a malformed
        # one fails no revision by an inconsistent q
        for raw in ("abc", "-1"):
            monkeypatch.setenv("FCMERGE_MAX_ENUM", raw)
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
        # late conflict: 10 candidates, of which only lc_x and lc_x -> lc_z
        # together collide with q.  Besides closure(q) and rank's
        # closure(p | q), every question goes to one index
        facts = " ".join(f"lc_a{i}." for i in range(8))
        p, q = prog(f"{facts} lc_x. lc_x -> lc_z."), prog("-lc_z.")
        clear_memos()
        assert len(maximal_extensions(p, q)) == 2
        assert closure.cache_info().misses <= 3

    def test_matches_brute_force_at_fourteen_candidates(self):
        # a consistent program with base levels of 17, 9 and 3 rules; q
        # joins the last, so 14 candidates and 26 extensions
        p = prog("bf_p -> bf_f. bf_p -> -bf_fl. bf_p -> bf_b. bf_b -> bf_fl. "
                 "bf_a. bf_a -> bf_c. bf_c -> -bf_f. bf_d. bf_d, bf_f -> bf_e. "
                 "bf_e -> bf_fl. bf_g. bf_g -> -bf_e. bf_b, bf_g -> bf_h. "
                 "bf_h -> -bf_c. bf_d -> bf_k. bf_k, bf_b -> -bf_a. -bf_fl -> bf_m.")
        q = prog("bf_p.")
        assert len(p.rules - base(p)[rank(p, q)].rules) == 14
        extensions = maximal_extensions(p, q)
        assert len(extensions) == 26
        assert extensions == brute_maximal_extensions(p, q)

    @pytest.mark.pinned
    @pytest.mark.parametrize("p_text, q_text, extensions, questions", [
        # late conflict at the cap: 24 candidates, of which only zx and
        # zx -> zz together collide with q
        (" ".join(f"a{i}." for i in range(22)) + " zx. zx -> zz.", "-zz.", 2, 50),
        # independent conflicts, k = 8: 16 candidates, each pair loses one
        # of its rules; the include/exclude search asked 15,307 questions
        (" ".join(f"b{i}. b{i} -> z{i}." for i in range(8)),
         " ".join(f"-z{i}." for i in range(8)), 2 ** 8, 3336),
    ], ids=["late-conflict-24", "independent-conflicts-8"])
    def test_enumeration_work_is_output_sensitive(self, monkeypatch, p_text, q_text,
                                                  extensions, questions):
        # every tolerability question asked of the index, counted rather
        # than timed, bounded by (candidates + 2) x (extensions + 1) and
        # pinned exactly: a Berge step that loses sight of a refuted
        # transversal asks more, yet can stay under the bound
        p, q = prog(p_text), prog(q_text)
        candidates = len(p.rules - base(p)[rank(p, q)].rules)  # memoises base
        asked = 0
        consistent_with = CompiledProgram.consistent_with

        def counting(self, on, derived=None):
            nonlocal asked
            asked += 1
            return consistent_with(self, on, derived)

        monkeypatch.setattr(CompiledProgram, "consistent_with", counting)
        assert len(maximal_extensions(p, q)) == extensions
        assert asked <= (candidates + 2) * (extensions + 1)
        assert asked == questions

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

    def test_inert_candidates_get_no_question(self, monkeypatch):
        # p's rules are all tolerated, so q joins the empty level and
        # closure(level | q) is s, -t.  x -> s adds nothing to it and
        # t -> u never fires consistently: neither is asked about, and both
        # lie in every extension.  s -> m and m -> t collide together
        p, q = prog("s -> m. m -> t. x -> s. t -> u."), prog("s. -t.")
        inert = prog("x -> s. t -> u.").rules
        asked = []
        consistent_with = CompiledProgram.consistent_with

        def recording(self, on, derived=None):
            asked.extend(r for i, r in enumerate(self.rules) if on >> i & 1)
            return consistent_with(self, on, derived)

        monkeypatch.setattr(CompiledProgram, "consistent_with", recording)
        extensions = maximal_extensions(p, q)
        assert asked and inert.isdisjoint(asked)
        assert extensions == (prog("m -> t. t -> u. x -> s."),
                              prog("s -> m. t -> u. x -> s."))
        assert all(inert <= e.rules for e in extensions)
        assert extensions == brute_maximal_extensions(p, q)


class TestHull:
    def test_gap_pair_hulls(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert hull(q, p) == prog("a -> e. a, e -> d. c -> d. c -> f.")
        assert hull(p, q) == prog("b -> d. -c -> e. a, -c -> f.")

    def test_consistent_pair_returns_whole_program(self):
        p = prog("a. a -> b.")
        assert hull(p, prog("c.")) == p

    def test_empty_on_inconsistent_new_information(self, monkeypatch):
        assert hull(prog("a."), prog("x. -x.")) == Program()
        for raw in ("abc", "-1"):  # nor does hull read a malformed cap
            monkeypatch.setenv("FCMERGE_MAX_ENUM", raw)
            assert hull(prog("a."), prog("x. -x.")) == Program()

    def test_contains_rank_level_and_below_every_extension(self):
        rng = random.Random(31)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(150):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            h = hull(p, q)
            exts = maximal_extensions(p, q)
            level = base(p)[rank(p, q)]
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
        result = revise_extended_hull((before,), update)
        assert result == (
            prog("a. b. a -> c."),
            prog("a. b. b -> -c."),
        )
        assert flock_meet(result) == closed("a", "b")

    def test_consistent_union_single_member(self):
        result = revise_extended_hull((prog("a."),), prog("b."))
        assert result == (prog("a. b."),)

    def test_gap_pair_flock_closures(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert flock_meet(revise_extended_hull((p,), q)) == closed("b", "d", "e")
        assert flock_meet(revise_extended_hull((q,), p)) == closed("a", "d", "e", "f")

    def test_inconsistent_new_information_keeps_it_alone(self):
        result = revise_extended_hull((prog("a."),), prog("x. -x."))
        assert result == (prog("x. -x."),)

    def test_flock_lifting_concatenates_memberwise(self):
        flock = (prog("a -> c. b -> -c."), prog("d."))
        update = prog("a. b.")
        result = revise_extended_hull(flock, update)
        assert result == (
            prog("a. b. a -> c."),
            prog("a. b. b -> -c."),
            prog("a. b. d."),
        )

    def test_flock_must_be_nonempty(self):
        with pytest.raises(ValueError):
            revise_extended_hull((), prog("a."))


class TestFlockClosure:
    def test_singleton_is_program_closure(self):
        p = prog("a. a -> b.")
        assert flock_meet((p,)) == closure(p)

    def test_gap_extensions_intersection(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        members = tuple(t | p for t in maximal_extensions(q, p))
        assert flock_meet(members) == closed("a", "d", "e", "f")

    def test_all_bottom_members(self):
        bad = prog("a. -a.")
        assert flock_meet((bad, bad)).is_bottom

    def test_bottom_member_is_absorbed(self):
        assert flock_meet((prog("a. -a."), prog("b."))) == closed("b")

    def test_empty_flock_is_top(self):
        # the meet of no closures is the top element
        assert flock_meet(()) is BOTTOM


class TestRevisionProperties:
    def test_conservative_extension_chain(self):
        rng = random.Random(57)
        cfg = FuzzConfig(seed=0, trials=1, rules=6, atoms=4)
        for _ in range(150):
            p, q = gen_program(cfg, rng), gen_program(cfg, rng)
            rk = closure(revise_rank(p, q))
            h = closure(revise_hull(p, q))
            eh = flock_meet(revise_extended_hull((p,), q))
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
            for member in revise_extended_hull((p,), q):
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
    assert base(p) == naive_base(p)


@pytest.mark.parametrize("size", [128, 256])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exceptional_rules_and_base_match_naive_oracles_at_rank_large_sizes(size, seed):
    # Hypothesis programs rarely let one question settle another rule;
    # on the benchmark's programs a consistent question settles many
    for p in rank_large_pair(size, seed):
        assert exceptional_rules(p) == naive_exceptional(p)
        assert base(p) == naive_base(p)


@pytest.mark.pinned
def test_base_questions_on_rank_large_programs(monkeypatch):
    # pinned work: the questions asked while building the bases of the six
    # 128-rule programs, counted at the index's one question entry point.
    # One question per rule per level asked 918; a consistent question
    # settles every rule it fires, and 395-417 are left, depending on set
    # order, which literals' identity hashes make vary from process to process
    pool = [p for seed in (1, 2, 3) for p in rank_large_pair(128, seed)]
    calls = Counter()

    def counting(self, *args, ask=CompiledProgram._ask, **kwargs):
        calls["_ask"] += 1
        return ask(self, *args, **kwargs)
    monkeypatch.setattr(CompiledProgram, "_ask", counting)
    clear_memos()
    for p in pool:
        base(p)
    assert calls["_ask"] <= 459


def _assert_rank_revision_matches_oracles(p, q):
    assert rank(p, q) == naive_rank(p, q)
    assert _rank_level(p, q) == base(p)[rank(p, q)]
    assert revise_rank(p, q) == naive_base(p)[naive_rank(p, q)] | q
    assert maximal_extensions(p, q) == brute_maximal_extensions(p, q)


@given(programs_up_to_12, programs_up_to_12)
@settings(max_examples=150, deadline=None)
def test_maximal_extensions_match_brute_force(p, q):
    _assert_rank_revision_matches_oracles(p, q)


def test_maximal_extensions_match_brute_force_on_one_atom_pool():
    # p and q over the same three atoms, so p | q often conflicts while q
    # alone does not: the rank level then comes from the base's later levels
    cfg = FuzzConfig(seed=0, trials=1, rules=8, atoms=3, neg_prob=0.5)
    rng = random.Random(4711)
    pool = atom_pool(3)
    conflicts = 0
    for _ in range(200):
        p, q = gen_program(cfg, rng, pool), gen_program(cfg, rng, pool)
        conflicts += closure(p | q).is_bottom and not closure(q).is_bottom
        _assert_rank_revision_matches_oracles(p, q)
    assert conflicts >= 40


@pytest.mark.parametrize("p_text, q_text", [
    # p | q consistent: the rank level is p itself
    ("lb_a. lb_a -> lb_b. lb_c -> -lb_b.", "lb_d. lb_d -> lb_e."),
    # q inconsistent: the rank level is the empty program
    ("lb_f. lb_f -> lb_g. lb_h -> -lb_g.", "lb_i. lb_i -> -lb_i."),
], ids=["consistent-union", "inconsistent-q"])
def test_rank_level_needs_no_base(p_text, q_text):
    p, q = prog(p_text), prog(q_text)
    clear_memos()
    revise_rank(p, q)
    maximal_extensions(p, q)
    assert base.cache_info().misses == 0


@pytest.mark.pinned
def test_fixed_fuzz_run_memo_misses():
    # pinned work: base misses may only fall.  The base is built only when
    # q is consistent and p | q is not (2,834 misses when every rank
    # request built it); closure misses were unchanged by that.  They were
    # 8,257 while the revision table closed h and eh revisions afresh
    # instead of reading them off the enumeration's index
    clear_memos()
    search(FuzzConfig(seed=7, trials=40))
    assert base.cache_info().misses == 489
    assert closure.cache_info().misses == 7801
    # hits may only fall too: 18,054 when revise_rank asked closure(q)
    # twice and maximal_extensions three times, and rank asked the base's
    # last, empty level; 11,224 before a repeated revision was looked up;
    # 9,567 while the postulate evaluators asked again for closures they
    # held; 9,296 while h and eh revisions were closed afresh
    assert closure.cache_info().hits == 9005
    # the revisions the campaign's arbitrations and merges compute; the
    # other 554 of their 4,311 are looked up
    assert _revised_closure.cache_info().misses == 3757


@pytest.mark.pinned
def test_fixed_fuzz_run_index_builds(monkeypatch):
    # pinned work, may only fall: every CompiledProgram the fixed run
    # builds, for stratify, exceptional_rules and the enumeration.  9,112
    # while every closure miss compiled its program; the sweeps close them
    # all without one
    clear_memos()
    built = count_index_builds(monkeypatch)
    search(FuzzConfig(seed=7, trials=40))
    assert built() == 1311


@pytest.mark.pinned
def test_rank_large_memo_counts():
    # pinned work, misses may only fall: the six 128- and 256-rule triples
    # of the rank-large benchmark and one of its 512-rule triples, each
    # revised, arbitrated and merged as one of its requests is.  Every hit
    # falls within one triple; neither the base table's nor the revision
    # table's bound on rules may cost one of them, also when two 512-rule
    # programs are asked for.  closure stays on lru_cache: under that bound
    # its counts would be (64, 83)
    clear_memos()
    for size, seeds in ((128, (1, 2, 3)), (256, (1, 2, 3)), (512, (1,))):
        for seed in seeds:
            p1, p2, constraint = rank_large_triple(size, seed)
            revise_rank(p1, p2)
            arbitrate(p1, p2, Strategy.RANK)
            merge(constraint, (p1, p2), Strategy.RANK)
    assert closure.cache_info()[:2] == (67, 80)
    assert base.cache_info()[:2] == (44, 14)
    assert _revised_closure.cache_info()[:2] == (0, 28)


@pytest.mark.parametrize("p_text, q_text, lookups", [
    # p | q consistent: q, then p | q
    ("cq_a. cq_a -> cq_b.", "cq_c.", 2),
    # q joins the base's middle level: q, p | q, then that level | q
    ("cq_p -> cq_b. cq_p -> -cq_f. cq_b -> cq_f.", "cq_p.", 3),
    # q inconsistent: q alone
    ("cq_d. cq_d -> cq_e.", "cq_g. cq_g -> -cq_g.", 1),
], ids=["consistent-union", "middle-level", "inconsistent-q"])
def test_q_is_asked_about_once_per_call(p_text, q_text, lookups):
    p, q = prog(p_text), prog(q_text)
    clear_memos()
    for revise in (revise_rank, maximal_extensions):
        before = closure.cache_info()
        revise(p, q)
        after = closure.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == lookups


def _assert_enumeration_matches_brute_force(p, q):
    extensions = brute_maximal_extensions(p, q)
    assert maximal_extensions(p, q) == extensions
    common = frozenset.intersection(*(e.rules for e in extensions)) if extensions else ()
    assert hull(p, q) == Program(common)


@given(programs, programs)
@settings(max_examples=300, deadline=None)
def test_maximal_extensions_and_hull_match_brute_force(p, q):
    _assert_enumeration_matches_brute_force(p, q)


@given(dense_programs, dense_programs)
@settings(max_examples=300, deadline=None)
def test_maximal_extensions_and_hull_match_brute_force_under_dense_negation(p, q):
    _assert_enumeration_matches_brute_force(p, q)


def _assert_search_readers_agree(p, q):
    # the revision table reads h and eh closures off the enumeration's own
    # index, and hull intersects the found bitmasks: each must equal what
    # the public revisions and maximal_extensions give
    extensions = maximal_extensions(p, q)
    common = frozenset.intersection(*(e.rules for e in extensions)) if extensions else ()
    assert hull(p, q) == Program(common)
    assert revised_closure(p, q, Strategy.HULL) == closure(revise_hull(p, q))
    assert (revised_closure(p, q, Strategy.EXTENDED_HULL)
            == flock_meet(revise_extended_hull((p,), q)))


@given(programs, programs)
@settings(max_examples=300, deadline=None)
def test_search_readers_match_the_revisions(p, q):
    _assert_search_readers_agree(p, q)


@given(dense_programs, dense_programs)
@settings(max_examples=300, deadline=None)
def test_search_readers_match_the_revisions_under_dense_negation(p, q):
    _assert_search_readers_agree(p, q)


def _index_questions(p, q):
    """(method, on, switched-off count) for every question maximal_extensions,
    hull and the revision table's h and eh reader ask an index."""
    asked, switched_off = [], {}
    init = CompiledProgram.__init__

    def building(self, program, off=()):
        switched_off[id(self)] = (len(off), self)  # self kept, so its id is not reused
        init(self, program, off)

    def spying(name):
        method = getattr(CompiledProgram, name)

        def asking(self, on, *args):
            asked.append((name, on, switched_off[id(self)][0]))
            return method(self, on, *args)
        return asking

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CompiledProgram, "__init__", building)
        for name in ("consistent_with", "closure_with"):
            mp.setattr(CompiledProgram, name, spying(name))
        maximal_extensions(p, q)
        hull(p, q)
        for extended in (False, True):
            hull_closure(p, q, None, extended)
    return asked


def _assert_questions_set_only_switched_off_positions(p, q):
    # bit i of a question is the i-th switched-off rule, candidate i of the
    # search; a bit past them would switch on a rule one body literal short
    # of firing, so no caller may set one
    assert all(0 <= on < 1 << n for _, on, n in _index_questions(p, q))


@given(programs, programs)
@settings(max_examples=300, deadline=None)
def test_index_questions_set_only_switched_off_positions(p, q):
    _assert_questions_set_only_switched_off_positions(p, q)


@given(dense_programs, dense_programs)
@settings(max_examples=300, deadline=None)
def test_index_questions_set_only_switched_off_positions_under_dense_negation(p, q):
    _assert_questions_set_only_switched_off_positions(p, q)


def test_index_questions_are_spied_on():
    # the spy sees what the two properties above check: on this pair, whose
    # four rules are all candidates, the search asks consistent_with and the
    # h and eh reader closure_with
    asked = _index_questions(prog("s -> m. m -> t. x -> s. t -> u."), prog("s. -t."))
    assert {name for name, _, _ in asked} == {"consistent_with", "closure_with"}
    assert {n for _, _, n in asked} == {4}
    assert all(0 <= on < 1 << 4 for _, on, _ in asked)


@given(st.lists(st.integers(0, (1 << 8) - 1), max_size=8))
@settings(max_examples=300, deadline=None)
def test_berge_steps_give_the_minimal_transversals(edges):
    # folding the edges in, from the one minimal transversal of no edges,
    # with nothing refuted, must keep exactly the minimal transversals
    transversals = [0]
    for edge in edges:
        transversals = _add_edge(transversals, edge, [])
    hitting = [t for t in range(1 << 8) if all(t & e for e in edges)]
    minimal = [t for t in hitting if not any(h != t and h & t == h for h in hitting)]
    assert sorted(transversals) == minimal


def _conflict_oracle(live, conflicts, asked=None):
    # tolerable iff the set holds no listed conflict set, both bitmasks;
    # every question must be a subset of live, and is recorded when asked
    # is given
    def tolerable(s):
        assert type(s) is int and s & ~live == 0
        if asked is not None:
            asked.append(s)
        return not any(c & ~s == 0 for c in conflicts)
    return tolerable


@pytest.mark.parametrize("positions", [list(range(16)), [i for i in range(24) if i % 3 != 2]],
                         ids=["contiguous", "gaps"])
def test_dualize_on_disjoint_conflicting_pairs(positions):
    # k = 8 disjoint pairs, each of two neighbouring positions: the pinned
    # question count of the independent-conflicts program, with no program.
    # Positions left out, as inert candidates are, change no question
    pairs = [1 << positions[2 * j] | 1 << positions[2 * j + 1] for j in range(8)]
    live, asked = sum(1 << i for i in positions), []
    found, refuted = dualize(_conflict_oracle(live, pairs, asked), live)
    assert len(found) == len(set(found)) == 2 ** 8
    assert all(bin(s).count("1") == 8 and all(s & pair != pair for pair in pairs) for s in found)
    assert sorted(refuted) == sorted(pairs)
    assert len(asked) == 3336


def test_dualize_with_nothing_tolerable():
    # the empty set is the one minimal intolerable set, and nothing is found
    assert dualize(lambda s: False, 0b101) == ([], [0])


@pytest.mark.pinned
@pytest.mark.parametrize("seed, swapped, candidates, extensions, conflicts", [
    (1, True, 123, 1, 13),
    (2, False, 122, 2, 11),
    (2, True, 95, 1, 4),
    (3, False, 105, 1, 2),
    (1, False, 94, 166, 593),
], ids=["seed1-P2P1", "seed2-P1P2", "seed2-P2P1", "seed3-P1P2", "seed1-P1P2"])
def test_dualize_certifies_its_answer_on_rank_large_pairs(monkeypatch, seed, swapped,
                                                          candidates, extensions, conflicts):
    # where brute force cannot run, the kernel's answer on a 128-rule pair
    # certifies itself: every refuted set is a minimal conflict, intolerable
    # while each set one bit smaller is tolerable; the hull is the live bits
    # in no conflict; and the conflicts alone, as an oracle, drive the kernel
    # to the same answer.  The counts are pinned, under either hash seed
    p, q = rank_large_pair(128, seed)[::-1 if swapped else 1]
    monkeypatch.setenv("FCMERGE_MAX_ENUM", "1000")
    calls = []

    def spy(tolerable, live):
        found, refuted = dualize(tolerable, live)
        calls.append((tolerable, live, found, refuted))
        return found, refuted

    monkeypatch.setattr("fcmerge.revision.dualize", spy)
    assert len(maximal_extensions(p, q)) == extensions
    assert len(p.rules - _rank_level(p, q).rules) == candidates
    (tolerable, live, found, refuted), = calls
    assert len(found) == extensions and len(refuted) == conflicts
    for m in refuted:
        assert not tolerable(m)
        assert all(tolerable(m & ~(1 << i)) for i in range(m.bit_length()) if m >> i & 1)
    assert reduce(and_, found) == live & ~reduce(or_, refuted, 0)
    replayed = dualize(lambda s: all(m & ~s for m in refuted), live)
    assert (set(replayed[0]), set(replayed[1])) == (set(found), set(refuted))


# size, seed, swapped, then candidates / live / extensions and the digest of
# the extensions, then questions / transversals / peak
_SEARCH_WORK = [
    (128, 1, False, 94, 68, 166, "bf93b05547dba267", 11183, 13429, 243),
    (128, 1, True, 123, 18, 1, "10cb0d46e1fdaa26", 32, 13, 13),
    (128, 2, False, 122, 29, 2, "a3a6a56e3556ac98", 70, 16, 9),
    (128, 2, True, 95, 15, 1, "e15fc49b14782521", 20, 4, 4),
    (128, 3, False, 105, 8, 1, "e67332aba24d118a", 11, 2, 2),
    (128, 3, True, 99, 46, 204, "dd9b3e93dd4476df", 9468, 193870, 1539),
    (256, 1, False, 252, 56, 24, "2838c44ef632d3f3", 1322, 400, 23),
    (256, 1, True, 251, 78, 392, "e0dc58030e85ed05", 29207, 15743, 148),
    (256, 2, False, 253, 56, 96, "3e854843185087f1", 5157, 2353, 47),
    (256, 3, False, 253, 72, 61, "b5f43ef677bb9e71", 4427, 6474, 186),
    (256, 3, True, 251, 51, 16, "7270cccf261e25c8", 838, 342, 37),
]


@pytest.mark.pinned
@pytest.mark.parametrize("size, seed, swapped, candidates, live, extensions, digest, "
                         "questions, transversals, peak", _SEARCH_WORK,
                         ids=[f"{r[0]}-seed{r[1]}-{'P2P1' if r[2] else 'P1P2'}"
                              for r in _SEARCH_WORK])
def test_extension_search_work_on_rank_large_pairs(monkeypatch, size, seed, swapped, candidates,
                                                   live, extensions, digest, questions,
                                                   transversals, peak):
    # pinned work, which may only fall: the questions asked of the index,
    # the transversals the Berge steps return and the longest list of them,
    # on every 128- and 256-rule pair whose search finishes (256 seed 2
    # P2P1 gave no answer in 60 s).  The extensions are pinned exactly, as
    # the digest of their sorted candidate texts.  The 128-rule questions
    # add up to 20,784
    p, q = rank_large_pair(size, seed)[::-1 if swapped else 1]
    monkeypatch.setenv("FCMERGE_MAX_ENUM", "1000")
    counts = Counter()

    def spy(tolerable, on):
        def asked(s):
            counts["questions"] += 1
            return tolerable(s)
        counts["live"] = on.bit_count()
        return dualize(asked, on)

    def add_edge(transversals, edge, refuted):
        grown = _add_edge(transversals, edge, refuted)
        counts["transversals"] += len(grown)
        counts["peak"] = max(counts["peak"], len(grown))
        return grown

    monkeypatch.setattr("fcmerge.revision.dualize", spy)
    monkeypatch.setattr("fcmerge.revision._add_edge", add_edge)
    clear_memos()
    _, rules, _, found = search_extensions(p, q)
    texts = sorted("\n".join(sorted(str(r) for i, r in enumerate(rules) if s >> i & 1))
                   for s in found)
    assert (len(rules), counts["live"], len(found)) == (candidates, live, extensions)
    assert hashlib.sha256("\n\n".join(texts).encode()).hexdigest()[:16] == digest
    assert (counts["questions"], counts["transversals"], counts["peak"]) == (
        questions, transversals, peak)


@st.composite
def conflict_families(draw):
    # up to 12 positions out of 16, so with gaps, and up to 8 nonempty
    # conflict sets over them, each a bitmask
    positions = sorted(draw(st.sets(st.integers(0, 15), max_size=12)))
    if not positions:
        return positions, []
    conflict = st.sets(st.sampled_from(positions), min_size=1, max_size=4)
    return positions, draw(st.lists(conflict.map(lambda c: sum(1 << i for i in c)), max_size=8))


@given(conflict_families())
@settings(max_examples=300, deadline=None)
def test_dualize_finds_the_maximal_independent_sets_and_the_minimal_conflicts(family):
    # against brute force over every subset of the positions: found is the
    # maximal sets holding no conflict, and refuted is the conflicts that
    # hold no other one, the minimal intolerable sets
    positions, conflicts = family
    live = sum(1 << i for i in positions)
    found, refuted = dualize(_conflict_oracle(live, conflicts), live)
    subsets = [sum(1 << i for j, i in enumerate(positions) if m >> j & 1)
               for m in range(1 << len(positions))]
    independent = {s for s in subsets if not any(c & ~s == 0 for c in conflicts)}
    maximal = [s for s in independent
               if not any(s | 1 << i in independent for i in positions if not s >> i & 1)]
    assert sorted(found) == sorted(maximal)
    distinct = set(conflicts)
    assert sorted(refuted) == sorted(c for c in distinct
                                     if not any(d != c and d & c == d for d in distinct))
