"""Hypothesis strategies for random literals, rules, and programs."""

from hypothesis import strategies as st

from fcmerge import Literal, Program, Rule

atoms = st.sampled_from("abcdef")
literals = st.builds(Literal, atoms, st.booleans())
bodies = st.frozensets(literals, max_size=3)
rules = st.builds(Rule, bodies, literals)
programs = st.builds(Program, st.frozensets(rules, max_size=8))

# three atoms, two negative literals in three: dense conflicts
dense_literals = st.builds(Literal, st.sampled_from("abc"), st.sampled_from((False, True, False)))
dense_rules = st.builds(Rule, st.frozensets(dense_literals, max_size=2), dense_literals)
dense_programs = st.builds(Program, st.frozensets(dense_rules, max_size=10))
