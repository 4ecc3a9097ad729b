import time

import pytest

from hjinterval.cnf import encode, solve_builtin
from hjinterval.drup import check_proof, parse_proof

# Every sign pattern of two variables: unsatisfiable, refuted by "1 0" then "0".
XOR_SQUARE = ((1, 2), (1, -2), (-1, 2), (-1, -2))


def test_accepts_a_hand_made_refutation():
    assert check_proof(XOR_SQUARE, [(1,), ()]) is None


def test_accepts_a_lemma_already_true_at_the_top_level():
    # Unit 3 makes the lemma "3 4" hold before any assumption.
    assert check_proof(XOR_SQUARE + ((3,),), [(3, 4), (1,), ()]) is None


def test_accepts_a_formula_refuted_by_unit_propagation_alone():
    assert check_proof([(1,), (-1, 2), (-2,)], [()]) is None


def test_rejects_a_lemma_that_does_not_follow():
    reason = check_proof(XOR_SQUARE, [(3,), (1,), ()])
    assert reason is not None and reason.startswith("lemma 1 (3 0)")


def test_rejects_a_truncated_proof():
    inst = encode(4, m=4, sym_break=True)
    proof = solve_builtin(inst).proof
    assert check_proof(inst.clause_tuples(), proof) is None
    assert check_proof(inst.clause_tuples(), proof[:-1]) == "the proof does not end with the empty clause"
    assert check_proof(inst.clause_tuples(), ()) == "the proof does not end with the empty clause"


def test_rejects_a_proof_of_a_satisfiable_formula():
    inst = encode(4)
    out = solve_builtin(inst)
    assert out.status == "sat"
    # The learnt clauses of a sat run are sound, but the empty clause is not.
    reason = check_proof(inst.clause_tuples(), out.proof + ((),))
    assert reason is not None and "does not follow" in reason
    assert check_proof([(1, 2)], [()]) is not None


def test_deadline_stops_the_check():
    inst = encode(4, m=4, sym_break=True)
    proof = solve_builtin(inst).proof
    with pytest.raises(TimeoutError, match=f"with 0 of {len(proof)} lemmas checked"):
        check_proof(inst.clause_tuples(), proof, deadline=time.monotonic() - 1)
    assert check_proof(inst.clause_tuples(), proof, deadline=time.monotonic() + 600) is None


def test_parse_proof_reads_lemmas_and_skips_comments_and_deletions():
    text = "c learnt\n1 -2 0\nd 1 2 0\n\n3 0\n0\n"
    assert parse_proof(text) == [(1, -2), (3,), ()]


@pytest.mark.parametrize("text", ["1 2\n", "1 0 2 0\n", "x 0\n"])
def test_parse_proof_rejects_malformed_lines(text):
    with pytest.raises(ValueError):
        parse_proof(text)
