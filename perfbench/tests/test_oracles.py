from fractions import Fraction as Fr

import oracles


def F(rows):
    return [[Fr(x) for x in row] for row in rows]


def test_sl2_irrep_hand_worked():
    # V(2) on v0, f v0, f^2 v0: e v_i = i(n-i+1) v_{i-1}
    h = F([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    e = F([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
    f = F([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    weights = [(2,), (0,), (-2,)]
    assert oracles.sl2_irrep_problems(2, weights, h, e, f) == []
    assert oracles.sl2_irrep_problems(2, weights, h, oracles.mat_scale(e, 2), f)
    assert oracles.sl2_irrep_problems(2, [(2,), (1,), (-2,)], h, e, f)
    assert oracles.sl2_irrep_problems(3, weights, h, e, f)


def test_clebsch_gordan_hand_worked():
    # V(1)(x)V(1) on x(x)x, x(x)y, y(x)x, y(x)y
    inj2 = F([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
    proj2 = F([[1, 0, 0, 0], [0, Fr(1, 2), Fr(1, 2), 0], [0, 0, 0, 1]])
    inj0 = F([[0], [1], [-1], [0]])
    proj0 = F([[0, Fr(1, 2), Fr(-1, 2), 0]])
    good = [((2,), inj2, proj2), ((0,), inj0, proj0)]
    assert oracles.clebsch_gordan_problems(1, 1, good) == []
    assert oracles.clebsch_gordan_problems(1, 1, good[:1])
    bad = [((2,), inj2, proj2), ((0,), inj0, oracles.mat_scale(proj0, 2))]
    assert oracles.clebsch_gordan_problems(1, 1, bad)


def test_q_integer_expansion():
    assert oracles.q_integer_expansion(1, 5) == [1, 0, 0, 0, 0]
    # e^{-h/2} + e^{h/2} = 2 + h^2/4 + h^4/192
    assert oracles.q_integer_expansion(2, 5) == [2, 0, Fr(1, 4), 0, Fr(1, 192)]
    # e^{-h} + 1 + e^{h} = 3 + h^2 + h^4/12
    assert oracles.q_integer_expansion(3, 5) == [3, 0, 1, 0, Fr(1, 12)]


def test_borel_window_rank():
    assert oracles.borel_window_rank(3, 4) == 45
    assert oracles.borel_window_rank(1, 0) == 1


def test_antisymmetry():
    assert oracles.antisymmetry_problems({(0, 1): Fr(1), (1, 0): Fr(-1)}) == []
    assert oracles.antisymmetry_problems({(0, 1): Fr(1)})
    assert oracles.antisymmetry_problems({(0, 1): Fr(1), (1, 0): Fr(1)})
    js = {"arity": 2, "terms": [[[0, 3], "1/4"], [[3, 0], "-1/4"], [[1, 1], "0"]]}
    assert oracles.antisymmetry_problems(oracles.lie_terms(js)) == []


def test_bracket_group_hand_worked():
    b_fg = {"m": 1, "blocks": {"2": [[0, 1, "1/2"]]}}
    b_gf = {"m": 1, "blocks": {"2": [[0, 1, "-1/2"]]}}
    q_fg = {"m": 1, "order": 3, "blocks": {"2": [[0, 1, ["3", "1/2", "7"]]]}}
    q_gf = {"m": 1, "order": 3, "blocks": {"2": [[0, 1, ["3", "0", "1"]]]}}
    assert oracles.bracket_group_problems(b_fg, b_gf, q_fg, q_gf) == []
    assert oracles.bracket_group_problems(b_fg, b_fg, q_fg, q_gf) == [
        "bracket not antisymmetric"]
    q_gf_bad = {"m": 1, "order": 3, "blocks": {"2": [[0, 1, ["2", "0", "1"]]]}}
    assert "qmultiply not commutative mod hbar" in \
        oracles.bracket_group_problems(b_fg, b_gf, q_fg, q_gf_bad)
    q_fg_bad = {"m": 1, "order": 3, "blocks": {"2": [[0, 1, ["3", "1", "7"]]]}}
    assert oracles.bracket_group_problems(b_fg, b_gf, q_fg_bad, q_gf) == [
        "hbar^1 of the commutator differs from the bracket"]


def test_twist():
    one = {"legs": 2, "order": 3,
           "terms": [[[[0, 0, 0], [0, 0, 0]], ["1", "0", "0"]]]}
    assert oracles.twist_problems(one, 1, 3) == []
    assert oracles.twist_problems(one, 2, 3)
    more = {"legs": 2, "order": 3,
            "terms": one["terms"] + [[[[1, 0, 0], [0, 0, 1]], ["0", "1", "0"]]]}
    assert oracles.twist_problems(more, 1, 3)
    shifted = {"legs": 2, "order": 3,
               "terms": [[[[0, 0, 0], [0, 0, 0]], ["2", "0", "0"]]]}
    assert oracles.twist_problems(shifted, 1, 3)


def test_coiso_consistency():
    ok = {"EH": [("true", "true"), ("inconclusive", "true")]}
    assert oracles.coiso_consistency_problems(ok) == []
    bad = {"FH": [("true", "false"), ("true", "true")]}
    assert oracles.coiso_consistency_problems(bad)
