"""Game trees: notation, exact scores, operators, outcomes, impartiality."""

import copy
import gc
import hashlib
import itertools
import math
import pickle
import random
import sys
import threading
import time
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unittest.mock import patch

from scoreplay import games as games_module
from scoreplay.cli import main
from scoreplay.games import (
    _INTERNED,
    FinalScores,
    Game,
    NotationError,
    Outcome,
    RenderSizeError,
    _from_post_order,
    _options,
    _post_order,
    add,
    as_score,
    final_scores,
    format_score,
    generate_impartial,
    identity_game,
    is_impartial,
    negate,
    outcome,
    parse_game,
    parse_score,
    reflect,
    render_game,
    render_tree,
    translate,
)
from scoreplay.octal import GrundySolver, Position, parse_rules_document, resolve_rules_ref
from support import INT_DIGIT_LIMIT, games, naive_final_scores, ref_to_game, scores


# ---------------------------------------------------------------------------
# Scores


def test_as_score_accepts_int_str_fraction():
    assert as_score(3) == Fraction(3)
    assert as_score("-7/2") == Fraction(-7, 2)
    assert as_score(Fraction(1, 4)) == Fraction(1, 4)


def test_as_score_rejects_floats_and_bools():
    """Inexact and boolean inputs are refused rather than coerced."""
    with pytest.raises(TypeError):
        as_score(0.5)
    with pytest.raises(TypeError):
        as_score(True)


@pytest.mark.parametrize(
    "text, value",
    [
        ("4", Fraction(4)),
        ("-3", Fraction(-3)),
        ("+2", Fraction(2)),
        ("7/2", Fraction(7, 2)),
        ("-1/4", Fraction(-1, 4)),
        ("0.5", Fraction(1, 2)),
        ("-2.25", Fraction(-9, 4)),
    ],
)
def test_parse_score_exact(text, value):
    assert parse_score(text) == value


def test_parse_score_rejects_junk():
    for bad in ["", "x", "1/0", "2.5.1", "1 2"]:
        with pytest.raises(NotationError):
            parse_score(bad)


@pytest.mark.parametrize(
    "text, value",
    [
        ("-0", Fraction(0)),
        ("+7", Fraction(7)),
        ("007", Fraction(7)),
        ("2.25", Fraction(9, 4)),
        ("-7/3", Fraction(-7, 3)),
        ("4/6", Fraction(2, 3)),
    ],
)
def test_score_literals_parse_to_the_game_of_their_exact_score(text, value):
    """Leaves and inner nodes read a literal's score as ints in lowest
    terms, so ``4/6`` is the very node ``Game(Fraction(2, 3))``."""
    assert parse_score(text) == value and type(parse_score(text)) is Fraction
    leaf = parse_game(text)
    assert leaf is Game(value)
    assert type(leaf.score) is Fraction and leaf.score == value
    node = parse_game(f"{{{text}|{text}|{text}}}")
    assert node is Game(value, [leaf], [leaf])
    assert type(node.score) is Fraction and node.score == value


def test_format_score_integers_bare_fractions_slashed():
    assert format_score(Fraction(4)) == "4"
    assert format_score(Fraction(-7, 2)) == "-7/2"
    assert parse_score(format_score(Fraction(9, 4))) == Fraction(9, 4)


# ---------------------------------------------------------------------------
# Notation round-trips


@pytest.mark.parametrize(
    "text",
    [
        "5",
        "-3/2",
        "{4|3|2}",
        "{|0|}",
        "{1|0|-1}",
        "{2,{11|4|-3}|3|4,{9|2|-5}}",
        "{{0|0|0}|0|{0|0|0}}",
    ],
)
def test_parse_render_round_trip(text):
    game = parse_game(text)
    assert parse_game(render_game(game)) is game


def test_numbers_render_bare():
    assert render_game(parse_game("5")) == "5"
    assert render_game(Game(Fraction(-7, 2))) == "-7/2"


def test_option_order_is_canonical():
    """Listing options in either order parses to the same game."""
    a = parse_game("{2,1|0|}")
    b = parse_game("{1,2|0|}")
    assert a is b
    assert hash(a) == hash(b)
    assert render_game(a) == render_game(b)


def test_duplicate_options_collapse():
    """Options form a set, so repeating one changes nothing."""
    assert parse_game("{1,1|0|}") is parse_game("{1|0|}")
    one = Game(1)
    assert Game(0, [one, Game(1), one]).left == (one,)
    total = parse_game("{4|3|2}") + parse_game("{1|0|-1}")
    assert render_game(total) == "{{5|4|3}|3|{3|2|1}}"


def test_parse_tolerates_whitespace():
    assert parse_game(" { 4 | 3 | 2 } ") == parse_game("{4|3|2}")


PARSE_ERRORS = {
    "": ("expected a score, found 'end of input'", 0),
    "{4|3}": ("expected '|', found '}'", 4),
    "{4|3|2": ("expected '}', found 'end of input'", 6),
    "4|3|2}": ("unexpected trailing input", 1),
    "{4||3|2}": ("expected a score, found '|'", 3),
    "{4|3|2}x": ("unexpected trailing input", 7),
    "{a|0|}": ("expected a score, found 'a'", 1),
    "{4,|0|}": ("expected a score, found '|'", 3),
    " { 4 | 3 } ": ("expected '|', found '}'", 9),
    "{1 2|0|}": ("expected '|', found '2'", 3),
    "{1|0|,}": ("expected a score, found ','", 5),
    "{4|3|2}}": ("unexpected trailing input", 7),
    "{1|2/0|}": ("score denominator must be positive", 3),
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS))
def test_parse_errors_carry_position(bad):
    message, position = PARSE_ERRORS[bad]
    with pytest.raises(NotationError) as info:
        parse_game(bad)
    assert str(info.value) == f"{message} (at character {position})"
    assert info.value.position == position


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="int() converts any number of digits")
def test_over_long_score_literal_is_a_notation_error():
    digits = "1" * (INT_DIGIT_LIMIT + 1)
    with pytest.raises(NotationError) as info:
        parse_game("{" + digits + "|0|}")
    assert str(info.value) == "score literal has too many digits (at character 1)"
    assert info.value.position == 1
    for text in [digits, f"1/{digits}", f" -0.{digits}"]:
        with pytest.raises(NotationError, match=r"^score literal has too many digits \(at character 0\)$"):
            parse_score(text)
    for text, position in [("{0|" + digits + "|}", 3), (f"{{0,-{digits}|0|}}", 3), (f"{{|0|1/{digits}}}", 4)]:
        with pytest.raises(NotationError) as info:
            parse_game(text)
        assert str(info.value) == f"score literal has too many digits (at character {position})"
        assert info.value.position == position


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="str() converts any number of digits")
def test_a_score_too_long_for_str_is_a_render_size_error():
    huge = 10**INT_DIGIT_LIMIT  # one digit more than str() converts
    limit = f"score has more than {INT_DIGIT_LIMIT} digits"
    for game in [Game(huge), Game(Fraction(1, huge)), Game(0, [Game(-huge)])]:
        with pytest.raises(RenderSizeError, match=limit):
            render_game(game)
        with pytest.raises(RenderSizeError, match=limit):
            render_tree(game)
    bits = huge.bit_length()
    assert repr(Game(huge)) == (
        f"<Game score=<{bits}-bit int> left=0 right=0: {limit}, the limit for int to str conversion>"
    )
    assert repr(Game(Fraction(-huge, 3))).startswith(f"<Game score=-<{bits}-bit int>/3 left=0 right=0: {limit}")
    assert repr(Game(1, [Game(huge)])).startswith(f"<Game score=1 left=1 right=0: {limit}")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="{}|,0123456789+-/. \t\nx", max_size=30))
def test_parse_game_returns_a_game_or_raises_notation_error(text):
    """Any text parses to a game that round-trips, or fails with a position."""
    try:
        g = parse_game(text)
    except NotationError as error:
        assert error.position is not None
    else:
        assert parse_game(render_game(g)) is g


def test_number_is_number():
    assert Game(3).is_number
    assert not parse_game("{4|3|2}").is_number


# ---------------------------------------------------------------------------
# Final scores and outcomes


def test_final_scores_simple():
    assert final_scores(parse_game("{4|3|2}")) == FinalScores(Fraction(4), Fraction(2))


def test_final_scores_two_level_tree():
    game = parse_game("{2,{11|4|-3}|3|4,{9|2|-5}}")
    assert final_scores(game) == FinalScores(Fraction(2), Fraction(4))


def test_final_scores_of_number_is_its_score():
    assert final_scores(Game(Fraction(-7, 2))) == FinalScores(Fraction(-7, 2), Fraction(-7, 2))


def test_final_scores_are_the_same_on_every_call_and_on_a_rebuilt_game():
    text = "{2,{11|40|-3}|3|4,{9|40|-5}}"
    game = parse_game(text)
    first = final_scores(game)
    assert final_scores(game) == first == FinalScores(Fraction(2), Fraction(4))
    del game
    gc.collect()  # the nodes die, so the next parse interns new ones
    assert final_scores(parse_game(text)) == first


@pytest.mark.parametrize(
    "text, expected",
    [
        ("{4|3|2}", (4, 2)),
        ("{1/2|3/2|-1/3}", (Fraction(1, 2), Fraction(-1, 3))),
        ("{1,3/2,2|0|-1/2,-1}", (2, -1)),
        ("{1,3/2|0|-1/2,-1}", (Fraction(3, 2), -1)),
        ("-7/2", (Fraction(-7, 2), Fraction(-7, 2))),
    ],
    ids=["integral", "fractional", "mixed-integral-max", "mixed-fractional-max", "number"],
)
def test_final_scores_are_fractions_whatever_the_option_scores(text, expected):
    game = parse_game(text)
    pair = final_scores(game)
    assert pair == expected
    assert (type(pair.sl), type(pair.sr)) == (Fraction, Fraction)
    # a node stores a final score as an int when integral, else as a
    # Fraction, which comes back as it is
    for got, stored in zip(pair, (game._sl, game._sr)):
        assert got is stored if type(stored) is Fraction else type(stored) is int


@pytest.mark.parametrize(
    "text, expected",
    [
        ("{1|5|9}", Outcome.L),
        ("{-9|-5|-1}", Outcome.R),
        ("{1|0|-1}", Outcome.N),
        ("{-1|0|1}", Outcome.P),
        ("{|0|}", Outcome.TIE),
    ],
)
def test_outcome_five_classes(text, expected):
    assert outcome(parse_game(text)) is expected


def test_outcome_of_positive_and_negative_numbers():
    assert outcome(Game(3)) is Outcome.L
    assert outcome(Game(-3)) is Outcome.R
    assert outcome(Game(0)) is Outcome.TIE


# ---------------------------------------------------------------------------
# Operators


def test_sum_of_numbers_adds_scores():
    assert add(Game(2), Game(3)) == Game(5)
    assert parse_game("2") + parse_game("3") == Game(5)


def test_sum_with_number_translates_options():
    assert parse_game("{4|3|2}") + Game(1) == parse_game("{5|4|3}")


def test_negate_frozen_example():
    game = parse_game("{2,{11|4|-3}|3|4,{9|2|-5}}")
    assert negate(game) == parse_game("{-4,{5|-2|-9}|-3|-2,{3|-4|-11}}")
    assert -game == negate(game)


def test_translate_frozen_example():
    assert translate(parse_game("{11|4|-3}"), Fraction(-4)) == parse_game("{7|0|-7}")


def test_subtraction_operator():
    g, h = parse_game("{4|3|2}"), parse_game("{1|0|-1}")
    assert g - h == add(g, negate(h))


@pytest.mark.parametrize("combine", [lambda g: g + 1, lambda g: g - 1], ids=["add", "subtract"])
def test_a_game_does_not_combine_with_a_plain_number(combine):
    with pytest.raises(TypeError):
        combine(Game(0))


def test_options_must_be_games():
    with pytest.raises(TypeError, match="^game options must be Game instances, got int$"):
        Game(0, [1])


def test_long_rule_keeps_playing_inside_sum():
    """A player out of moves in one summand still moves in the other."""
    g = parse_game("{1|0|}")  # Right has no move here
    h = parse_game("{|0|-5}")  # ...but does here
    assert final_scores(g + h) == FinalScores(Fraction(1) + naive_final_scores(h)[1],
                                              final_scores(h).sr + 1)


# ---------------------------------------------------------------------------
# Impartiality, identity, generator


def test_is_impartial_on_exhibits():
    for text in ["{1|5|9}", "{-9|-5|-1}", "{1|0|-1}", "{-1|0|1}", "{|0|}", "{4|3|2}"]:
        assert is_impartial(parse_game(text))
    assert not is_impartial(parse_game("{1|0|}"))
    assert not is_impartial(parse_game("{2|0|-1}"))


def test_identity_game_shape_and_neutrality():
    i = identity_game()
    assert render_game(i) == "{{0|0|0}|0|{0|0|0}}"
    assert final_scores(i) == FinalScores(Fraction(0), Fraction(0))
    assert is_impartial(i)
    assert final_scores(Game(5) + i) == FinalScores(Fraction(5), Fraction(5))


def test_generator_is_deterministic_and_impartial():
    a = generate_impartial(max_depth=3, max_branch=3, seed=7)
    b = generate_impartial(max_depth=3, max_branch=3, seed=7)
    assert a == b
    assert a != generate_impartial(max_depth=3, max_branch=3, seed=8)
    assert is_impartial(a)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_depth": -1, "max_branch": 1}, "max_depth and max_branch must be nonnegative"),
        ({"max_depth": 1, "max_branch": 1, "score_bound": -1}, "score_bound must be nonnegative"),
    ],
)
def test_generator_refuses_negative_arguments(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_impartial(**kwargs)


def test_generator_impartiality_is_hereditary():
    """Every subgame of a generated game is impartial, not just the root."""
    seen = []
    stack = [generate_impartial(max_depth=4, max_branch=3, seed=11)]
    while stack:
        game = stack.pop()
        seen.append(game)
        assert is_impartial(game)
        stack.extend(game.left)
        stack.extend(game.right)
    assert len(seen) > 1


def test_generator_output_is_pinned():
    """The mirror construction reproduces the same trees, byte for byte."""
    digest = hashlib.sha256()
    for seed in range(500):
        game = generate_impartial(max_depth=4, max_branch=3, seed=seed)
        digest.update(render_game(game).encode() + b"\n")
    assert digest.hexdigest() == "04780effd77649c94dc9f05c7c20ee96a384e41d0abbe4d78bf3fad5d64256bc"


def test_render_tree_two_level_layout():
    lines = render_tree(parse_game("{2,{11|4|-3}|3|4,{9|2|-5}}")).splitlines()
    assert len(lines) == 9
    assert lines[0] == "3"
    assert sum(line.strip().startswith("L ") for line in lines) == 4
    assert sum(line.strip().startswith("R ") for line in lines) == 4


def test_render_tree_lists_each_node_after_its_parent_left_side_first():
    game = parse_game("{{1,{|2|3}|0|},5|1|{-1|7|}}")
    assert render_tree(game) == "1\n  L 0\n    L 1\n    L 2\n      R 3\n  L 5\n  R 7\n    L -1"


def chain(depth: int, leaf=0) -> Game:
    """``Game(leaf)`` wrapped ``depth`` times as a Left option."""
    game = Game(leaf)
    for _ in range(depth):
        game = Game(0, [game])
    return game


@settings(max_examples=60, deadline=None)
@given(games)
def test_render_tree_length_is_counted_before_any_text_is_built(g):
    text = render_tree(g)
    with patch.object(games_module, "MAX_TREE_CHARS", len(text)):
        assert render_tree(g) == text
    with patch.object(games_module, "MAX_TREE_CHARS", len(text) - 1):
        with pytest.raises(RenderSizeError, match=f"game tree would exceed {len(text) - 1} characters"):
            render_tree(g)


def test_render_tree_refuses_a_shared_subtree_written_out_per_path():
    """Summed with the identity game, a 100-deep chain has a few nodes per
    level, but its tree writes each one out once per path: 113,215,745
    characters, past the bound.  The sizes are counted without any text."""
    game = add(chain(100), identity_game())
    started = time.perf_counter()
    with pytest.raises(RenderSizeError, match=f"game tree would exceed {games_module.MAX_TREE_CHARS} characters"):
        render_tree(game)
    assert time.perf_counter() - started < 2


def test_repr_falls_back_to_a_summary_past_the_notation_bound():
    game = add(chain(3000), identity_game())
    assert repr(game) == (
        f"<Game score=0 left=2 right=1: notation over {games_module.MAX_RENDER_CHARS} characters>"
    )
    assert game._key is None  # counted from the option sets, not ordered
    small = parse_game("{1,2|1/2|-3}")
    with patch.object(games_module, "MAX_RENDER_CHARS", len(render_game(small)) - 1):
        assert repr(small) == "<Game score=1/2 left=2 right=1: notation over 11 characters>"
    assert repr(small) == "Game('{1,2|1/2|-3}')"


# ---------------------------------------------------------------------------
# Algebraic properties


@settings(max_examples=60, deadline=None)
@given(games, games)
def test_sum_commutes(g, h):
    """G + H and H + G are the same game."""
    assert g + h == h + g


@settings(max_examples=25, deadline=None)
@given(games, games, games)
def test_sum_associates(g, h, k):
    """(G + H) + K and G + (H + K) are the same game."""
    assert (g + h) + k == g + (h + k)


@settings(max_examples=60, deadline=None)
@given(games)
def test_negate_is_an_involution(g):
    assert negate(negate(g)) is g


@settings(max_examples=60, deadline=None)
@given(games, scores)
def test_translate_back_is_the_same_game(g, t):
    assert translate(translate(g, t), -t) is g


@settings(max_examples=60, deadline=None)
@given(games, games, scores, st.randoms(use_true_random=False))
def test_final_scores_match_naive_minimax(g, h, c, rng):
    """The scores stored at construction agree with direct recursion, for
    nodes built directly with options in any order, by the parser, by the
    reflection walk and by sums."""
    options = [g, h, Game(c)]
    built = [
        g,
        Game(c, rng.sample(options, 3), rng.sample(options, 2)),
        parse_game(render_game(h)),
        reflect(g, c),
        g + h,
    ]
    for game in built:
        sl, sr = naive_final_scores(game)
        assert final_scores(game) == FinalScores(sl, sr)
        # a node with those two scores one move away has the same outcome
        assert outcome(game) is outcome(Game(0, [Game(sl)], [Game(sr)]))


@settings(max_examples=60, deadline=None)
@given(games)
def test_negation_swaps_and_flips_final_scores(g):
    sl, sr = final_scores(g)
    assert final_scores(negate(g)) == FinalScores(-sr, -sl)


@settings(max_examples=60, deadline=None)
@given(games, scores)
def test_translate_shifts_final_scores(g, t):
    sl, sr = final_scores(g)
    assert final_scores(translate(g, t)) == FinalScores(sl + t, sr + t)


@settings(max_examples=40, deadline=None)
@given(games, scores)
def test_adding_a_number_shifts_final_scores(g, t):
    """Summing with a move-free game just shifts both final scores."""
    sl, sr = final_scores(g)
    assert final_scores(g + Game(t)) == FinalScores(sl + t, sr + t)


@settings(max_examples=60, deadline=None)
@given(games)
def test_round_trip_through_notation(g):
    assert parse_game(render_game(g)) is g


@settings(max_examples=60, deadline=None)
@given(games)
def test_render_length_is_counted_before_any_text_is_built(g):
    text = render_game(g)
    with patch.object(games_module, "MAX_RENDER_CHARS", len(text)):
        assert render_game(g) == text
    with patch.object(games_module, "MAX_RENDER_CHARS", len(text) - 1):
        with pytest.raises(RenderSizeError, match=f"exceed {len(text) - 1} characters"):
            render_game(g)


# ---------------------------------------------------------------------------
# Reflection, checked against the first recursive definitions of the algebra


def ref_negate(game: Game, memo: dict | None = None) -> Game:
    memo = {} if memo is None else memo
    if game not in memo:
        left = [ref_negate(o, memo) for o in game.right]
        right = [ref_negate(o, memo) for o in game.left]
        memo[game] = Game(-game.score, left, right)
    return memo[game]


def ref_translate(game: Game, amount, memo: dict | None = None) -> Game:
    memo = {} if memo is None else memo
    if game not in memo:
        left = [ref_translate(o, amount, memo) for o in game.left]
        right = [ref_translate(o, amount, memo) for o in game.right]
        memo[game] = Game(game.score + as_score(amount), left, right)
    return memo[game]


def ref_add(g: Game, h: Game, memo: dict | None = None) -> Game:
    memo = {} if memo is None else memo
    if (g, h) not in memo:
        left = [ref_add(o, h, memo) for o in g.left] + [ref_add(g, o, memo) for o in h.left]
        right = [ref_add(o, h, memo) for o in g.right] + [ref_add(g, o, memo) for o in h.right]
        memo[g, h] = Game(g.score + h.score, left, right)
    return memo[g, h]


def ref_is_impartial(game: Game) -> bool:
    if not game.left and not game.right:
        return True
    if not game.left or not game.right:
        return False
    shift = -game.score
    lefts = {ref_translate(option, shift) for option in game.left}
    mirrored_rights = {ref_negate(ref_translate(option, shift)) for option in game.right}
    return lefts == mirrored_rights


def mirror_is_impartial(game: Game) -> bool:
    """Impartiality as the right options reflected one by one onto the left."""
    about = 2 * game.score
    return set(game.left) == {reflect(option, about) for option in game.right}


@settings(max_examples=80, deadline=None)
@given(games, scores)
def test_reflect_matches_negate_then_translate(g, c):
    assert reflect(g, c) is ref_translate(ref_negate(g), c)
    assert reflect(reflect(g, c), c) is g
    assert negate(g) is reflect(g, 0)


@settings(max_examples=60, deadline=None)
@given(games, scores)
def test_translate_matches_the_reference(g, t):
    assert translate(g, t) is ref_translate(g, t)


@settings(max_examples=60, deadline=None)
@given(games, games)
def test_add_matches_the_reference(g, h):
    assert add(g, h) is ref_add(g, h)


@settings(max_examples=80, deadline=None)
@given(games, scores, st.lists(games, min_size=1, max_size=3), st.integers(min_value=0, max_value=2))
def test_is_impartial_matches_the_reference(g, s, lefts, which):
    assert is_impartial(g) == ref_is_impartial(g) == mirror_is_impartial(g)
    rights = [reflect(o, 2 * s) for o in lefts]
    impartial = Game(s, lefts, rights)
    assert is_impartial(impartial) and ref_is_impartial(impartial) and mirror_is_impartial(impartial)
    which %= len(rights)
    rights[which] = translate(rights[which], 1)
    perturbed = Game(s, lefts, rights)
    assert is_impartial(perturbed) == ref_is_impartial(perturbed) == mirror_is_impartial(perturbed)


def self_reflection_is_impartial(game: Game) -> bool:
    """Impartiality as a whole-game check: the game is its own reflection."""
    return reflect(game, 2 * game.score) is game


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 3),
    games,
    st.integers(0, 2),
    st.sampled_from(["left", "right"]),
)
def test_is_impartial_matches_self_reflection(seed, depth, extra, which, side):
    """Generated impartial games, and the same games with one option
    dropped from or added to one side."""
    game = generate_impartial(max_depth=depth, max_branch=3, seed=seed)
    left, right = list(game.left), list(game.right)
    changed = left if side == "left" else right
    variants = [game, Game(game.score, left + [extra] * (side == "left"), right + [extra] * (side == "right"))]
    if changed:
        del changed[which % len(changed)]
        variants.append(Game(game.score, left, right))
    assert is_impartial(game)
    for variant in variants:
        assert is_impartial(variant) == self_reflection_is_impartial(variant)


def test_is_impartial_matches_the_option_mirror_on_generated_games():
    for seed in range(40):
        game = generate_impartial(max_depth=3, max_branch=3, seed=seed)
        for node in (game, *game.left, *game.right, Game(game.score, game.left, game.right[1:])):
            assert is_impartial(node) == mirror_is_impartial(node)


def test_deep_chain_algebra_and_notation_need_no_recursion():
    depth = 5000
    game = Game(7)
    for _ in range(depth):
        game = Game(0, [game], [Game(0)])
    assert negate(game) is reflect(game, 0)
    assert reflect(reflect(game, 3), 3) is game
    assert translate(translate(game, 2), -2) is game
    assert add(game, Game(1)) is translate(game, 1)
    assert not is_impartial(game)
    assert is_impartial(Game(1, [game], [reflect(game, 2)]))
    lines = render_tree(game).splitlines()
    assert len(lines) == 2 * depth + 1
    assert lines[depth : depth + 2] == ["  " * depth + "L 7", "  " * depth + "R 0"]
    assert lines[-1] == "  R 0"
    del lines
    assert parse_game(render_game(game)) is game
    assert final_scores(game) == FinalScores(Fraction(0), Fraction(0))
    assert outcome(game) is Outcome.TIE
    assert final_scores(reflect(game, 3)) == FinalScores(Fraction(3), Fraction(3))
    assert outcome(reflect(game, 3)) is Outcome.L


# ---------------------------------------------------------------------------
# The post-order walk shared by the game algebra and the heap solver

# "d" is reached from "b" and "c" at depth 2 and from "e" at depth 3
_DAG = {"a": ["b", "c"], "b": ["d"], "c": ["e", "d"], "e": ["d", "f"], "d": [], "f": []}


def _walk(root, done, graph):
    """(yielded nodes, nodes ``children`` was called on) for one walk."""
    calls = []

    def children(node):
        calls.append(node)
        return graph[node]

    order = []
    for node in _post_order(root, done, children):
        assert all(child in done for child in graph[node])
        done[node] = None
        order.append(node)
    return order, calls


def test_post_order_yields_each_node_once_after_its_children():
    order, calls = _walk("a", {}, _DAG)
    assert sorted(order) == sorted(_DAG)
    assert order[-1] == "a"
    assert sorted(calls) == sorted(_DAG)


def test_post_order_neither_yields_nor_expands_nodes_already_done():
    order, calls = _walk("a", {"c": None}, _DAG)
    assert sorted(order) == sorted(calls) == ["a", "b", "d"]
    assert _walk("a", dict.fromkeys(_DAG), _DAG) == ([], [])


def test_post_order_walks_a_long_chain_without_recursion():
    length = 10_000  # ten times the default recursion limit
    chain = {n: [n + 1] for n in range(length)}
    chain[length] = []
    order, calls = _walk(0, {}, chain)
    assert order == list(range(length, -1, -1))
    assert calls == list(range(length + 1))


# ---------------------------------------------------------------------------
# Hash-consing: one object per structurally distinct game


def _reference_order(a: Game, b: Game) -> int:
    """The order on games as first defined: recursive, over scores and option
    lists, each list sorted by this order from the node's stored option set."""
    if a.score != b.score:
        return -1 if a.score < b.score else 1
    for xs, ys in zip(_reference_options(a), _reference_options(b)):
        for x, y in zip(xs, ys):
            c = _reference_order(x, y)
            if c:
                return c
        if len(xs) != len(ys):
            return -1 if len(xs) < len(ys) else 1
    return 0


def _reference_options(game: Game) -> tuple[list[Game], list[Game]]:
    """Both option sets in the storage order, sorted by :func:`_reference_order`."""
    key = cmp_to_key(_reference_order)
    return sorted(game._left, key=key), sorted(game._right, key=key)


def _keyed(game: Game) -> tuple:
    """``game._key``, after ``left`` has worked out the order."""
    game.left
    return game._key


# Scores whose nearest floats overflow, underflow or tie: the order hint in
# ``_key`` must leave their order to the exact scores.
_HUGE = 10**400
_TINY = Fraction(1, 10**400)
_THIRD, _EPS = Fraction(1, 3), Fraction(1, 10**30)
_FLOAT_EDGE_SCORES = [
    _HUGE, _HUGE + 1, -_HUGE, -_HUGE - 1, Fraction(_HUGE, 3), Fraction(_HUGE + 1, 3),
    _TINY, 2 * _TINY, -_TINY, -2 * _TINY, 0,
    2**53, 2**53 + 1, -(2**53), -(2**53) - 1,
    _THIRD - _EPS, _THIRD, _THIRD + _EPS,
]


@settings(max_examples=80, deadline=None)
@given(st.lists(games, max_size=6))
@example([Game(x) for x in _FLOAT_EDGE_SCORES])
@example([Game(0, [Game(x)], [Game(-x)]) for x in _FLOAT_EDGE_SCORES])
@example([Game(x, [Game(_HUGE)]) for x in (_HUGE, _HUGE + 1)] + [Game(_HUGE, [Game(_HUGE + 1)])])
@example([Game(_THIRD, [Game(y)]) for y in (_THIRD - _EPS, _THIRD + _EPS, 2 * _TINY, _TINY)])
def test_sort_key_orders_like_the_reference_order(options):
    """Canonical option order and the ``_key`` tuples agree with the recursive
    definition, which is total: zero only for the same game.  The explicit
    examples put scores that share a float, or have none, side by side,
    at the root and one level down."""
    distinct = list({id(g): g for g in options}.values())
    assert Game(0, options).left == tuple(sorted(distinct, key=cmp_to_key(_reference_order)))
    for a in distinct:
        for b in distinct:
            order = _reference_order(a, b)
            ka, kb = _keyed(a), _keyed(b)
            assert (ka > kb) - (ka < kb) == order == -_reference_order(b, a)
            assert (order == 0) == (a is b)


def test_deep_chains_differing_at_the_leaf_sort_as_siblings():
    low, high = chain(300, 0), chain(300, 1)
    assert low is not high
    assert Game(0, [high, low]).left == (low, high)
    assert _keyed(low) < _keyed(high)
    assert chain(300, 0) is low


def test_siblings_alike_ten_thousand_levels_deep_are_ordered():
    """Ordering two options walks one path down to where they differ, so
    no depth limits it: on the left side, on the right side, and where one
    option tuple is a proper prefix of the other."""
    for low, high in [
        (Game(0), Game(1)),
        (Game(0, [], [Game(1)]), Game(0, [], [Game(2)])),
        (Game(0, [Game(1)]), Game(0, [Game(1), Game(2)])),
        (Game(0, [Game(1)]), Game(0, [Game(1)], [Game(0)])),
    ]:
        for _ in range(10_000):
            low, high = Game(0, [low]), Game(0, [high])
        assert Game(0, [high, low]).left == (low, high)
        assert low < high and high > low
        assert not high < low and not low < low


def test_deep_game_renders_without_recursion():
    depth = 5000
    game = chain(depth, 7)
    assert render_game(game) == "{" * depth + "7" + "|0|}" * depth
    assert final_scores(game) == FinalScores(Fraction(0), Fraction(0))


def test_copy_deepcopy_and_pickle_return_the_interned_game():
    deep = Game(7)
    for _ in range(3000):
        deep = Game(0, [deep], [Game(0)])
    for game in (parse_game("{2,{11|4|-3}|3|4,{9|2|-5}}"), deep):
        assert copy.copy(game) is game
        assert copy.deepcopy(game) is game
        assert pickle.loads(pickle.dumps(game)) is game


def test_interned_games_die_with_their_last_reference():
    gc.collect()
    before = len(_INTERNED)
    game = parse_game("{{1001/7|1002/7|1003/7}|1004/7|1005/7}")
    assert len(_INTERNED) == before + 5
    del game
    gc.collect()
    assert len(_INTERNED) == before


def test_a_late_removal_callback_keeps_a_node_interned_again():
    """A dead node's callback that runs only after its key was interned
    again leaves the live entry in place."""
    text = "{3001/7|3002/7|3003/7}"
    game = parse_game(text)
    key = (3002, 7, game.left, game.right)  # holds the options, not the root
    old = _INTERNED[key]
    callback = old.__callback__  # cleared once it has run
    assert old() is game
    gc.collect()
    before = len(_INTERNED)
    del game
    gc.collect()
    assert old() is None and key not in _INTERNED
    again = parse_game(text)
    callback(old)  # as if the dead node's callback ran only now
    assert _INTERNED[key]() is again
    assert Game(Fraction(3002, 7), again.left, again.right) is again
    assert len(_INTERNED) == before


def test_cli_call_leaves_no_games_behind(capsys):
    gc.collect()
    before = len(_INTERNED)
    game = "{{2001/7|2002/7|2003/7}|2002/7|{2001/7|2002/7|2003/7}}"
    assert main(["sum", "--game", game, "--game", "{{0|0|0}|0|{0|0|0}}", "--eval"]) == 0
    assert capsys.readouterr().out.endswith("sl=2003/7 sr=2001/7 outcome=L impartial=true\n")
    gc.collect()
    assert len(_INTERNED) <= before


def test_threads_building_the_same_games_get_the_same_objects():
    texts = [render_game(generate_impartial(max_depth=3, max_branch=3, seed=9000 + i)) for i in range(200)]
    addends = [render_game(generate_impartial(max_depth=1, max_branch=2, seed=9500 + i)) for i in range(200)]
    # only the texts outlive the lines above, so the threads race to intern
    # each game, and each sum and reflection of one
    barrier = threading.Barrier(4)
    built: list[list[Game]] = [[] for _ in range(4)]

    def build(out: list[Game]) -> None:
        barrier.wait(timeout=30)
        for text, addend in zip(texts, addends):
            game = parse_game(text)
            out += (game, add(game, parse_game(addend)), reflect(game, Fraction(1, 3)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(out) == 3 * len(texts) for out in built)
    for games_a, games_b in zip(built, built[1:]):
        assert all(a is b for a, b in zip(games_a, games_b))
    assert [render_game(g) for g in built[0][::3]] == texts
    # one table entry per live node: every node is its key's entry, and no
    # other entry holds it
    gc.collect()
    nodes = {node for root in built[0] for node in _nodes(root)}
    for node in nodes:
        assert _INTERNED[node.score.numerator, node.score.denominator, node._left, node._right]() is node
    held = [ref() for ref in list(_INTERNED.values())]
    assert sum(node in nodes for node in held) == len(nodes)


# ---------------------------------------------------------------------------
# Sums, reflections, parsing and heap expansions intern from integer score
# parts, and find the very nodes that Fraction arithmetic through the public
# constructor finds


def _assert_same_nodes_as_fraction_arithmetic(g: Game, h: Game, c: Fraction) -> None:
    assert add(g, h) is ref_add(g, h)
    assert reflect(g, c) is ref_translate(ref_negate(g), c)
    assert negate(g) is ref_negate(g)
    assert translate(g, c) is ref_add(g, Game(c))
    assert parse_game(render_game(g)) is g


def _assert_interned_in_lowest_terms() -> None:
    """A key not in lowest terms would intern a second node for an equal game."""
    for (num, den, _, _), ref in list(_INTERNED.items()):
        assert den > 0 and math.gcd(num, den) == 1
        node = ref()
        if node is not None:
            assert type(node.score) is Fraction
            assert (node.score.numerator, node.score.denominator) == (num, den)


@settings(max_examples=80, deadline=None)
@given(games, games, scores)
def test_integer_score_parts_build_the_nodes_fraction_arithmetic_builds(g, h, c):
    _assert_same_nodes_as_fraction_arithmetic(g, h, c)
    _assert_same_nodes_as_fraction_arithmetic(h, g, -c)
    _assert_interned_in_lowest_terms()


@pytest.mark.parametrize(
    "a, b",
    [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(1, 6), Fraction(1, 10)),
        (Fraction(2**64 + 1), Fraction(2**64 - 1, 3)),
        (Fraction(-(2**65)), Fraction(2**64, 5)),
        (Fraction(10**400), Fraction(-(10**400))),
        (Fraction(10**400, 3), Fraction(-(10**400) + 1, 6)),
    ],
    ids=["halves", "thirds", "to-zero", "sixth-tenth", "past-2**64", "negative-past-2**64", "10**400", "10**400-fractional"],
)
def test_scores_that_reduce_or_outgrow_machine_ints_build_the_same_nodes(a, b):
    g = Game(a, [Game(b), Game(a, [Game(b)], [Game(-a)])], [Game(-a), Game(a + b)])
    h = Game(b, [Game(a)], [Game(b), Game(-b)])
    assert add(Game(a), Game(b)) is Game(a + b)
    assert reflect(Game(b), a) is Game(a - b)
    for x, y in [(g, h), (h, g), (g, g), (Game(a), Game(b))]:
        for c in (a, b, a + b):
            _assert_same_nodes_as_fraction_arithmetic(x, y, c)
    _assert_interned_in_lowest_terms()


def test_heap_expansion_with_reducing_awards_builds_the_same_nodes():
    rules = (
        parse_rules_document("name: thirds; digits: 3 3 7; points: 1/3 1/6 -1/2"),
        parse_rules_document("name: band; digits: 1 0 0 6; points: 1 1/2 1 -1"),
    )
    position = Position([("thirds", 6), ("band", 5), ("thirds", 2)])
    assert GrundySolver(rules).to_game(position) is ref_to_game(position, rules)
    _assert_interned_in_lowest_terms()


# ---------------------------------------------------------------------------
# The storage order is worked out on its first read


def _nodes(root: Game) -> list[Game]:
    """Every distinct node under ``root``, ``root`` last, read from the stored sets."""
    done: dict[Game, None] = {}
    for node in _post_order(root, done, _options):
        done[node] = None
    return list(done)


def _reference_render(game: Game) -> str:
    if game.is_number:
        return format_score(game.score)
    left, right = _reference_options(game)
    return "{%s|%s|%s}" % (
        ",".join(map(_reference_render, left)), format_score(game.score), ",".join(map(_reference_render, right))
    )


def _reference_tree(game: Game, depth: int = 0, tag: str = "") -> list[str]:
    lines = ["  " * depth + tag + format_score(game.score)]
    left, right = _reference_options(game)
    for side, options in (("L ", left), ("R ", right)):
        for option in options:
            lines += _reference_tree(option, depth + 1, side)
    return lines


class _ReferencePickle:
    """Pickles as ``Game.__reduce__`` would, from the reference order."""

    def __init__(self, game: Game):
        self.game = game

    def __reduce__(self):
        index: dict[Game, int] = {}
        nodes = []

        def visit(node: Game) -> None:
            if node in index:
                return
            left, right = _reference_options(node)
            for option in reversed(left + right):  # the walk pops the last option first
                visit(option)
            index[node] = len(nodes)
            nodes.append((node.score, [index[o] for o in left], [index[o] for o in right]))

        visit(self.game)
        return (_from_post_order, (nodes,))


# A game as (score, left options, right options).  Few scores, so siblings
# often tie on score and the order walks down to break the tie.
_trees = st.recursive(
    st.sampled_from([0, 1, -1, Fraction(1, 2)]).map(lambda s: (s, [], [])),
    lambda options: st.tuples(
        st.sampled_from([0, 1, Fraction(1, 2)]), st.lists(options, max_size=3), st.lists(options, max_size=3)
    ),
    max_leaves=14,
)
# Each build adds its own offset to every score, so no node of it was alive,
# or ordered, before.  A common offset keeps the order of any two scores.
_FRESH = itertools.count(1)


def _build(tree, offset: Fraction, rng: random.Random) -> Game:
    """``tree`` as a game, with ``offset`` added to every score and each
    option list given in shuffled order."""
    score, left, right = tree
    left = [_build(option, offset, rng) for option in left]
    right = [_build(option, offset, rng) for option in right]
    rng.shuffle(left)
    rng.shuffle(right)
    return Game(score + offset, left, right)


def _first_read(reader: str, game: Game, rng: random.Random) -> None:
    """Read the storage order of a fresh game through ``reader`` and check
    what it returns against the reference."""
    nodes = _nodes(game)
    if reader == "left":
        inner = [node for node in nodes if not node.is_number]
        if inner:
            node = rng.choice(inner)
            assert list(node.left) == _reference_options(node)[0]
    elif reader == "lt":
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert (a < b) == (_reference_order(a, b) < 0)
    elif reader == "render_game":
        assert render_game(game) == _reference_render(game)
    elif reader == "render_tree":
        assert render_tree(game) == "\n".join(_reference_tree(game))
    else:
        assert pickle.dumps(game) == pickle.dumps(_ReferencePickle(game))


@settings(max_examples=40, deadline=None)
@given(_trees, st.randoms(use_true_random=False))
def test_every_first_read_of_the_order_matches_the_reference(tree, rng):
    """Whichever reader first asks a fresh game for its order, the answer,
    and every later one, is the reference order on the option sets."""
    for reader in ("left", "lt", "render_game", "render_tree", "pickle"):
        offset = Fraction(1, 7919 * next(_FRESH))
        game = _build(tree, offset, rng)
        assert _build(tree, offset, rng) is game
        nodes = _nodes(game)
        assert all(node._key is None for node in nodes)
        _first_read(reader, game, rng)
        for node in nodes:  # a node with a key has keyed options
            assert node._key is None or all(o._key is not None for o in _options(node))
        for node in nodes:
            assert (list(node.left), list(node.right)) == _reference_options(node)
            for other in nodes:
                assert (node < other) == (_reference_order(node, other) < 0)
        assert render_game(game) == _reference_render(game)
        assert pickle.loads(pickle.dumps(game)) is game


@settings(max_examples=15, deadline=None)
@given(_trees, st.randoms(use_true_random=False))
def test_threads_rendering_one_fresh_game_get_equal_text(tree, rng):
    game = _build(tree, Fraction(1, 7919 * next(_FRESH)), rng)
    assert game._key is None
    barrier = threading.Barrier(2)
    texts: list[str] = []

    def render() -> None:
        barrier.wait(timeout=30)
        texts.append(render_game(game))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert texts == [_reference_render(game)] * 2


def _ordered_since(keyed: set[Game], root: Game) -> list[Game]:
    """Nodes under ``root`` that have a key and were not in ``keyed``."""
    return [node for node in _nodes(root) if node._key is not None and node not in keyed]


def _keyed_now() -> set[Game]:
    """Every live node that has its key: other tests may have ordered some."""
    live = (ref() for ref in list(_INTERNED.values()))
    return {node for node in live if node is not None and node._key is not None}


def test_building_and_scoring_a_heap_game_orders_nothing():
    rules = resolve_rules_ref("o3333p2")
    keyed = _keyed_now()
    game = GrundySolver([rules]).to_game(Position([("o3333p2", 9)]), max_total=9)
    assert final_scores(game).sl is not None
    assert len(_nodes(game)) > 50
    assert _ordered_since(keyed, game) == []
    render_game(game)
    assert all(node._key is not None for node in _nodes(game))


def test_eval_orders_nothing(capsys):
    text = "{{1001/13|1002/13|1003/13},{1004/13|1002/13|1000/13}|1002/13|{1001/13|1002/13|1003/13}}"
    game = parse_game(text)  # held, so the command's game is this one
    keyed = _keyed_now()
    assert main(["eval", "--game", text]) == 0
    assert capsys.readouterr().out == "sl=1003/13 sr=77 outcome=L impartial=false\n"
    assert _ordered_since(keyed, game) == []
    assert game.left  # the order is still there to read
    assert _ordered_since(keyed, game) != []


def test_oracle_compares_no_games(capsys):
    calls = []
    less = Game.__lt__

    def counted(a, b):
        calls.append(None)
        return less(a, b)

    with patch.object(Game, "__lt__", counted):
        assert main(["oracle", "--rules", "o3333p2", "--max-total", "11"]) == 0
        assert calls == []
        # the counter sees comparisons: a sort whose scores tie reaches it
        render_game(Game(Fraction(1, 7919), [Game(0, [Game(1)]), Game(0, [Game(2)])]))
        assert calls
    assert capsys.readouterr().out.endswith("oracle: pass (rulesets=1, positions=195)\n")
