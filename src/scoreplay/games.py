"""Scoring-play game trees with exact rational arithmetic.

Every node of a game carries a score, a multiset of Left options and a
multiset of Right options.  Play of a single game ends when the player to
move has no option; the score standing at that node is final, and its sign
decides the winner.  Sums follow the long rule: the compound game ends only
when the mover has no option in any component.
"""

from __future__ import annotations

__all__ = [
    "Score", "NotationError", "RenderSizeError", "as_score", "parse_score", "format_score",
    "Game", "GameDepthError", "reflect", "negate", "translate", "add", "FinalScores",
    "final_scores", "Outcome", "outcome", "is_impartial", "identity_game", "generate_impartial",
    "parse_game", "MAX_RENDER_CHARS", "MAX_TREE_CHARS", "render_game", "render_tree",
]

import random
import re
import sys
import threading
import weakref
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

Score = Fraction

_ZERO = Fraction(0)


class NotationError(ValueError):
    """Bad game notation or score literal."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class RenderSizeError(ValueError):
    """A score, or a game's notation or tree, is too long to render."""


def as_score(value: int | str | Fraction) -> Score:
    """Coerce an int, rational string, or Fraction to an exact score.

    Floats are rejected: binary floats misrepresent most decimal inputs and
    every score here must be exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot use a bool as a score")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_score(value)
    raise TypeError(f"cannot use {type(value).__name__} as a score")


_SCORE_TOKEN = r"[+-]?\d+(?:\.\d+|/\d+)?"
# After optional whitespace: a score literal (group 2), or else the one
# character there, which is empty at the end of the text.
_TOKEN_RE = re.compile(rf"\s*(({_SCORE_TOKEN})|.?)", re.S)


def parse_score(text: str) -> Score:
    """Parse ``12``, ``-7/3``, or ``2.25`` (decimals convert exactly)."""
    token = _TOKEN_RE.match(text)
    if token[2] is None or _TOKEN_RE.match(text, token.end())[1]:
        raise NotationError(f"not a rational score literal: {text!r}")
    return _score_from_token(token[2], 0)


def _score_from_token(token: str, position: int) -> Score:
    num, slash, den = token.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(token)
    except ZeroDivisionError:
        raise NotationError("score denominator must be positive", position) from None
    except ValueError:  # a part has more digits than int() converts
        raise NotationError("score literal has too many digits", position) from None


def format_score(value: Score) -> str:
    """Integers bare, other rationals as ``num/den``; never decimal.

    Raises :class:`RenderSizeError` when a part has more digits than
    ``str(int)`` converts (``sys.get_int_max_str_digits()``).
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # the interpreter's digit limit; kept as the cause
        limit = sys.get_int_max_str_digits()
        raise RenderSizeError(f"score has more than {limit} digits, the limit for int to str conversion") from exc


class Game:
    """An immutable scoring-play game in canonical form, hash-consed.

    Option sets are stored deduplicated and sorted by a total order on
    games: score first, then the left options, then the right options, each
    list compared lexicographically with a proper prefix first.  Every
    structurally distinct game exists once per process: building a game
    that is structurally equal to a live one returns that very object,
    however either was built.  So structurally equal games are the same
    object (``is``), and equality is identity.  The intern table holds
    nodes weakly, so a node dies with its last outside reference.  ``g + h``
    is the long-rule disjunctive sum, ``-g`` the mirror image.  Instances
    are safe to share across threads, and threads that build the same game
    get the same object.

    A node's options exist before it does, and no node changes once built.
    So its optimal final scores (see :func:`final_scores`) are fixed when it
    is first interned, one minimax step over its options' scores, and are
    stored on it; no later query walks the tree.
    """

    __slots__ = ("score", "left", "right", "_key", "_sl", "_sr", "__weakref__")

    def __new__(cls, score, left: Iterable[Game] = (), right: Iterable[Game] = ()):
        score = as_score(score)
        left = _canonical_options(left)
        right = _canonical_options(right)
        # Options are interned, so they hash and compare by identity: no
        # lookup recurses into subtrees.  A Fraction is kept in lowest terms,
        # so its two ints name it, and ints hash and compare far faster.
        num, den = score.numerator, score.denominator
        key = (num, den, left, right)
        with _INTERN_LOCK:
            node = _INTERNED.get(key)
            if node is None:
                node = object.__new__(cls)
                node.score, node.left, node.right = score, left, right
                # The key tuples carry the order on games: score, then the
                # left and then the right option lists lexicographically, a
                # proper prefix first.  An integral score sorts as an int,
                # which compares faster and exactly with Fractions.
                first = num if den == 1 else score
                node._key = (first, tuple(o._key for o in left), tuple(o._key for o in right))
                # The options were built first, so their scores are known:
                # one step of the minimax, in the same int-or-Fraction form.
                node._sl = max([o._sr for o in left]) if left else first
                node._sr = min([o._sl for o in right]) if right else first
                _INTERNED[key] = node
        return node

    def __init__(self, score, left: Iterable[Game] = (), right: Iterable[Game] = ()):
        """Nothing left to do: ``__new__`` built or found the node.

        Python calls this on every node ``Game(...)`` returns, so wrapping
        it, as ``perfbench/layertrace.py`` does, still counts every
        construction.
        """

    def __copy__(self):
        return self  # immutable and interned, so any copy is this very node

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # pickle rebuilds through the intern table.  It gets the distinct
        # nodes once, in post-order, each as its score and the indices of
        # its options, so no depth of game recurses.
        index: dict[Game, int] = {}
        nodes = []
        for node in _post_order(self, index, _options):
            index[node] = len(nodes)
            nodes.append((node.score, [index[o] for o in node.left], [index[o] for o in node.right]))
        return (_from_post_order, (nodes,))

    @property
    def is_number(self) -> bool:
        """True when the game has no options (a bare final score)."""
        return not self.left and not self.right

    def __add__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return add(self, other)

    def __neg__(self):
        return negate(self)

    def __sub__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return add(self, negate(other))

    def __repr__(self):
        try:
            return f"Game({render_game(self)!r})"
        except RenderSizeError as exc:
            # a bounded summary, so logging and debuggers can still show the game
            def part(n: int) -> str:
                try:
                    return str(n)
                except ValueError:  # more digits than str() converts
                    return f"{'-' * (n < 0)}<{n.bit_length()}-bit int>"

            num, den = self.score.numerator, self.score.denominator
            score = part(num) if den == 1 else f"{part(num)}/{part(den)}"
            # format_score's error keeps the interpreter's as its cause
            why = exc if exc.__cause__ else f"notation over {MAX_RENDER_CHARS} characters"
            return f"<Game score={score} left={len(self.left)} right={len(self.right)}: {why}>"


def _from_post_order(nodes) -> Game:
    """The last of ``nodes``, built bottom-up from ``Game.__reduce__``'s list."""
    built: list[Game] = []
    for score, left, right in nodes:
        built.append(Game(score, [built[i] for i in left], [built[i] for i in right]))
    return built[-1]


# (numerator, denominator, left, right) -> the live node.  The lock makes
# lookup and insertion one step; the table's removal callbacks never take it.
_INTERNED: weakref.WeakValueDictionary[tuple, Game] = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


_SORT_KEY = attrgetter("_key")


class GameDepthError(ValueError):
    """Two options of one node agree too deep down to be put in order."""


def _canonical_options(options: Iterable[Game]) -> tuple[Game, ...]:
    opts = tuple(options)
    for opt in opts:
        if not isinstance(opt, Game):
            raise TypeError(f"game options must be Game instances, got {type(opt).__name__}")
    if len(opts) > 1:
        # options form a set; equal games are one object, so dedupe by identity
        try:
            opts = tuple(sorted(dict.fromkeys(opts), key=_SORT_KEY))
        except RecursionError:
            # comparing two keys recurses in C, two levels per game level
            # that the options share
            raise GameDepthError("sibling options agree too many levels deep to be ordered") from None
    return opts


def reflect(game: Game, about) -> Game:
    """Swap every node's option sides and map each score x to ``about - x``.

    ``negate(g) == reflect(g, 0)``, and ``reflect(reflect(g, c), c) is g``.
    A game is impartial at its root when its left options are its right
    options reflected about twice its score.
    """
    about = as_score(about)
    done: dict[Game, Game] = {}
    for node in _post_order(game, done, _options):
        done[node] = Game(
            about - node.score,
            [done[child] for child in node.right],
            [done[child] for child in node.left],
        )
    return done[game]


def negate(game: Game) -> Game:
    """Mirror image: swap the option sides and negate every score."""
    return reflect(game, 0)


def translate(game: Game, amount) -> Game:
    """Add ``amount`` to every score in the tree: the sum with a bare number."""
    return add(game, Game(amount))


def add(g: Game, h: Game) -> Game:
    """Long-rule disjunctive sum.

    A move in the sum is a move in one component with the other left alone,
    so play continues while the mover has an option anywhere; node scores
    add.  Every pair of a node under ``g`` and a node under ``h`` is reached,
    and each is built once, after the pairs its options lead to.
    """
    h_nodes: dict[Game, None] = {}
    for b in _post_order(h, h_nodes, _options):
        h_nodes[b] = None
    done: dict[tuple[Game, Game], Game] = {}
    g_nodes: dict[Game, None] = {}
    for a in _post_order(g, g_nodes, _options):
        g_nodes[a] = None
        for b in h_nodes:
            left = [done[al, b] for al in a.left] + [done[a, bl] for bl in b.left]
            right = [done[ar, b] for ar in a.right] + [done[a, br] for br in b.right]
            done[a, b] = Game(a.score + b.score, left, right)
    return done[g, h]


class FinalScores(NamedTuple):
    sl: Score  # final score under optimal play, Left moving first
    sr: Score  # final score under optimal play, Right moving first


def final_scores(game: Game) -> FinalScores:
    """Optimal final scores for both move orders.

    With Left to move first, the result is the greatest Right-first score
    among the left options; with Right first, the least Left-first score
    among the right options; a player with no option ends play at the
    node's own score.  Every node computed its pair when it was built (see
    :class:`Game`), so this reads the root's pair and walks nothing.
    """
    return FinalScores(Fraction(game._sl), Fraction(game._sr))


def _post_order(root, done, children) -> Iterator:
    """Yield each node under ``root`` that is not in ``done``, children first.

    ``children(node)`` is called once per yielded node, when the walk first
    reaches it.  The caller adds every yielded node to ``done`` before asking
    for the next, so each node comes once.  The graph must be acyclic.
    """
    stack = [root]  # explicit: deep games and long heap chains outrun recursion
    while stack:
        node = stack.pop()
        if node is _BUILD:
            yield stack.pop()
        elif node not in done:
            stack += (node, _BUILD)
            stack += children(node)


_BUILD = object()  # stack mark: the entry below it has its children above it


def _options(node: Game) -> tuple[Game, ...]:
    return node.left + node.right


class Outcome(Enum):
    L = "L"
    R = "R"
    N = "N"
    P = "P"
    TIE = "Tie"


def outcome(game: Game) -> Outcome:
    """Outcome class from the signs of the two optimal final scores.

    Left wins when both signs favor her and at least one is strict; same for
    Right.  (+,-) favors whoever moves first, (-,+) whoever moves second,
    and (0,0) is a tie.  Reads the scores stored on the root, like
    :func:`final_scores`.
    """
    sl, sr = game._sl, game._sr
    a = (sl > 0) - (sl < 0)
    b = (sr > 0) - (sr < 0)
    if a >= 0 and b >= 0:
        return Outcome.TIE if a == 0 and b == 0 else Outcome.L
    if a <= 0 and b <= 0:
        return Outcome.R
    return Outcome.N if a > 0 else Outcome.P


def is_impartial(game: Game) -> bool:
    """Do both players hold mirror-image move sets at the root?

    The left options must be the right options reflected about twice the
    root score.  Reflecting the whole game about that keeps the root score
    and maps the right options onto the left ones, and reflection is an
    involution, so the game comes back exactly when its root is impartial;
    equal games are one object, so ``is`` compares structure.  Games with
    options on exactly one side are never impartial.
    """
    return reflect(game, 2 * game.score) is game


def identity_game() -> Game:
    """The zero-scored unit: sums with impartial games keep their final scores.

    Each side gets a two-move dance worth nothing, so either player can
    answer a move here without touching the rest of the sum.
    """
    pivot = Game(0, [Game(0)], [Game(0)])
    return Game(0, [pivot], [pivot])


def generate_impartial(max_depth: int, max_branch: int, score_bound=4, seed: int = 0) -> Game:
    """Random impartial game, deterministic in ``seed``.

    Left options are generated recursively; each right option is a left
    option reflected about twice that node's score (see :func:`reflect`).  The
    mirror construction is applied at every node, so the whole tree, not
    just the root, is impartial.
    """
    if max_depth < 0 or max_branch < 0:
        raise ValueError("max_depth and max_branch must be nonnegative")
    bound = as_score(score_bound)
    if bound < 0:
        raise ValueError("score_bound must be nonnegative")
    rng = random.Random(seed)

    def random_score() -> Score:
        den = rng.choice((1, 1, 2, 3))
        top = int(bound * den)
        return Fraction(rng.randint(-top, top), den)

    def build(depth: int) -> Game:
        score = random_score()
        width = rng.randint(0, max_branch) if depth > 0 else 0
        lefts = [build(depth - 1) for _ in range(width)]
        rights = [reflect(option, 2 * score) for option in lefts]
        return Game(score, lefts, rights)

    return build(max_depth)


# ---------------------------------------------------------------------------
# Notation: game := "{" opts "|" score "|" opts "}" | score


def parse_game(text: str) -> Game:
    """Parse ``{options|score|options}`` notation; a bare score is a leaf game."""
    tokens = _TOKEN_RE.finditer(text)
    token = next(tokens)

    def take(wanted: str | None = None) -> Score | None:
        """Consume the current token: the character ``wanted``, or else a score."""
        nonlocal token
        current, at = token, token.start(1)
        if (current[2] is None) if wanted is None else (current[1] != wanted):
            expected = "a score" if wanted is None else repr(wanted)
            found = current[1][:1] or "end of input"
            raise NotationError(f"expected {expected}, found {found!r}", at)
        token = next(tokens)
        return _score_from_token(current[2], at) if wanted is None else None

    # One frame per open brace: [score, left options] until the left
    # options end, then [score, left options, right options].
    frames: list[list] = []
    while True:
        if token[1] == "{":
            take("{")
            frames.append([None, []])
            game = None  # an option list starts
        else:
            game = Game(take())
        while frames:  # close every list and brace that this completes
            frame = frames[-1]
            if game is None:
                if token[1] not in ("|", "}"):
                    break  # read the list's first option
            else:
                frame[-1].append(game)
                if token[1] == ",":
                    take(",")
                    break  # read the next option
            if len(frame) == 2:
                take("|")
                frame[0] = take()
                take("|")
                frame.append([])
                game = None
                continue
            take("}")
            frames.pop()
            game = Game(*frame)
        else:
            break
    if token[1]:
        raise NotationError("unexpected trailing input", token.start(1))
    return game


MAX_RENDER_CHARS = 2**24
# An indented tree writes each line's depth out as spaces, so a chain d deep
# takes about 2 * d**2 characters: 50,050,001 at d = 5,000.
MAX_TREE_CHARS = 2**26


def render_game(game: Game) -> str:
    """Canonical notation; ``parse_game(render_game(g)) is g``.

    Renders each distinct node once, options before the node, without
    recursion.  A node's text is dropped once every node that uses it has
    been rendered, so a deep chain holds two texts at a time, not all.
    Raises :class:`RenderSizeError`, before building any text, when the
    result would be longer than :data:`MAX_RENDER_CHARS` characters.
    """
    users: dict[Game, int] = {}  # distinct parents not yet rendered
    length: dict[Game, int] = {}  # characters in each node's text, in post-order
    for node in _post_order(game, length, _options):
        users[node] = 0
        size = len(format_score(node.score)) + sum([length[child] for child in _options(node)])
        if not node.is_number:
            # two braces, two bars and the commas between options
            size += 4 + max(len(node.left) - 1, 0) + max(len(node.right) - 1, 0)
        length[node] = size
        for child in {*node.left, *node.right}:
            users[child] += 1
    if length[game] > MAX_RENDER_CHARS:
        raise RenderSizeError(f"game notation would exceed {MAX_RENDER_CHARS} characters")
    text: dict[Game, str] = {}
    for node in length:
        score = format_score(node.score)
        if node.is_number:
            text[node] = score
            continue
        left = ",".join([text[child] for child in node.left])
        right = ",".join([text[child] for child in node.right])
        text[node] = f"{{{left}|{score}|{right}}}"
        for child in {*node.left, *node.right}:
            users[child] -= 1
            if not users[child]:
                del text[child]
    return text[game]


def render_tree(game: Game) -> str:
    """Indented tree, one line per node, options tagged L or R.

    A subtree is written out once per path to it, indented by its depth on
    that path.  Raises :class:`RenderSizeError`, before building any text,
    when the result would be longer than :data:`MAX_TREE_CHARS` characters.
    """
    # per distinct node: the lines of its subtree and their characters,
    # with the node itself at depth 0 and untagged
    size: dict[Game, tuple[int, int]] = {}
    for node in _post_order(game, size, _options):
        count, chars = 1, len(format_score(node.score))
        for child in _options(node):
            child_count, child_chars = size[child]
            count += child_count
            # the child's tag, and one more indent level on each of its lines
            chars += child_chars + 2 + 2 * child_count
        size[node] = (count, chars)
    count, chars = size[game]
    if chars + count - 1 > MAX_TREE_CHARS:  # the lines and the breaks between them
        raise RenderSizeError(f"game tree would exceed {MAX_TREE_CHARS} characters")
    lines: list[str] = []
    stack = [(game, 0, "")]
    while stack:
        node, depth, tag = stack.pop()
        lines.append("  " * depth + tag + format_score(node.score))
        children = [(child, depth + 1, "L ") for child in node.left]
        children += [(child, depth + 1, "R ") for child in node.right]
        stack.extend(reversed(children))
    return "\n".join(lines)
