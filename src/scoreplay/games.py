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
    "Game", "reflect", "negate", "translate", "add", "FinalScores",
    "final_scores", "Outcome", "outcome", "is_impartial", "identity_game", "generate_impartial",
    "parse_game", "MAX_RENDER_CHARS", "MAX_TREE_CHARS", "render_game", "render_tree",
]

import math
import random
import re
import sys
import threading
import weakref
from _weakref import _remove_dead_weakref
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

Score = Fraction


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
    return Fraction(*_score_parts(token[2], 0))


def _score_parts(token: str, position: int) -> tuple[int, int]:
    """A score literal as ints ``(num, den)`` in lowest terms, ``den > 0``."""
    num, slash, den = token.partition("/")
    try:
        if not slash:
            if "." not in token:
                return int(token), 1
            score = Fraction(token)  # a decimal, converted exactly
            return score.numerator, score.denominator
        num, den = int(num), int(den)
    except ValueError:  # a part has more digits than int() converts
        raise NotationError("score literal has too many digits", position) from None
    if not den:
        raise NotationError("score denominator must be positive", position)
    common = math.gcd(num, den)
    return num // common, den // common


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

    Every structurally distinct game exists once per process: building a game
    that is structurally equal to a live one returns that very object,
    however either was built.  So structurally equal games are the same
    object (``is``), and equality is identity.  A node is interned by its
    score and its two option *sets*, each stored deduplicated in order of
    ``id``: equal games are one object, so that form is canonical and no
    game is compared to build it.  The intern table holds nodes weakly, so
    a node dies with its last outside reference.  ``g + h`` is the
    long-rule disjunctive sum, ``-g`` the mirror image.  Instances are safe
    to share across threads, and threads that build the same game get the
    same object.

    ``Game(...)`` coerces the score, checks and deduplicates the options,
    and interns the node.  Sums, reflections, the parser and heap
    expansion intern directly instead: they work each score out as two
    ints in lowest terms from their inputs' ints, and build the
    ``Fraction`` only for a node that is new.  Either way ``score`` is a
    ``Fraction``.

    ``left`` and ``right`` give the options in the storage order, a total
    order on games, ``g < h``: score first, then the left options, then the
    right options, each list compared lexicographically with a proper
    prefix first.  This is not a comparison of game values, and ``<`` (with
    its mirror ``>``) is the only comparison defined.  The order is worked
    out on its first read, by ``left``, ``right``, ``<``, rendering or
    pickling, for the node and every node below it that lacks it, and then
    kept; the sums, reflections and minimax never read it.  Scores are
    compared first as their nearest floats, which the interpreter compares
    in C, and exactly only on a tie.  Rounding to the nearest float is
    monotone, so a smaller float means a smaller score and the order is the
    exact one.  The option sort compares ``_key`` tuples, so only a score
    tie reaches :meth:`__lt__`, which walks one path down to where the two
    games differ: no depth of game limits the order.

    A node's options exist before it does, and no node changes once built.
    So its optimal final scores (see :func:`final_scores`) are fixed when it
    is first interned, one minimax step over its options' scores, and are
    stored on it; no later query walks the tree.
    """

    __slots__ = ("score", "_left", "_right", "_key", "_sl", "_sr", "__weakref__")

    def __new__(cls, score, left: Iterable[Game] = (), right: Iterable[Game] = ()):
        score = as_score(score)
        return _intern(score.numerator, score.denominator, score, _option_set(left), _option_set(right))

    def __init__(self, score, left: Iterable[Game] = (), right: Iterable[Game] = ()):
        """Nothing left to do: ``__new__`` built or found the node.

        Python calls this on every node that ``Game(...)`` returns, and on
        no node that the library interns directly: sums, reflections,
        parsed games and heap expansions.
        """

    def __lt__(self, other):
        """Does ``self`` come before ``other`` in the storage order?

        Equal games are one object, so two distinct games with equal scores
        differ first at their first non-identical option, left side first,
        or else one option tuple is a proper prefix of the other.  That pair
        decides the order, so the walk steps down to it: one path, no
        recursion.
        """
        if not isinstance(other, Game):
            return NotImplemented
        a, b = self, other
        while a is not b:
            ka, kb = a._key or _order(a), b._key or _order(b)
            if ka[1] != kb[1]:
                return ka < kb  # the scores differ, so they decide
            mine, theirs = (ka[2], kb[2]) if ka[2] != kb[2] else (ka[3], kb[3])
            for a, b in zip(mine, theirs):  # step down to the first pair that differs
                if a is not b:
                    break
            else:
                return len(mine) < len(theirs)
        return False

    @property
    def left(self) -> tuple[Game, ...]:
        """The left options, in the storage order."""
        return (self._key or _order(self))[2]

    @property
    def right(self) -> tuple[Game, ...]:
        """The right options, in the storage order."""
        return (self._key or _order(self))[3]

    def __copy__(self):
        return self  # immutable and interned, so any copy is this very node

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # pickle rebuilds through the intern table.  It gets the distinct
        # nodes once, in post-order, each as its score and the indices of
        # its options, so no depth of game recurses.  The walk reads the
        # storage order, not the id order, so equal games pickle alike.
        index: dict[Game, int] = {}
        nodes = []
        for node in _post_order(self, index, lambda node: node.left + node.right):
            index[node] = len(nodes)
            nodes.append((node.score, [index[o] for o in node.left], [index[o] for o in node.right]))
        return (_from_post_order, (nodes,))

    @property
    def is_number(self) -> bool:
        """True when the game has no options (a bare final score)."""
        return not self._left and not self._right

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
            return f"<Game score={score} left={len(self._left)} right={len(self._right)}: {why}>"


def _from_post_order(nodes) -> Game:
    """The last of ``nodes``, built bottom-up from ``Game.__reduce__``'s list."""
    built: list[Game] = []
    for score, left, right in nodes:
        built.append(Game(score, [built[i] for i in left], [built[i] for i in right]))
    return built[-1]


class _InternRef(weakref.ref):
    """A weak reference to an interned node that carries the node's table key."""

    __slots__ = ("key",)


def _forget(ref: _InternRef) -> None:
    """Drop a dead node's table entry, unless a live node took its key.

    Removal only if the entry is a dead reference is one step in C, so a
    late callback never drops a live node interned again under its key.
    """
    _remove_dead_weakref(_INTERNED, ref.key)


# (numerator, denominator, left, right) -> a weak reference to the live node.
# A hit needs no lock; the lock makes a miss's second lookup and its
# insertion one step.  The removal callbacks never take it.
_INTERNED: dict[tuple, _InternRef] = {}
_INTERN_LOCK = threading.Lock()


def _intern(num: int, den: int, score: Score | None, left: tuple[Game, ...], right: tuple[Game, ...]) -> Game:
    """The one node with score ``num/den`` and these options, built if new.

    ``num/den`` must be in lowest terms with ``den > 0``, and ``score`` is
    ``Fraction(num, den)`` or None, to be built only if the node is new.
    Each option tuple must be a set of nodes in order of ``id``, as
    :func:`_id_set` makes it.  A key that broke either rule would intern a
    second node for an equal game.
    """
    # Options are interned, so they hash and compare by identity: no lookup
    # recurses into subtrees.  A score in lowest terms is named by its two
    # ints, and ints hash and compare far faster than Fractions.
    key = (num, den, left, right)
    ref = _INTERNED.get(key)
    node = None if ref is None else ref()
    if node is not None:
        return node
    with _INTERN_LOCK:
        ref = _INTERNED.get(key)  # another thread may have interned it since
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(Game)
            if score is None:
                score = Fraction(num, den)
            node.score, node._left, node._right, node._key = score, left, right, None
            # The options were built first, so their scores are known: one
            # step of the minimax, kept as an int when the score is
            # integral, which compares faster and exactly with Fractions.
            first = num if den == 1 else score
            node._sl = max([o._sr for o in left]) if left else first
            node._sr = min([o._sl for o in right]) if right else first
            ref = _InternRef(node, _forget)
            ref.key = key
            _INTERNED[key] = ref
    return node


def _option_set(options: Iterable[Game]) -> tuple[Game, ...]:
    """Checked options as :func:`_intern` takes them."""
    opts = tuple(options)
    for opt in opts:
        if not isinstance(opt, Game):
            raise TypeError(f"game options must be Game instances, got {type(opt).__name__}")
    return _id_set(opts)


def _id_set(options) -> tuple[Game, ...]:
    """Nodes deduplicated and in order of ``id``.

    Options form a set; equal games are one object, so a set in order of
    id is canonical, and a live option keeps its id.
    """
    if len(options) > 1:
        return tuple(sorted(set(options), key=id))
    return tuple(options)


_SORT_KEY = attrgetter("_key")


def _node_key(node: Game) -> tuple:
    """The node's storage-order key; every option must have its key already.

    The key is the score, then the left and then the right option tuple,
    sorted, whose games compare by ``__lt__``.  The score comes twice.
    First as the nearest float, ±inf past the float range: int division
    rounds correctly and rounding is monotone, so a smaller float is a
    smaller score, and floats compare in C.  Equal floats fall through to
    the exact score, an int when integral, which compares faster and
    exactly with Fractions.
    """
    score = node.score
    num, den = score.numerator, score.denominator
    try:
        near = num / den
    except OverflowError:
        near = math.inf if num > 0 else -math.inf
    left, right = node._left, node._right
    if len(left) > 1:
        left = tuple(sorted(left, key=_SORT_KEY))
    if len(right) > 1:
        right = tuple(sorted(right, key=_SORT_KEY))
    return (near, num if den == 1 else score, left, right)


def _order(root: Game) -> tuple:
    """Key ``root`` and every node below it without a key; return root's key.

    Nodes are keyed children first and a key never changes, so a node with
    a key has keyed options, and the walk stops at them.  Threads that key
    one node at once store equal keys.
    """
    done: dict[Game, None] = {}
    for node in _post_order(root, done, _unkeyed_options):
        done[node] = None
        node._key = _node_key(node)
    return root._key


def _unkeyed_options(node: Game) -> list[Game]:
    return [o for o in node._left + node._right if o._key is None]


def reflect(game: Game, about) -> Game:
    """Swap every node's option sides and map each score x to ``about - x``.

    ``negate(g) == reflect(g, 0)``, and ``reflect(reflect(g, c), c) is g``.
    A game is impartial at its root when its left options are its right
    options reflected about twice its score.
    """
    about = as_score(about)
    an, ad = about.numerator, about.denominator
    done: dict[Game, Game] = {}
    for node in _post_order(game, done, _options):
        score = node.score
        done[node] = _intern(
            *_sum_parts(an, ad, -score.numerator, score.denominator),
            None,
            _id_set([done[child] for child in node._right]),
            _id_set([done[child] for child in node._left]),
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
    h_parts: dict[Game, tuple[int, int]] = {}  # each node's score as (num, den)
    for b in _post_order(h, h_parts, _options):
        h_parts[b] = (b.score.numerator, b.score.denominator)
    done: dict[tuple[Game, Game], Game] = {}
    g_nodes: dict[Game, None] = {}
    for a in _post_order(g, g_nodes, _options):
        g_nodes[a] = None
        an, ad = a.score.numerator, a.score.denominator
        for b, (bn, bd) in h_parts.items():
            left = [done[al, b] for al in a._left] + [done[a, bl] for bl in b._left]
            right = [done[ar, b] for ar in a._right] + [done[a, br] for br in b._right]
            done[a, b] = _intern(*_sum_parts(an, ad, bn, bd), None, _id_set(left), _id_set(right))
    return done[g, h]


def _sum_parts(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """``an/ad + bn/bd`` as ints in lowest terms, from two such pairs."""
    if ad == 1 and bd == 1:
        return an + bn, 1
    num, den = an * bd + bn * ad, ad * bd
    common = math.gcd(num, den)
    return num // common, den // common


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
    sl, sr = game._sl, game._sr  # each an int, or a Fraction when not integral
    return FinalScores(
        sl if type(sl) is Fraction else Fraction(sl),
        sr if type(sr) is Fraction else Fraction(sr),
    )


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
    """Both option sets, in no particular order."""
    return node._left + node._right


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
    root score, and the right options the left ones reflected.  Reflection
    about a fixed score is an injective involution, so the first implies
    the second: reflecting both sides of ``left == reflected right`` gives
    ``reflected left == right``.  So only the right options are reflected,
    in one walk: ``Game(score, (), right)`` reflected about twice the score
    has them, reflected, as its left options.  Equal games are one object,
    so comparing the stored option sets, tuples in order of id, compares
    structure.  Games with options on exactly one side are never impartial.
    """
    return reflect(Game(game.score, (), game._right), 2 * game.score)._left == game._left


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

    def take(wanted: str | None = None) -> tuple[int, int] | None:
        """Consume the current token: the character ``wanted``, or else a
        score, returned as :func:`_score_parts` gives it."""
        nonlocal token
        current, at = token, token.start(1)
        if (current[2] is None) if wanted is None else (current[1] != wanted):
            expected = "a score" if wanted is None else repr(wanted)
            found = current[1][:1] or "end of input"
            raise NotationError(f"expected {expected}, found {found!r}", at)
        token = next(tokens)
        return _score_parts(current[2], at) if wanted is None else None

    # One frame per open brace: [score parts, left options] until the left
    # options end, then [score parts, left options, right options].
    frames: list[list] = []
    while True:
        if token[1] == "{":
            take("{")
            frames.append([None, []])
            game = None  # an option list starts
        else:
            game = _intern(*take(), None, (), ())
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
            (num, den), left, right = frame
            game = _intern(num, den, None, _id_set(left), _id_set(right))
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
    recursion, and formats each score once.  A node's text is dropped once
    every node that uses it has been rendered, so a deep chain holds two
    texts at a time, not all.  Raises :class:`RenderSizeError`, before
    building any text or ordering any options, when the result would be
    longer than :data:`MAX_RENDER_CHARS` characters.
    """
    users: dict[Game, int] = {}  # distinct parents not yet rendered
    length: dict[Game, int] = {}  # characters in each node's text, in post-order
    scores: list[str] = []  # each node's formatted score, in the same order
    for node in _post_order(game, length, _options):
        users[node] = 0
        score = format_score(node.score)
        scores.append(score)
        left, right = node._left, node._right
        size = len(score) + sum([length[child] for child in left + right])
        if left or right:
            # two braces, two bars and the commas between options
            size += 4 + max(len(left) - 1, 0) + max(len(right) - 1, 0)
        length[node] = size
        for child in {*left, *right}:
            users[child] += 1
    if length[game] > MAX_RENDER_CHARS:
        raise RenderSizeError(f"game notation would exceed {MAX_RENDER_CHARS} characters")
    text: dict[Game, str] = {}
    for node, score in zip(length, scores):
        # options come first in post-order, so each is keyed before its
        # parent: this pass orders the options that ``left`` would
        key = node._key
        if key is None:
            key = node._key = _node_key(node)
        if node.is_number:
            text[node] = score
            continue
        left = ",".join([text[child] for child in key[2]])
        right = ",".join([text[child] for child in key[3]])
        text[node] = f"{{{left}|{score}|{right}}}"
        for child in {*node._left, *node._right}:
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
