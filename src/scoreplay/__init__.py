"""Scoring-play combinatorial games with exact rational arithmetic.

Three layers: game trees and their algebra (:mod:`scoreplay.games`), heap
games ruled by octal digits with point awards (:mod:`scoreplay.octal`), and
eventual-period analysis with evidence scans (:mod:`scoreplay.periods`).
The ``scoreplay`` command exposes all of it from the shell.
"""

from scoreplay import games, octal, periods
from scoreplay.games import *
from scoreplay.octal import *
from scoreplay.periods import *

__version__ = "0.1.0"

__all__ = [*games.__all__, *octal.__all__, *periods.__all__]
