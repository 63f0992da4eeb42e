"""Window type implementations (Sections 4.4 and 5.4.2).

Context free: :class:`TumblingWindow`, :class:`SlidingWindow`,
:class:`CountTumblingWindow`, :class:`CountSlidingWindow`,
:class:`ExplicitEdgesWindow` (user-defined boundary sequences).
Forward context free: :class:`PunctuationWindow`.
Context aware: :class:`SessionWindow` (merge-only),
:class:`LastNEveryWindow` (multi-measure FCA).

A window holds its parameters and pure functions of them; a
:class:`PunctuationWindow` also keeps the punctuations it was shown.
Operators register a copy of each window they are given, so one window
object may be handed to any number of operators.
"""

from .base import (
    ContextAwareWindow,
    ContextClass,
    ContextFreeWindow,
    ForwardContextFreeWindow,
    WindowType,
)
from .count import CountSlidingWindow, CountTumblingWindow
from .explicit import ExplicitEdgesWindow
from .multimeasure import LastNEveryWindow
from .punctuation import PunctuationWindow
from .session import SessionWindow
from .sliding import SlidingWindow
from .tumbling import TumblingWindow

__all__ = [
    "WindowType",
    "ContextClass",
    "ContextFreeWindow",
    "ForwardContextFreeWindow",
    "ContextAwareWindow",
    "TumblingWindow",
    "SlidingWindow",
    "CountTumblingWindow",
    "CountSlidingWindow",
    "ExplicitEdgesWindow",
    "SessionWindow",
    "PunctuationWindow",
    "LastNEveryWindow",
]
