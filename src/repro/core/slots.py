"""The pickled state of slotted classes.

Every class whose instances a checkpoint holds declares ``__slots__``.
CPython 3.11 keeps an instance's attributes inline until something reads
its ``__dict__``; from then on the instance keeps a real dict, and every
attribute load and store goes through it, which is slower.  Pickling
reads ``__dict__`` on every snapshot, the default unpickling restores
through it, and so does :func:`~repro.runtime.memory.deep_sizeof`: an
operator that was checkpointed once would run slower for the rest of its
life.  A slotted instance has no ``__dict__`` for any of them to create.

Slotted classes pickle their slots by default.  The few that leave a
field out of a snapshot (a cache, a runtime hook, what they derive from
the rest) build their state with :func:`slot_state` and restore it with
:func:`set_slot_state`.  Neither calls ``object.__getstate__``, which
Python 3.10 does not have.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

__all__ = ["slot_names", "slot_state", "set_slot_state"]

_UNSET = object()


def slot_names(cls: type) -> List[str]:
    """Every slot ``cls`` and its bases declare, except ``__dict__`` and
    ``__weakref__``."""
    return [
        name
        for klass in cls.__mro__
        for name in klass.__dict__.get("__slots__", ())
        if name not in ("__dict__", "__weakref__")
    ]


def slot_state(obj: Any, leave_out: Iterable[str] = ()) -> Dict[str, Any]:
    """``obj``'s state by attribute name: each slot that holds a value,
    and the ``__dict__`` of a subclass that declares no slots, less the
    names in ``leave_out``."""
    state = {}
    for name in slot_names(type(obj)):
        value = getattr(obj, name, _UNSET)
        if value is not _UNSET:
            state[name] = value
    state.update(getattr(obj, "__dict__", ()))
    for name in leave_out:
        state.pop(name, None)
    return state


def set_slot_state(obj: Any, state: Dict[str, Any]) -> None:
    """Restore what :func:`slot_state` returned, one ``setattr`` per name."""
    for name, value in state.items():
        setattr(obj, name, value)
