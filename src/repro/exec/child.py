"""The forked-child lifecycle of both process layers: the executor's
workers and the serving fleet's shards.  Their message protocols stay
with their layers, which wait on :attr:`Child.conn` directly."""

from __future__ import annotations

import multiprocessing
import weakref
from typing import Callable, Optional, Sequence

#: The parent's end of every live child's pipe in this process.
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()


def _child_main(own_end, target: Callable, conn, *args) -> None:
    # A process's death shows as EOF at the other end of its pipe only
    # if no third process holds a copy of its own end.  The parent
    # closes each child's end right after start(), so it reads EOF when
    # a child dies.  A fork copies every parent end alive in the
    # process, whichever layer made it, so each child closes them all:
    # then a child reads EOF, and exits, once its parent's end is gone,
    # even when the parent was SIGKILLed.
    own_end.close()
    for end in list(_PARENT_ENDS):
        end.close()
    _PARENT_ENDS.clear()
    target(conn, *args)


class Child:
    """A forked child running ``target(conn, *args)``; :attr:`conn` is
    the parent's end of their duplex pipe.  A ``daemon`` child dies
    with the interpreter but cannot fork."""

    #: Class defaults: :meth:`kill` is a no-op if the start raised.
    process = None
    exitcode: Optional[int] = None

    def __init__(self, target: Callable, args: Sequence = (), *,
                 daemon: bool):
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        process = context.Process(target=_child_main, daemon=daemon,
                                  args=(self.conn, target, child_end, *args))
        try:
            process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_end.close()
        self.process = process
        _PARENT_ENDS.add(self.conn)

    def kill(self) -> Optional[int]:
        """Close the parent end, SIGKILL the child (which stops even a
        hung or stopped one), reap it and return its exit code.
        Idempotent."""
        if self.process is not None:
            _PARENT_ENDS.discard(self.conn)
            self.conn.close()
            self.process.kill()
            self.process.join()
            self.exitcode = self.process.exitcode
            self.process.close()
            self.process = None
        return self.exitcode
