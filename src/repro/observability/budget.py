"""Resource budgets for the expensive constructions.

The translation square's hard arrows are provably exponential in the worst
case: Algorithm 2's state elimination (Theorem 8, via Ehrenfeucht-Zeiger
``X_n``) and Algorithm 3's DFA product (Lemma 6 upper bound, Theorem 9's
``B_n`` lower bound).  A server cannot tell benign from adversarial input
up front, so the only safe posture is a budget: bound wall-clock time, the
number of automaton states a construction may create, and the size of
intermediate regular expressions, and raise
:class:`~repro.errors.BudgetExceeded` (with partial-progress stats) the
moment a limit trips.

A budget is installed for a dynamic extent, and every construction in
that extent reads it (:func:`current_budget`, a contextvar)::

    with ResourceBudget(max_states=10_000, max_seconds=2.0):
        bxsd_to_xsd(schema)          # all inner constructions observe it

The construction functions take no budget argument: the CLI's
``--budget-states`` / ``--budget-seconds`` flags, serve's per-tenant
compile budget, ``validate_many``'s per-document deadline and the
conformance sweep all install one this way, and the engine's loops read
it the same way.  An absent limit (``None``) means unlimited, and an
absent budget costs the hot loops a single ``is None`` test.
"""

from __future__ import annotations

import contextvars
import threading
import time

from repro.errors import BudgetExceeded

_ambient = contextvars.ContextVar("repro_resource_budget", default=None)


class ResourceBudget:
    """Limits shared by every construction in one dynamic extent.

    Args:
        max_states: most automaton states all budgeted constructions may
            create, cumulatively, before :class:`BudgetExceeded`.
        max_seconds: wall-clock deadline, measured from construction (or
            from entry when used as a context manager).
        max_regex_size: largest intermediate regular expression (paper
            size measure, symbol occurrences) state elimination may build.
    """

    __slots__ = ("max_states", "max_seconds", "max_regex_size",
                 "_states", "_started", "_lock", "_token")

    def __init__(self, max_states=None, max_seconds=None,
                 max_regex_size=None):
        for name, limit in (("max_states", max_states),
                            ("max_seconds", max_seconds),
                            ("max_regex_size", max_regex_size)):
            if limit is not None and limit <= 0:
                raise ValueError(f"{name} must be positive, got {limit!r}")
        self.max_states = max_states
        self.max_seconds = max_seconds
        self.max_regex_size = max_regex_size
        self._states = 0
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._token = None

    # -- accounting -------------------------------------------------------
    @property
    def states_created(self):
        return self._states

    def elapsed_seconds(self):
        return time.monotonic() - self._started

    def restart(self):
        """Reset the clock and the state count (entry does this)."""
        with self._lock:
            self._states = 0
            self._started = time.monotonic()

    def stats(self, where=None, limit=None):
        """Partial-progress figures (attached to :class:`BudgetExceeded`)."""
        stats = {
            "states_created": self._states,
            "elapsed_seconds": self.elapsed_seconds(),
            "max_states": self.max_states,
            "max_seconds": self.max_seconds,
            "max_regex_size": self.max_regex_size,
        }
        if where is not None:
            stats["where"] = where
        if limit is not None:
            stats["limit"] = limit
        return stats

    # -- checks (called from construction loops) --------------------------
    def charge_states(self, amount=1, where="construction"):
        """Account ``amount`` freshly created states; raise when over."""
        with self._lock:
            self._states += amount
            states = self._states
        if self.max_states is not None and states > self.max_states:
            raise BudgetExceeded(
                f"{where}: state budget exceeded "
                f"({states} states > max_states={self.max_states})",
                stats=self.stats(where=where, limit="max_states"),
            )
        self.check_time(where)

    def check_time(self, where="construction"):
        """Raise if the wall-clock deadline has passed."""
        if self.max_seconds is None:
            return
        elapsed = self.elapsed_seconds()
        if elapsed > self.max_seconds:
            raise BudgetExceeded(
                f"{where}: deadline exceeded "
                f"({elapsed:.3f}s > max_seconds={self.max_seconds})",
                stats=self.stats(where=where, limit="max_seconds"),
            )

    def charge_regex(self, size, where="state elimination"):
        """Raise if an intermediate regex has grown past the limit."""
        if self.max_regex_size is not None and size > self.max_regex_size:
            raise BudgetExceeded(
                f"{where}: regex budget exceeded (size {size} > "
                f"max_regex_size={self.max_regex_size})",
                stats=self.stats(where=where, limit="max_regex_size"),
            )
        self.check_time(where)

    # -- ambient installation ---------------------------------------------
    def __enter__(self):
        self.restart()
        self._token = _ambient.set(self)
        return self

    def __exit__(self, *exc_info):
        _ambient.reset(self._token)
        self._token = None
        return False

    def __repr__(self):
        return (
            f"ResourceBudget(max_states={self.max_states}, "
            f"max_seconds={self.max_seconds}, "
            f"max_regex_size={self.max_regex_size})"
        )


def current_budget():
    """The ambiently installed budget, or ``None``."""
    return _ambient.get()
