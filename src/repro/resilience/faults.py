"""Deterministic fault injection for chaos-testing the validation path.

A serving claim like "one bad document cannot take down the batch" is only
credible if it is *exercised*: :class:`FaultInjector` plants seeded,
reproducible failures at the engine's hot-path sites (``parse``,
``compile``, ``validate``, ``source``) so tests and
``scripts/chaos_smoke.py`` can prove containment — every injected fault
surfaces as exactly one isolated per-document error, never an escaped
exception.

Install the injector ambiently for a dynamic extent (``with
FaultInjector(...):``), the way a
:class:`~repro.observability.ResourceBudget` is, or thread it explicitly
(``injector=`` on :func:`repro.engine.validate_many`).  Instrumented
call sites resolve the ambient injector with :func:`current_injector`;
with none installed the probe costs a single contextvar read per
*document* (sites fire once per unit of work, never per event).

Determinism: one seeded ``random.Random`` drives every decision behind a
lock, so for a fixed seed, rates, and number of probes the *number* of
injected faults is exact — even under a thread pool, where only the
assignment of faults to documents may vary with scheduling.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
import threading

from repro.errors import InjectedFault

_ambient = contextvars.ContextVar("repro_fault_injector", default=None)

SITES = ("parse", "compile", "validate", "source")


class FaultInjector:
    """Seeded probabilistic fault injection at named sites.

    Args:
        seed: seed for the decision stream (identical runs inject
            identically many faults).
        rates: mapping of site name -> injection probability in [0, 1].
            Sites absent from the mapping never fire.

    Attributes:
        rates: the (validated) site -> probability mapping.
    """

    __slots__ = ("rates", "_rng", "_lock", "_checks", "_injected", "_token")

    def __init__(self, seed=0, rates=None):
        self.rates = dict(rates or {})
        for site, rate in self.rates.items():
            if site not in SITES:
                raise ValueError(
                    f"unknown injection site {site!r} (known: {SITES})"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"rate for {site!r} must be in [0, 1], got {rate!r}"
                )
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._checks = {site: 0 for site in SITES}
        self._injected = {site: 0 for site in SITES}
        self._token = None

    def maybe_fail(self, site):
        """Probe ``site``: raise :class:`InjectedFault` per its rate.

        Every probe consumes one draw from the seeded stream (even at
        rate 0), so adding a site to ``rates`` never perturbs the
        decisions of the others retroactively within a fixed probe order.
        """
        rate = self.rates.get(site, 0.0)
        with self._lock:
            self._checks[site] = self._checks.get(site, 0) + 1
            roll = self._rng.random()
            fire = roll < rate
            if fire:
                self._injected[site] = self._injected.get(site, 0) + 1
                ordinal = self._injected[site]
        if fire:
            raise InjectedFault(
                f"injected fault #{ordinal} at site {site!r}", site=site
            )

    # -- accounting -------------------------------------------------------
    def checks(self, site=None):
        """Probes seen (per site, or total when ``site`` is ``None``)."""
        with self._lock:
            if site is not None:
                return self._checks.get(site, 0)
            return sum(self._checks.values())

    def injected(self, site=None):
        """Faults fired (per site, or total when ``site`` is ``None``)."""
        with self._lock:
            if site is not None:
                return self._injected.get(site, 0)
            return sum(self._injected.values())

    def stats(self):
        """Snapshot dict: per-site probe and injection counts."""
        with self._lock:
            return {
                "checks": dict(self._checks),
                "injected": dict(self._injected),
            }

    def __repr__(self):
        return (
            f"FaultInjector(rates={self.rates}, "
            f"injected={self.injected()}/{self.checks()})"
        )

    # -- ambient installation ---------------------------------------------
    def __enter__(self):
        self._token = _ambient.set(self)
        return self

    def __exit__(self, *exc_info):
        _ambient.reset(self._token)
        self._token = None
        return False


def current_injector():
    """The ambiently installed injector, or ``None``."""
    return _ambient.get()


def resolve_injector(injector=None):
    """``injector`` if given, else the ambient one (``None`` if neither)."""
    return injector if injector is not None else _ambient.get()


@contextlib.contextmanager
def installed_injector(injector):
    """Install ``injector`` ambiently; safe for concurrent use per thread.

    The worker threads of :func:`repro.engine.validate_many` use this
    (contextvars do not propagate into pool threads automatically, and
    entering the instance stores its reset token on ``self``, which
    concurrent entries would clobber).
    """
    token = _ambient.set(injector)
    try:
        yield injector
    finally:
        _ambient.reset(token)


def probe(site):
    """Module-level convenience used by instrumented hot paths.

    Resolves the ambient injector and probes ``site``; a no-op (one
    contextvar read) when no injector is installed.
    """
    injector = _ambient.get()
    if injector is not None:
        injector.maybe_fail(site)
