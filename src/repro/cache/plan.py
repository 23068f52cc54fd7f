"""The plan cache: parsed ASTs and compiled operator trees, exactly invalidated.

Re-running the same query text against an unchanged store re-does three
deterministic computations — parsing, algebra compilation (with its
cardinality-driven join ordering) and, in :class:`~repro.geosparql.store.GeoStore`,
the spatial rewrite that bakes R-tree candidate lists into the tree. A
:class:`PlanCache` memoises all three behind one keying discipline, in two
text tiers and two template tiers:

* **parse entries** are keyed by query text alone — parsing is a pure
  function of the text;
* **plan entries** are keyed by ``(owner token, query text, CompileOptions,
  content version)``. The owner token is a per-live-object id (via a
  ``WeakKeyDictionary``, so a collected store can never alias a new one),
  and the content version is the owner's monotonically bumped mutation
  counter (:attr:`repro.rdf.graph.Graph.version`) — any mutation moves the
  key, so a cached plan can never describe data that changed under it.
  The options component is the frozen, hashable
  :class:`~repro.sparql.algebra.CompileOptions` itself: every field shapes
  the plan, and ``engine`` is one of them, so the interpreted evaluator and
  the E22 vector engine — whose plans are cost-ordered differently — never
  share a cache entry;
* **template entries** are keyed by a query *template* (the text with its
  constants lifted out, :func:`repro.sparql.tokenizer.normalise`) and hold
  what binding a new text of it needs, so a text the text tiers have not
  seen is parsed only when its template is new;
* **template plan entries** are keyed by ``(owner token, template,
  CompileOptions, content version, extents)``, the extents being the
  ``Graph.count`` of every triple pattern that holds a constant. At one
  version those are the only planner inputs a constant can change, so a
  plan bound to another text's constants is the plan that text would get
  (:mod:`repro.sparql.template`); a text the plan tier has not seen is
  planned only when its key is new. Both template tiers have the cache's
  capacity and no metrics of their own; ``stats`` reports them.

The cache stores what it is handed and never parses or plans itself: each
tier's caller passes the step that fills a miss.

One ``PlanCache`` may be shared by several stores (the evaluator, a
``GeoStore``, the catalogue over it, a ``VirtualGeoStore``); entries never
collide because the owner token is part of the key. Only *string* queries
are cached — an AST handed in by the caller has no stable identity to key
on, and takes the uncached path unchanged.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Optional

from repro.cache.lru import LRUCache, MISS
from repro.obs import Observability


class PlanCache:
    """Memoises parse and compile results for string queries."""

    def __init__(
        self,
        capacity: int = 256,
        parse_capacity: Optional[int] = None,
        obs: Optional[Observability] = None,
    ):
        self._plans = LRUCache(capacity, tier="plan", obs=obs)
        self._parses = LRUCache(
            parse_capacity if parse_capacity is not None else capacity,
            tier="parse",
            obs=obs,
        )
        self._templates = LRUCache(capacity, tier="template")
        self._template_plans = LRUCache(capacity, tier="template_plan")
        self._tokens: "weakref.WeakKeyDictionary[object, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._next_token = 0

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------

    def token(self, owner: object) -> int:
        """A stable token for a live owner object (store, graph, ...)."""
        token = self._tokens.get(owner)
        if token is None:
            token = self._next_token
            self._next_token += 1
            self._tokens[owner] = token
        return token

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------

    @staticmethod
    def _memo(tier: LRUCache, key, build: Callable[[], object]):
        value = tier.get(key)
        if value is MISS:
            value = build()
            tier.put(key, value)
        return value

    def parse(self, text: str, step: Callable[[str], object]):
        """The parsed AST for *text*: ``step(text)`` on a miss (parsing is
        deterministic)."""
        return self._memo(self._parses, text, lambda: step(text))

    def template(self, template: str, build: Callable[[], object]):
        """The entry of a query template; ``build`` runs on a miss."""
        return self._memo(self._templates, template, build)

    def template_plan(
        self,
        owner: object,
        template: str,
        options,
        version: int,
        extents: tuple,
        build: Callable[[], object],
    ):
        """The template plan for (*owner*, *template*, *options*,
        *version*, *extents*); ``build`` runs on a miss."""
        key = (self.token(owner), template, options, version, extents)
        return self._memo(self._template_plans, key, build)

    def plan(
        self,
        owner: object,
        text: str,
        options,
        version: int,
        build: Callable[[], object],
    ):
        """The compiled plan for (*owner*, *text*, *options*, *version*).

        ``build`` runs on a miss; its result is cached under the full key,
        so a version bump (any store mutation) forces a rebuild and the
        stale plan ages out of the LRU on its own.
        """
        key = (self.token(owner), text, options, version)
        return self._memo(self._plans, key, build)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _tiers(self) -> Dict[str, LRUCache]:
        return {
            "plans": self._plans,
            "parses": self._parses,
            "templates": self._templates,
            "template_plans": self._template_plans,
        }

    @property
    def stats(self) -> Dict[str, Dict[str, int]]:
        return {name: tier.stats for name, tier in self._tiers().items()}

    def clear(self) -> None:
        for tier in self._tiers().values():
            tier.clear()

    def __repr__(self) -> str:
        tiers = ", ".join(f"{name}={tier.stats}" for name, tier in self._tiers().items())
        return f"PlanCache({tiers})"
