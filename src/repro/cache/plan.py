"""The plan cache: parsed ASTs and compiled operator trees, exactly invalidated.

Re-running the same query text against an unchanged store re-does three
deterministic computations — parsing, algebra compilation (with its
cardinality-driven join ordering) and, in :class:`~repro.geosparql.store.GeoStore`,
the spatial rewrite that bakes R-tree candidate lists into the tree. A
:class:`PlanCache` memoises all three behind one keying discipline:

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
  share a cache entry.

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

    def parse(self, text: str):
        """The parsed AST for *text* (cached; parsing is deterministic)."""
        ast = self._parses.get(text)
        if ast is MISS:
            from repro.sparql.parser import parse_query

            ast = parse_query(text)
            self._parses.put(text, ast)
        return ast

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
        plan = self._plans.get(key)
        if plan is MISS:
            plan = build()
            self._plans.put(key, plan)
        return plan

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, Dict[str, int]]:
        return {"plans": self._plans.stats, "parses": self._parses.stats}

    def clear(self) -> None:
        self._plans.clear()
        self._parses.clear()

    def __repr__(self) -> str:
        return f"PlanCache(plans={self._plans.stats}, parses={self._parses.stats})"
