"""Workloads 1-4: the SPARQL request path behind the all-on gateway.

"All-on" is the production assembly ROADMAP item 3 wants as the default:
``GeoStore(plan_cache=PlanCache())`` behind a ``Gateway`` with admission,
a budget policy, coalescing and a real clock, caps set high enough that
nothing is shed. Four weighted tenants share it; ``engine="vector"``.

The graph has ``benchmarks/bench_e22_vector.py``'s shape (20 categories, 50
suppliers, four triples per product) plus point geometries. That builder is
not imported: it hard-wires seed 22 and returns a bare ``Graph``, and here
the seed must reach the data. Categories and suppliers are dealt evenly and
points sit on a jittered grid, so the *work* a query shape does is the same
for every seed and only machine noise separates two runs.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.cache import PlanCache
from repro.geometry import Point, Polygon
from repro.geosparql import GeoStore, geometry_literal
from repro.rdf import GEO, Literal, Namespace
from repro.resilience import AdmissionController
from repro.serving import (
    DistBackend,
    Gateway,
    GatewayRequest,
    StoreBackend,
    TenantConfig,
)
from repro.serving.gateway import Backend
from repro.serving.workload import zipf_weights
from repro.sparql import BudgetPolicy, CompileOptions, QueryBudget, evaluate, parse_query
from repro.sparql.dist import DistRuntime, build_plan
from repro.sparql.vector import compile_vector_plan, execute_tree, finish_select

from bench import stats
from bench.catalogue import SHAPES
from bench.harness import State, Workload
from bench.spans import Recorder

EX = Namespace("http://ex.org/")
PREFIX = "PREFIX ex: <http://ex.org/> "
GEO_PREFIX = (
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)
CATEGORIES, SUPPLIERS = 20, 50
EXTENT = 50.0  #: geometries live in [0, EXTENT]^2
VECTOR = CompileOptions(engine="vector")
#: (tenant, weighted-fair share); no rate quotas, so nothing is refused.
TENANTS: Tuple[Tuple[str, float], ...] = (
    ("tenant-a", 4.0), ("tenant-b", 2.0), ("tenant-c", 1.0), ("tenant-d", 1.0),
)
#: One staged replay per this many read requests (traced run only); prime,
#: so the sample walks through every slot of the 5- and 7-slot cycles.
REPLAY_EVERY = 11
#: Interpreted reference executions per query shape in one traced run; the
#: interpreted engine is ~20x slower at 120k triples, so it is sampled thinly.
REFERENCE_PER_SHAPE = 2


def product_triples(rng: random.Random, products: int, geometries: int):
    """The E22 product graph, seeded, plus *geometries* point literals."""
    for c in range(CATEGORIES):
        yield (EX[f"cat{c}"], EX.region, EX[f"region{c % 5}"])
    for s in range(SUPPLIERS):
        yield (EX[f"sup{s}"], EX.country, EX[f"country{s % 7}"])
    categories = [i % CATEGORIES for i in range(products)]
    suppliers = [i % SUPPLIERS for i in range(products)]
    rng.shuffle(categories)
    rng.shuffle(suppliers)
    for i in range(products):
        yield from product_rows(f"prod{i}", categories[i], suppliers[i], rng)
    side = math.ceil(math.sqrt(geometries))
    cell = EXTENT / side
    cells = list(range(side * side))
    rng.shuffle(cells)
    for i in range(geometries):
        row, col = divmod(cells[i], side)
        yield (EX[f"prod{i}"], GEO.asWKT, point_literal(
            (col + rng.uniform(0.25, 0.75)) * cell,
            (row + rng.uniform(0.25, 0.75)) * cell,
        ))


def product_rows(name: str, category: int, supplier: int, rng: random.Random):
    product = EX[name]
    yield (product, EX.cat, EX[f"cat{category}"])
    yield (product, EX.supplier, EX[f"sup{supplier}"])
    yield (product, EX.price, Literal.from_python(rng.randrange(1000)))
    yield (product, EX.stock, Literal.from_python(rng.randrange(100)))


def point_literal(x: float, y: float) -> Literal:
    return geometry_literal(Point(round(x, 4), round(y, 4)))


def join5_text(threshold) -> str:
    return (
        PREFIX + "SELECT ?p ?r ?k ?v WHERE { ?p ex:cat ?c . ?c ex:region ?r . "
        "?p ex:supplier ?s . ?s ex:country ?k . ?p ex:price ?v . "
        f"FILTER(?v >= {threshold}) }}"
    )


def lookup_text(product: int) -> str:
    return (
        PREFIX + f"SELECT ?v ?t WHERE {{ ex:prod{product} ex:price ?v . "
        f"ex:prod{product} ex:stock ?t }}"
    )


def spatial_text(x: float, y: float, size: float) -> str:
    box = geometry_literal(Polygon.box(x, y, x + size, y + size))
    return (
        PREFIX + GEO_PREFIX + "SELECT ?f ?v WHERE { ?f geo:asWKT ?g . "
        f'?f ex:price ?v . FILTER(geof:sfIntersects(?g, "{box.lexical}"'
        "^^geo:wktLiteral)) }"
    )


def shape_texts(rng: random.Random, products: int) -> Dict[str, str]:
    """The six fixed query shapes; constants are seeded, selectivity is not."""
    def corner() -> float:
        return round(rng.uniform(0.0, EXTENT - 20.0), 3)

    return {
        "join5": join5_text(750),
        "group": PREFIX + (
            "SELECT ?c (COUNT(?p) AS ?n) (AVG(?v) AS ?a) WHERE "
            "{ ?p ex:cat ?c . ?p ex:price ?v } GROUP BY ?c"
        ),
        # Only the sort keys are projected: ties at the LIMIT cut would
        # otherwise let two correct engines return different rows.
        "topk": PREFIX + (
            "SELECT ?v ?t WHERE { ?p ex:price ?v . ?p ex:stock ?t . "
            f"?p ex:cat ex:cat{rng.randrange(CATEGORIES)} }} "
            "ORDER BY DESC(?v) DESC(?t) LIMIT 20"
        ),
        # The correlated filter inside OPTIONAL takes the interpreted fallback.
        "optional": PREFIX + (
            f"SELECT ?p ?t WHERE {{ ?p ex:supplier ex:sup{rng.randrange(SUPPLIERS)} . "
            "?p ex:price ?v . OPTIONAL { ?p ex:stock ?t . FILTER(?v > 500) } }"
        ),
        "lookup": lookup_text(rng.randrange(products)),
        "spatial": spatial_text(corner(), corner(), 20.0),
    }


def canonical(result) -> List:
    """A solution multiset in a comparable form (bench_e22's recipe)."""
    return sorted(sorted((v.name, str(t)) for v, t in row.items()) for row in result)


class TracedBackend(Backend):
    """A bench-owned backend that spans the real one (traced run only)."""

    def __init__(self, inner: Backend, rec: Recorder):
        self.inner = inner
        self.kind = inner.kind
        self.supports_budget = inner.supports_budget
        self._rec = rec

    def version(self):
        return self.inner.version()

    def execute(self, query, options=None, deadline=None, priority=1, **kwargs):
        with self._rec.span("serving.backend"):
            return self.inner.execute(
                query, options=options, deadline=deadline, priority=priority,
                **kwargs,
            )


class SparqlState(State):
    """One all-on assembly plus what the traced run collects from it."""

    def __init__(self) -> None:
        super().__init__()
        self.results: Dict[str, object] = {}  #: text -> last result
        self.rows: Dict[str, int] = {}  #: text -> first-seen row count
        self.counts: Dict[str, int] = {}  #: text -> times requested
        self.requests = 0
        self.depth_max = 0
        self.corrupted = False
        # Traced run only:
        self.replays: Dict[str, List[float]] = defaultdict(list)
        self.sampled: List[str] = []
        self.after_write_ms: List[float] = []
        self.steady_ms: List[float] = []
        self.dist_reports: List = []
        self.reference_left: Dict[str, int] = {}

    def note_failure(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.violations) < 3:
            self.violations.append(f"operation raised: {error!r}")


class SparqlWorkload(Workload):
    """Shared assembly, read path, oracle and staged replay of workloads 1-4."""

    #: Request cycle of the synchronous workloads. Seven slots, so that the
    #: median of the latency sample falls inside one shape's mode (the 4th
    #: slowest slot) and not in the gap between two of them.
    cycle: Tuple[str, ...] = SHAPES + ("lookup",)
    read_only = True
    #: Names the seeded data stream; workload 4 reads workload 3's graph.
    data_name = ""

    def generate(self) -> None:
        rng = random.Random(f"{self.seed}:{self.data_name or self.name}:data")
        self.triples = list(
            product_triples(rng, self.size["products"], self.size["geometries"])
        )
        self.texts = shape_texts(rng, self.size["products"])
        self.shape_of = {text: shape for shape, text in self.texts.items()}

    def sizes(self) -> Dict[str, object]:
        return {**self.size, "triples": len(self.triples),
                "distinct_texts": len(self.shape_of), "plan_cache_entries": 256}

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def make_backend(self, state: SparqlState, obs) -> Backend:
        return StoreBackend(state.store)

    def setup(self, rec: Optional[Recorder], obs) -> SparqlState:
        state = SparqlState()
        state.rec = rec
        state.store = store = GeoStore(plan_cache=PlanCache(obs=obs))
        started = time.perf_counter()
        store.bulk_load(self.triples)
        state.bulk_load_s = time.perf_counter() - started
        state.backend = backend = self.make_backend(state, obs)
        if rec is not None:
            backend = TracedBackend(backend, rec)
        state.gateway = gateway = Gateway(
            backend,
            clock=time.perf_counter,
            admission=AdmissionController(max_in_flight=4096, max_queue=4096, obs=obs),
            coalesce=True,
            budget_policy=BudgetPolicy(max_rows=10**9, max_seconds=3600.0),
            obs=obs,
        )
        for name, weight in TENANTS:
            gateway.register_tenant(
                TenantConfig(name=name, api_key=f"key-{name}", weight=weight)
            )
        state.keys = [f"key-{name}" for name, _ in TENANTS]
        state.tenant_weights = [weight for _, weight in TENANTS]
        self.bind(state, rec)
        self.warm(state)
        state.cache_before = store.plan_cache.stats
        state.executions_before = gateway.executions
        state.coalesced_before = self.coalesced(state)
        state.requests = state.depth_max = 0
        state.results.clear()
        state.rows.clear()
        state.counts.clear()
        state.replay_cache = PlanCache()
        state.reference_left = {shape: REFERENCE_PER_SHAPE for shape in SHAPES}
        if rec is not None:
            rec.reset()  # warm-up spans are not the workload's
        return state

    def bind(self, state: SparqlState, rec: Optional[Recorder]) -> None:
        """Pick the plain or the span-wrapped callables for the op loop."""
        gateway = state.gateway
        state.query = gateway.query
        state.read = self.do_read
        if rec is not None:
            state.query = rec.wrap("serving.gateway", gateway.query)
            state.read = rec.wrap("op.read", self.do_read)

    def warm(self, state: SparqlState) -> None:
        """One untimed pass over every distinct text: a user of a running
        service does not pay codec fill and first compile on each request."""
        for text in self.texts.values():
            self.do_read(state, state.keys[0], text)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def do_read(self, state: SparqlState, key: str, text: str):
        try:
            return state.query(key, text, kind="sparql", options=VECTOR)
        except Exception as error:  # the op loop must outlive a failed request
            state.note_failure(error)
            return None

    def record(self, state: SparqlState, text: str, result) -> None:
        """Keep the answer for the oracle; row counts must not drift."""
        state.requests += 1
        state.counts[text] = state.counts.get(text, 0) + 1
        if result is None:
            return
        state.results[text] = result
        if self.read_only and state.rows.setdefault(text, len(result)) != len(result):
            state.failed += 1

    def prepare_round(self, state: SparqlState, index: int):
        rng = random.Random(f"{self.seed}:{self.name}:round{index}")
        ops = []
        per_round = self.size["cycles_per_round"] * len(self.cycle)
        for position in range(per_round):
            number = index * per_round + position
            ops.append((
                self.cycle[position % len(self.cycle)],
                rng.choices(state.keys, state.tenant_weights)[0],
                number % REPLAY_EVERY == self.seed % REPLAY_EVERY,
            ))
        return ops

    def run_round(self, state: SparqlState, ops, latencies: List[float]) -> int:
        texts, read, now = self.texts, state.read, time.perf_counter
        traced = state.rec is not None
        for shape, key, sampled in ops:
            text = texts[shape]
            started = now()
            result = read(state, key, text)
            elapsed_ms = (now() - started) * 1e3
            latencies.append(elapsed_ms)
            self.record(state, text, result)
            if traced:
                self.after_traced_read(state, text, shape, elapsed_ms, sampled)
        return len(ops)

    def finish(self, state: SparqlState, latencies: List[float]) -> int:
        try:
            state.gateway.assert_drained()
        except Exception as error:
            state.violations.append(f"gateway not drained: {error}")
        return 0

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------

    def expected(self, state: SparqlState, text: str) -> List:
        """The interpreted engine, run directly on the graph (no caches, no
        spatial rewrite): the reference every answer is compared against."""
        answer = canonical(
            evaluate(state.store.graph, text, state.store.registry)
        )
        state.checks += 1
        if self.corrupt_oracle and not state.corrupted:
            state.corrupted = True
            answer = answer + [[("corrupted", "oracle")]]
        return answer

    def oracle_texts(self, state: SparqlState) -> List[str]:
        return list(state.results)

    def verify(self, state: SparqlState) -> None:
        for text in self.oracle_texts(state):
            if canonical(state.results[text]) != self.expected(state, text):
                state.failed += state.counts[text]

    # ------------------------------------------------------------------
    # Traced run: staged replay and layer metrics
    # ------------------------------------------------------------------

    def after_traced_read(self, state: SparqlState, text: str, shape: str,
                          elapsed_ms: float, sampled: bool) -> None:
        if sampled:
            self.replay(state, text, shape, elapsed_ms)

    def replay(self, state: SparqlState, text: str, shape: str,
               request_ms: float) -> None:
        """``store.query`` cannot be split from outside, so a sampled request
        is replayed stage by stage as sibling spans (excluded from timing)."""
        rec, store = state.rec, state.store
        graph = store.graph
        state.sampled.append(text)
        samples = state.replays
        with state.pause, rec.span("op.replay"):
            with rec.span("sparql.parser"):
                ast = parse_query(text)
            with rec.span("sparql.algebra"):
                compiled = compile_vector_plan(ast.where, graph, VECTOR)
            # The production plan (spatial rewrite included) comes out of a
            # bench-owned plan cache swapped in for one uncached query, so
            # the store's own cache statistics stay those of the workload.
            production, store.plan_cache = store.plan_cache, state.replay_cache
            try:
                state.replay_cache.clear()
                spatial_before = store.stats
                started = time.perf_counter()
                store.query(text, options=VECTOR)
                uncached_ms = (time.perf_counter() - started) * 1e3
                spatial_after = store.stats
                tree = state.replay_cache.plan(
                    store, text, VECTOR, graph.version, lambda: compiled
                )
                if state.reference_left.get(shape, 0) > 0:
                    state.reference_left[shape] -= 1
                    with rec.span("sparql.evaluator.reference"):
                        store.query(text)
            finally:
                store.plan_cache = production
            # The same tree without and with a (non-binding) budget, run
            # plain-governed-governed-plain; the quicker run of each side
            # counts, so neither warm-up nor a stray pause tilts the ratio.
            with rec.span("sparql.vector"):
                plain_s, rows, ctx = self.execute(state, ast, tree, None)
            budget = QueryBudget(max_rows=10**12)
            governed_s = min(
                self.execute(state, ast, tree, budget)[0],
                self.execute(state, ast, tree, QueryBudget(max_rows=10**12))[0],
            )
            plain_s = min(plain_s, self.execute(state, ast, tree, None)[0])
            samples["exec_ms"].append(1e3 * plain_s)
            samples[f"exec_ms.{shape}"].append(1e3 * plain_s)
            samples["governed_ms"].append(1e3 * governed_s)
            samples["rows"].append(len(rows))
            samples["fallback_ops"].append(ctx.fallback_ops)
            samples["checkpoints"].append(budget.checkpoints)
            samples["uncached_ms"].append(uncached_ms)
            samples["request_ms"].append(request_ms)
            if shape == "spatial":
                samples["spatial_ms"].append(uncached_ms)
                samples["candidates"].append(
                    spatial_after["candidates_examined"]
                    - spatial_before["candidates_examined"]
                )
            self.replay_extra(state, tree, samples)

    @staticmethod
    def execute(state: SparqlState, ast, tree, budget):
        """``execute_tree`` + ``finish_select`` on a pre-compiled tree."""
        store = state.store
        started = time.perf_counter()
        batch, ctx = execute_tree(tree, store.graph, store.registry, budget=budget)
        rows = finish_select(ast, batch, ctx)
        return time.perf_counter() - started, rows, ctx

    def replay_extra(self, state: SparqlState, tree, samples) -> None:
        """Hook for the distributed workload's planning stage."""

    def overhead_ratio(self, state: SparqlState) -> float:
        """All-on ``Gateway.query`` over the direct backend call, both warm,
        on the distinct sampled texts. Run after the pass: three alternating
        pairs per text, the quickest call of each side counts."""
        gateway, backend, key = state.gateway, state.backend, state.keys[0]
        calls = {
            "gateway": lambda text: gateway.query(key, text, kind="sparql",
                                                  options=VECTOR),
            "direct": lambda text: backend.execute(text, options=VECTOR),
        }
        totals = {"gateway": 0.0, "direct": 0.0}
        for text in list(dict.fromkeys(state.sampled))[:200]:
            best = {"gateway": float("inf"), "direct": float("inf")}
            for attempt in range(3):
                for side in (("gateway", "direct") if attempt % 2 else
                             ("direct", "gateway")):
                    started = time.perf_counter()
                    calls[side](text)
                    best[side] = min(best[side], time.perf_counter() - started)
            for side in totals:
                totals[side] += best[side]
        return stats.ratio(totals["gateway"], totals["direct"])

    @staticmethod
    def coalesced(state: SparqlState) -> int:
        return sum(s.coalesced for s in state.gateway.tenants.sessions.values())

    def layers(self, state: SparqlState, rec: Recorder, obs) -> Dict[str, float]:
        cache = state.store.plan_cache.stats
        executions = state.gateway.executions - state.executions_before
        coalesced = self.coalesced(state) - state.coalesced_before
        requests = state.requests or 1

        def delta(tier: str, field: str) -> int:
            return cache[tier][field] - state.cache_before[tier][field]

        def hit_rate(tier: str) -> float:
            return stats.ratio(
                delta(tier, "hits"), delta(tier, "hits") + delta(tier, "misses")
            )

        replays = state.replays
        rows_total = sum(replays["rows"])
        checkpoints = _counter_total(obs, "governor.checkpoints")
        governed = _counter_total(obs, "governor.queries")
        measured = {
            "serving.self_ms_per_req": 1e3 * rec.self_s("serving.gateway") / requests,
            "serving.coalesced_share": coalesced / requests,
            "serving.executions_per_req": executions / requests,
            "serving.queue_depth_max": max(state.depth_max, 1),
            "cache.plan_hit_rate": hit_rate("plans"),
            "cache.parse_hit_rate": hit_rate("parses"),
            "cache.plan_evictions": delta("plans", "evictions"),
            "sparql.parser.ms_per_query": rec.mean_ms("sparql.parser"),
            "sparql.algebra.compile_ms_per_query": rec.mean_ms("sparql.algebra"),
            "sparql.vector.exec_ms_per_query": stats.mean(replays["exec_ms"]),
            "sparql.vector.us_per_result_row": stats.ratio(
                1e3 * sum(replays["exec_ms"]), rows_total
            ),
            "sparql.vector.rows_out_per_query": stats.mean(replays["rows"]),
            "sparql.vector.fallback_ops": sum(replays["fallback_ops"]),
            "sparql.vector.first_read_after_write_ms": stats.mean(state.after_write_ms),
            "sparql.vector.steady_read_ms": stats.mean(state.steady_ms),
            "sparql.evaluator.ref_ms_per_query": rec.mean_ms("sparql.evaluator.reference"),
            "sparql.governor.overhead_ratio": stats.ratio(
                sum(replays["governed_ms"]), sum(replays["exec_ms"])
            ),
            "sparql.governor.checkpoints_per_query": stats.ratio(checkpoints, governed),
            "rdf.bulk_load_triples_per_s": len(self.triples) / state.bulk_load_s,
            "geosparql.candidates_per_spatial_query": stats.mean(
                replays["candidates"]
            ),
            "geosparql.spatial_query_ms": stats.mean(replays["spatial_ms"]),
        }
        for shape in SHAPES:
            measured[f"sparql.vector.exec_ms_by_shape.{shape}"] = stats.mean(
                replays[f"exec_ms.{shape}"]
            )
        # Last: these extra requests must not reach the counters read above.
        measured["serving.allon_overhead_ratio"] = self.overhead_ratio(state)
        return measured


def _counter_total(obs, name: str) -> float:
    """Sum of one counter over all its label sets in an obs registry."""
    return sum(
        record["value"]
        for record in obs.metrics.snapshot()["counters"]
        if record["name"] == name
    )


# ---------------------------------------------------------------------------
# 1. sparql_small_burst
# ---------------------------------------------------------------------------

class SmallBurst(SparqlWorkload):
    """Bursts of 16 requests over a text pool larger than the plan cache."""

    name = "sparql_small_burst"
    rounds_per_second = 4.0  # short rounds: more chances of a quiet quartile
    FULL = {"products": 500, "geometries": 400, "texts_per_template": 500,
            "burst": 16, "bursts_per_round": 10}
    SMOKE = {"products": 150, "geometries": 100, "texts_per_template": 50,
             "burst": 16, "bursts_per_round": 6}
    #: Query-text skew: low enough that the 256 hottest texts draw about
    #: half of the requests (the plan cache must miss), high enough that a
    #: burst of 16 regularly holds duplicates for the coalescer.
    ZIPF_S = 0.75
    templates = ("join5", "lookup", "group", "spatial")

    def generate(self) -> None:
        rng = random.Random(f"{self.seed}:{self.name}:data")
        products, count = self.size["products"], self.size["texts_per_template"]
        self.triples = list(product_triples(rng, products, self.size["geometries"]))
        # Constants vary the text, not the work: thresholds stay within one
        # tenth of the price range, boxes keep one size.
        makers = {
            "join5": lambda i: join5_text(round(700 + 100 * i / count, 1)),
            "lookup": lambda i: lookup_text(i % products),
            "group": lambda i: PREFIX + (
                "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?p ex:supplier ?s . "
                f"?p ex:price ?v . FILTER(?v < {round(500 + 100 * i / count, 1)}) }} "
                "GROUP BY ?s"
            ),
            "spatial": lambda i: spatial_text(
                round(rng.uniform(0.0, EXTENT - 15.0), 3),
                round(rng.uniform(0.0, EXTENT - 15.0), 3), 15.0,
            ),
        }
        per_template = {}
        for template in self.templates:
            texts = [makers[template](i) for i in range(count)]
            rng.shuffle(texts)
            per_template[template] = texts
        # Popularity rank k holds template k mod 4, so every template gets
        # the same share of the skewed traffic whatever the seed.
        self.pool = [
            per_template[self.templates[rank % 4]][rank // 4]
            for rank in range(4 * count)
        ]
        self.shape_of = {
            text: self.templates[rank % 4] for rank, text in enumerate(self.pool)
        }
        self.pool_rank = {text: rank for rank, text in enumerate(self.pool)}
        self.cum_weights = []
        running = 0.0
        for weight in zipf_weights(len(self.pool), self.ZIPF_S):
            running += weight
            self.cum_weights.append(running)
        self.texts = {template: per_template[template][0] for template in self.templates}

    def sizes(self) -> Dict[str, object]:
        return {**super().sizes(), "zipf_s": self.ZIPF_S}

    def bind(self, state: SparqlState, rec: Optional[Recorder]) -> None:
        super().bind(state, rec)
        gateway = state.gateway
        state.submit, state.execute = gateway.submit, gateway.execute
        state.do_burst = self.do_burst
        if rec is not None:
            state.submit = rec.wrap("serving.gateway", gateway.submit)
            state.execute = rec.wrap("serving.gateway", gateway.execute)
            state.do_burst = rec.wrap("op.burst", self.do_burst)

    def warm(self, state: SparqlState) -> None:
        super().warm(state)
        for burst in self.prepare_round(state, -1)[:4]:
            self.do_burst(state, burst, [])

    def prepare_round(self, state: SparqlState, index: int):
        rng = random.Random(f"{self.seed}:{self.name}:round{index}")
        size = self.size["burst"]
        bursts = []
        for _ in range(self.size["bursts_per_round"]):
            texts = rng.choices(self.pool, cum_weights=self.cum_weights, k=size)
            keys = rng.choices(state.keys, state.tenant_weights, k=size)
            bursts.append(list(zip(keys, texts)))
        return bursts

    def do_burst(self, state: SparqlState, burst, latencies: List[float]) -> None:
        """All 16 arrive at once, then the queue drains in weighted-fair
        order; a request's latency runs from its burst's arrival."""
        gateway, now = state.gateway, time.perf_counter
        arrived = now()
        for key, text in burst:
            try:
                state.submit(GatewayRequest(key, text, kind="sparql", options=VECTOR))
            except Exception as error:  # a refused request is a failed op
                state.note_failure(error)
                latencies.append((now() - arrived) * 1e3)
        depth = len(gateway.queue)
        if depth > state.depth_max:
            state.depth_max = depth
        while True:
            entry = gateway.next_dispatch()
            if entry is None:
                break
            settled = state.execute(entry)
            elapsed_ms = (now() - arrived) * 1e3
            for member in settled:
                latencies.append(elapsed_ms)
                if member.error is not None:
                    state.note_failure(member.error)
                self.record(state, member.query, member.result)

    def run_round(self, state: SparqlState, bursts, latencies: List[float]) -> int:
        traced = state.rec is not None
        do_burst = state.do_burst
        for burst in bursts:
            do_burst(state, burst, latencies)
            if traced:
                for offset, (_, text) in enumerate(burst):
                    number = state.requests - len(burst) + offset
                    if number % REPLAY_EVERY == self.seed % REPLAY_EVERY:
                        self.replay(state, text, self.shape_of[text], 0.0)
        return sum(len(burst) for burst in bursts)

    def oracle_texts(self, state: SparqlState) -> List[str]:
        """A seeded tenth of the distinct texts requested (2000 interpreted
        runs would cost more than the timed pass)."""
        return [text for text in state.results
                if self.pool_rank.get(text, 0) % 10 == self.seed % 10]


# ---------------------------------------------------------------------------
# 2. sparql_large_read
# ---------------------------------------------------------------------------

class LargeRead(SparqlWorkload):
    name = "sparql_large_read"
    #: Loading 120k triples takes seconds, long enough that one measurement
    #: is steady; only the sub-second set-ups are repeated within a run.
    setup_repeats = 1
    FULL = {"products": 30_000, "geometries": 2_000, "cycles_per_round": 5}
    SMOKE = {"products": 600, "geometries": 100, "cycles_per_round": 2}


# ---------------------------------------------------------------------------
# 3. sparql_write_read
# ---------------------------------------------------------------------------

class WriteRead(SparqlWorkload):
    """Workload 2's shapes with a write batch as every fifth operation."""

    name = "sparql_write_read"
    read_only = False
    FULL = {"products": 12_500, "geometries": 1_000, "ops_per_round": 100,
            "oracle_every": 40}
    SMOKE = {"products": 400, "geometries": 60, "ops_per_round": 20,
             "oracle_every": 5}
    BATCH_PRODUCTS = 2  #: 2 products x 5 triples = the 10 ``store.add`` calls

    def bind(self, state: SparqlState, rec: Optional[Recorder]) -> None:
        super().bind(state, rec)
        state.write = self.do_write
        state.batches = []  #: added and not yet removed, oldest first
        state.add_s = state.remove_s = 0.0
        state.added = state.removed = 0
        if rec is not None:
            state.write = rec.wrap("op.write", self.do_write)

    def prepare_round(self, state: SparqlState, index: int):
        rng = random.Random(f"{self.seed}:{self.name}:round{index}")
        ops = []
        for position in range(self.size["ops_per_round"]):
            number = index * self.size["ops_per_round"] + position
            if number % 5 == 4:
                batch = number // 5
                triples = []
                for j in range(self.BATCH_PRODUCTS):
                    name = f"wprod{batch}_{j}"
                    triples.extend(product_rows(
                        name, rng.randrange(CATEGORIES), rng.randrange(SUPPLIERS), rng
                    ))
                    triples.append((EX[name], GEO.asWKT, point_literal(
                        rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT)
                    )))
                ops.append(("write", triples, batch % 4 == 3))
            else:
                read = number - number // 5
                ops.append((
                    "read",
                    self.cycle[read % len(self.cycle)],
                    rng.choices(state.keys, state.tenant_weights)[0],
                    read % self.size["oracle_every"] == 0,
                    read % REPLAY_EVERY == self.seed % REPLAY_EVERY,
                ))
        return ops

    def do_write(self, state: SparqlState, triples, remove_oldest: bool) -> None:
        store, now = state.store, time.perf_counter
        try:
            started = now()
            for triple in triples:
                store.add(*triple)
            state.add_s += now() - started
            state.added += len(triples)
            state.batches.append(triples)
            if remove_oldest:
                doomed = state.batches.pop(0)
                started = now()
                for triple in doomed:
                    store.graph.remove(*triple)
                state.remove_s += now() - started
                state.removed += len(doomed)
        except Exception as error:
            state.note_failure(error)

    def run_round(self, state: SparqlState, ops, latencies: List[float]) -> int:
        texts, now = self.texts, time.perf_counter
        traced = state.rec is not None
        after_write = False
        for op in ops:
            if op[0] == "write":
                state.write(state, op[1], op[2])
                after_write = True
                continue
            _, shape, key, check, sampled = op
            text = texts[shape]
            started = now()
            result = state.read(state, key, text)
            elapsed_ms = (now() - started) * 1e3
            latencies.append(elapsed_ms)
            self.record(state, text, result)
            (state.after_write_ms if after_write else state.steady_ms).append(elapsed_ms)
            after_write = False
            if check and result is not None:
                # The graph moves on with the next write, so the answer is
                # checked now, with the round's clock stopped.
                with state.pause:
                    if canonical(result) != self.expected(state, text):
                        state.failed += 1
            if traced and sampled:
                self.replay(state, text, shape, elapsed_ms)
        return len(ops)

    def verify(self, state: SparqlState) -> None:
        """Answers were checked in flight; nothing is left to compare."""

    def layers(self, state: SparqlState, rec: Recorder, obs) -> Dict[str, float]:
        measured = super().layers(state, rec, obs)
        measured["rdf.add_us_per_triple"] = stats.ratio(1e6 * state.add_s, state.added)
        measured["rdf.remove_us_per_triple"] = stats.ratio(
            1e6 * state.remove_s, state.removed
        )
        return measured


# ---------------------------------------------------------------------------
# 4. sparql_dist
# ---------------------------------------------------------------------------

class Dist(SparqlWorkload):
    """The workload-3 graph, read-only, behind the distributed engine."""

    name = "sparql_dist"
    data_name = "sparql_write_read"
    FULL = {"products": 12_500, "geometries": 1_000, "cycles_per_round": 7,
            "partitions": 8, "replication": 2}
    SMOKE = {"products": 400, "geometries": 60, "cycles_per_round": 2,
             "partitions": 4, "replication": 2}
    #: The four non-spatial, non-OPTIONAL shapes plus the OPTIONAL one. Five
    #: slots: the median falls inside the third.
    cycle = ("join5", "group", "topk", "lookup", "optional")

    def generate(self) -> None:
        super().generate()
        self.texts = {shape: self.texts[shape] for shape in self.cycle}
        self.shape_of = {text: shape for shape, text in self.texts.items()}

    def make_backend(self, state: SparqlState, obs) -> Backend:
        graph = state.store.graph
        state.runtime = DistRuntime(
            graph, partitions=self.size["partitions"],
            replication=self.size["replication"], obs=obs,
        )
        return DistBackend(graph, state.runtime, registry=state.store.registry)

    def after_traced_read(self, state: SparqlState, text: str, shape: str,
                          elapsed_ms: float, sampled: bool) -> None:
        state.dist_reports.append(state.runtime.last_report)
        super().after_traced_read(state, text, shape, elapsed_ms, sampled)

    def replay_extra(self, state: SparqlState, tree, samples) -> None:
        runtime = state.runtime
        with state.rec.span("sparql.dist.plan"):
            build_plan(tree, state.store.graph,
                       runtime.broadcast_threshold_rows, runtime.shuffle_buckets)

    def layers(self, state: SparqlState, rec: Recorder, obs) -> Dict[str, float]:
        measured = super().layers(state, rec, obs)
        reports = state.dist_reports
        replays = state.replays
        measured.update({
            "sparql.dist.plan_ms_per_query": rec.mean_ms("sparql.dist.plan"),
            "sparql.dist.tasks_per_query": stats.mean(
                [r.tasks_completed for r in reports]),
            "sparql.dist.comm_bytes_per_query": stats.mean(
                [r.bytes_transferred for r in reports]),
            "sparql.dist.locality_rate": stats.mean([r.locality_rate for r in reports]),
            "sparql.dist.makespan_ms_sim": stats.mean(
                [1e3 * r.makespan_s for r in reports]),
            # The sampled requests on the plain vector engine, parse and
            # compile included (the dist backend has no plan cache either).
            "sparql.dist.wall_vs_vector_ratio": stats.ratio(
                sum(replays["request_ms"]), sum(replays["uncached_ms"])
            ),
        })
        return measured
