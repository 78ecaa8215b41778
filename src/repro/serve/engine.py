"""Placement-query engine: typed requests against one compiled artifact.

:class:`QueryEngine` answers four request kinds against a
:class:`~repro.serve.artifacts.ScenarioArtifact`:

* ``place`` — run a registered placement algorithm for a budget ``k``;
* ``evaluate`` — score one or more explicit placements
  (:func:`~repro.core.kernel.evaluate_placement_many`);
* ``what_if`` — marginal effect of adding/removing one site to/from a
  placement (one batched evaluation of base + variant);
* ``top_gains`` — the best next intersections given a committed
  placement, ranked by marginal gain.

The engine is deliberately a **thin veneer**: every number it returns
comes from the same library calls a direct user would make
(``algorithm.place``, ``evaluate_placement_many``, evaluator gain
scans), so served results are bit-identical to library results — the
differential tests in ``tests/serve`` pin exactly that, and check both
against the reference evaluator.

Requests may override the artifact's utility (``{"utility": {"name",
"threshold"}}``); the engine keeps the
:meth:`~repro.core.scenario.Scenario.with_utility` clones of the
:data:`UTILITY_CLONES` utilities used last, so the kernel's
per-scenario static cache is reused across requests without every
utility ever asked for pinning its own.  Responses for identical
requests are served from a bounded LRU keyed by the canonical request
JSON, with hit/miss counters wired into :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..algorithms import algorithm_by_name, registered_algorithms
from ..core.kernel import ArrayEvaluator, _check_sites, evaluate_placement_many
from ..core.scenario import Scenario
from ..errors import ReproError, ServeFaultError, ServeRequestError
from ..graphs import NodeId
from ..graphs.io import _decode_id, _encode_id
from ..reliability.faults import FaultInjector
from .artifacts import ScenarioArtifact, utility_from_spec, utility_to_spec

#: Request kinds the engine understands.
REQUEST_KINDS = ("place", "evaluate", "what_if", "top_gains")

#: Algorithms with a stochastic or exponential-time select are still
#: callable, but ``place`` requests must opt in explicitly.
_DEFAULT_ALGORITHM = "composite-greedy"

#: Utility-override clones kept (LRU): each pins kernel state sized like the pack.
UTILITY_CLONES = 8


def decode_site(raw: object) -> NodeId:
    """Decode one JSON-carried intersection id (lists become tuples)."""
    return _decode_id(raw)


def encode_site(site: NodeId) -> object:
    """Encode one intersection id for a JSON response."""
    return _encode_id(site)


def _decode_placement(raw: object, field: str) -> List[NodeId]:
    if not isinstance(raw, (list, tuple)):
        raise ServeRequestError(
            f"request field {field!r} must be a list of sites, got "
            f"{type(raw).__name__}"
        )
    return [_decode_id(site) for site in raw]


class QueryEngine:
    """Synchronous query dispatcher over one compiled scenario artifact.

    Parameters
    ----------
    artifact:
        The compiled scenario to serve.
    cache_size:
        Maximum retained responses in the per-engine LRU (0 disables
        result caching).  Every request kind enters it, so one-off
        evaluates push older replies out; the default keeps a ``place``
        reply that recurs every few hundred requests cached among them.
    fault_injector:
        Optional :class:`~repro.reliability.FaultInjector`; its
        request-level rates drive :meth:`check_fault`.
    """

    def __init__(
        self,
        artifact: ScenarioArtifact,
        cache_size: int = 1024,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if cache_size < 0:
            raise ServeRequestError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        self._artifact = artifact
        self._cache_size = cache_size
        self._cache: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._injector = fault_injector
        self._request_index = 0
        self._last_fault_index = -1
        self._utilities: Dict[Tuple[str, float], Scenario] = {}
        # Import now what the four kinds run with default arguments (the
        # default algorithm's module brings the greedy loop and the
        # kernel), so that no request pays for an import.
        algorithm_by_name(_DEFAULT_ALGORITHM)

    @property
    def artifact(self) -> ScenarioArtifact:
        """The artifact this engine serves."""
        return self._artifact

    @property
    def scenario(self) -> Scenario:
        """The artifact's scenario (default utility)."""
        return self._artifact.scenario

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def check_fault(self) -> float:
        """Fault decision for the next admitted request.

        Returns the injected stall in seconds (0.0 normally); raises
        :class:`~repro.errors.ServeFaultError` when the injector decides
        this request fails.  The caller (the HTTP server) applies the
        stall asynchronously before dispatching to :meth:`handle`.
        """
        index = self._request_index
        self._request_index += 1
        self._last_fault_index = index
        if self._injector is None:
            return 0.0
        fail, delay = self._injector.request_fault(index)
        if fail:
            raise ServeFaultError(
                f"injected fault on request #{index}"
            )
        return delay

    def corrupt_reply(self) -> bool:
        """Whether the reply to the last :meth:`check_fault` request is garbled.

        Consulted by the HTTP server *after* the handler ran, so the
        corruption models a reply mangled in flight (the engine's own
        result stays correct); keyed to the same request index as
        :meth:`check_fault`, so a replayed request replays its fate.
        """
        if self._injector is None or self._last_fault_index < 0:
            return False
        return self._injector.request_corrupt(self._last_fault_index)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one request dict (the JSON body of ``POST /query``).

        The call is an ``engine.handle`` span (:func:`repro.obs.span`):
        under a request trace it lands below the worker's request span,
        with the kernel counters of the work and the algorithm's
        ``select`` span below it; untraced and unprofiled it costs the
        hooks' no-op.
        """
        with obs.span("engine.handle") as span:
            if span is None:
                return self._handle(request)
            if isinstance(request, dict):
                span.attrs["kind"] = str(request.get("kind"))
            try:
                response = self._handle(request)
            except ReproError as error:
                span.attrs["status"] = type(error).__name__
                raise
            span.attrs["status"] = "ok"
            return response

    def _handle(self, request: Dict[str, object]) -> Dict[str, object]:
        if not isinstance(request, dict):
            raise ServeRequestError("request body must be a JSON object")
        kind = request.get("kind")
        if kind not in REQUEST_KINDS:
            raise ServeRequestError(
                f"unknown request kind {kind!r}; expected one of "
                f"{REQUEST_KINDS}"
            )
        obs.count(f"serve.requests.{kind}")
        key = self._cache_key(request)
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                obs.count("serve.cache.hits")
                return dict(cached)
            obs.count("serve.cache.misses")
        handler = getattr(self, f"_handle_{kind}")
        response: Dict[str, object] = handler(request)
        response["kind"] = kind
        response["digest"] = self._artifact.digest
        if key is not None:
            self._cache[key] = dict(response)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return response

    def _cache_key(self, request: Dict[str, object]) -> Optional[str]:
        if self._cache_size == 0:
            return None
        try:
            return json.dumps(
                request, sort_keys=True, separators=(",", ":")
            )
        except (TypeError, ValueError):
            raise ServeRequestError(
                "request is not JSON-serializable"
            ) from None

    # ------------------------------------------------------------------
    # per-request scenario (utility overrides)
    # ------------------------------------------------------------------
    def scenario_for(self, request: Dict[str, object]) -> Scenario:
        """The scenario a request runs against (utility override aware)."""
        raw = request.get("utility")
        if raw is None:
            return self._artifact.scenario
        if not isinstance(raw, dict):
            raise ServeRequestError(
                f"request field 'utility' must be an object, got "
                f"{type(raw).__name__}"
            )
        try:
            utility = utility_from_spec(raw)
        except ReproError as error:
            raise ServeRequestError(str(error)) from None
        key = (type(utility).__name__, utility.threshold)
        clone = self._utilities.pop(key, None)
        if clone is None:
            clone = self._artifact.scenario.with_utility(utility)
            obs.count("serve.utility_clones")
        self._utilities[key] = clone  # re-inserted: dicts keep use order
        if len(self._utilities) > UTILITY_CLONES:
            del self._utilities[next(iter(self._utilities))]
        return clone

    # ------------------------------------------------------------------
    # request kinds
    # ------------------------------------------------------------------
    def _handle_place(self, request: Dict[str, object]) -> Dict[str, object]:
        scenario = self.scenario_for(request)
        name = request.get("algorithm", _DEFAULT_ALGORITHM)
        if not isinstance(name, str):
            raise ServeRequestError("request field 'algorithm' must be a string")
        k = request.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ServeRequestError(
                f"request field 'k' must be a non-negative integer, got {k!r}"
            )
        kwargs: Dict[str, object] = {}
        seed = request.get("seed")
        if seed is not None:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ServeRequestError("request field 'seed' must be an integer")
            kwargs["seed"] = seed
        try:
            algorithm = algorithm_by_name(name, **kwargs)
        except TypeError as error:
            raise ServeRequestError(
                f"algorithm {name!r} does not accept "
                f"{sorted(kwargs)}: {error}"
            ) from None
        except ReproError as error:
            raise ServeRequestError(
                f"{error}; known algorithms: {list(registered_algorithms())}"
            ) from None
        try:
            placement = algorithm.place(scenario, k)
        except ReproError as error:
            raise ServeRequestError(str(error)) from None
        return {
            "raps": [encode_site(site) for site in placement.raps],
            "attracted": placement.attracted,
            "algorithm": placement.algorithm,
            "utility": utility_to_spec(scenario.utility),
        }

    def evaluate_totals(
        self,
        placements: Sequence[Sequence[NodeId]],
        utility: Optional[Dict[str, object]] = None,
    ) -> List[float]:
        """Score placements verbatim via ``evaluate_placement_many``.

        The shared scoring call of the ``evaluate`` and ``what_if``
        request kinds: one packed-index batch call with no result
        caching (:meth:`handle` caches whole replies).
        """
        request: Dict[str, object] = {"kind": "evaluate"}
        if utility is not None:
            request["utility"] = utility
        scenario = self.scenario_for(request)
        try:
            return evaluate_placement_many(scenario, placements)
        except ReproError as error:
            raise ServeRequestError(str(error)) from None

    def _handle_evaluate(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        raw = request.get("placements")
        if not isinstance(raw, list) or not raw:
            raise ServeRequestError(
                "request field 'placements' must be a non-empty list of "
                "site lists"
            )
        placements = [
            _decode_placement(entry, f"placements[{index}]")
            for index, entry in enumerate(raw)
        ]
        totals = self.evaluate_totals(
            placements,
            utility=request.get("utility"),  # type: ignore[arg-type]
        )
        return {"totals": totals}

    def _handle_what_if(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        base = _decode_placement(request.get("placement"), "placement")
        add = request.get("add")
        remove = request.get("remove")
        if (add is None) == (remove is None):
            raise ServeRequestError(
                "what_if needs exactly one of 'add' or 'remove'"
            )
        if add is not None:
            site = decode_site(add)
            if site in base:
                raise ServeRequestError(
                    f"site {site!r} is already in the placement"
                )
            variant = base + [site]
        else:
            site = decode_site(remove)
            if site not in base:
                raise ServeRequestError(
                    f"site {site!r} is not in the placement"
                )
            variant = [node for node in base if node != site]
        totals = self.evaluate_totals(
            [base, variant],
            utility=request.get("utility"),  # type: ignore[arg-type]
        )
        return {
            "site": encode_site(site),
            "action": "add" if add is not None else "remove",
            "base": totals[0],
            "variant": totals[1],
            "delta": totals[1] - totals[0],
        }

    def _handle_top_gains(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        scenario = self.scenario_for(request)
        placed = _decode_placement(request.get("placement", []), "placement")
        limit = request.get("limit", 10)
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ServeRequestError(
                f"request field 'limit' must be a positive integer, got "
                f"{limit!r}"
            )
        try:
            _check_sites(scenario, placed)
        except ReproError as error:
            raise ServeRequestError(str(error)) from None
        evaluator = ArrayEvaluator(scenario)
        for site in placed:
            evaluator.place(site)
        sites = scenario.candidate_sites
        gains = evaluator.gains(sites).tolist()
        ranked = sorted(
            (
                (order, site, gain)
                for order, (site, gain) in enumerate(zip(sites, gains))
                if gain > 0.0 and not evaluator.is_placed(site)
            ),
            # Candidate-site order breaks gain ties, matching the greedy
            # scans' deterministic argmax.
            key=lambda item: (-item[2], item[0]),
        )
        return {
            "gains": [
                {"site": encode_site(site), "gain": gain}
                for _, site, gain in ranked[:limit]
            ],
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Current LRU occupancy (for ``/healthz`` and tests)."""
        return {"entries": len(self._cache), "capacity": self._cache_size}


__all__ = [
    "QueryEngine",
    "REQUEST_KINDS",
    "UTILITY_CLONES",
    "decode_site",
    "encode_site",
]
