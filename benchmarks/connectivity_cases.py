"""Shared fleet scenarios and cases for the connectivity benchmarks.

Used by ``test_bench_connectivity.py`` (pytest harness) and ``run.py`` (the
JSON-writing bench helper) so both measure exactly the same cases:

* ``check_ingress`` -- single policy decisions, naive scan vs compiled index;
* ``reachable_endpoints`` -- the full lateral-movement surface of one source
  pod, pre-PR per-attempt path vs the cached ``ReachabilityMatrix``;
* ``matrix_sources`` -- many sources sharing one matrix (the all-pairs use
  case), where the decision memo amortizes across sources.  Two arms:
  per-source naive scans, and the bitset-vectorized engine sharing an
  epoch-keyed :class:`EndpointUniverse` cache exactly as the cluster facade
  does.

Fleets are built directly from runtime primitives (no full cluster install)
so a thousand-pod case sets up in milliseconds and the timings isolate the
connectivity engine itself.  The 10k/50k fleets used by the ``slow``
benchmarks skip the per-service selector scan during setup (bindings are
grouped by app, provably identical output) so even a 50k-pod fleet builds
in seconds.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass

from repro.cluster import (
    ClusterNetwork,
    EndpointController,
    NetworkPolicyEnforcer,
    Node,
    PolicyIndex,
    RunningPod,
    ServiceBinding,
    Socket,
)
from repro.k8s import (
    Container,
    ContainerPort,
    LabelSet,
    NetworkPolicy,
    ObjectMeta,
    Pod,
    PodSpec,
    Service,
    ServicePort,
    allow_ports_policy,
    deny_all_policy,
    equality_selector,
)
from timing import sample_ns

NAMESPACES = ("default", "prod", "staging", "infra")


@dataclass
class Fleet:
    """One synthetic cluster state: pods, services, bindings, policies."""

    pods: list[RunningPod]
    attacker: RunningPod
    policies: list[NetworkPolicy]
    bindings: list
    namespace_labels: dict[str, dict[str, str]]
    services: list[Service]

    def naive_network(self) -> ClusterNetwork:
        """The pre-PR reference engine (uncompiled per-attempt scans)."""
        return ClusterNetwork(
            enforcer=NetworkPolicyEnforcer(self.namespace_labels, use_index=False)
        )

    def compiled_network(self) -> ClusterNetwork:
        return ClusterNetwork(enforcer=NetworkPolicyEnforcer(self.namespace_labels))

    def index(self) -> PolicyIndex:
        return PolicyIndex(self.policies)


def _running_pod(
    name: str,
    namespace: str,
    labels: dict[str, str],
    node: Node,
    ip: str,
    sockets: list[Socket],
    app: str = "",
    host_network: bool = False,
) -> RunningPod:
    pod = Pod(
        metadata=ObjectMeta(name=name, namespace=namespace, labels=LabelSet(labels)),
        spec=PodSpec(
            containers=[
                Container(
                    name="main",
                    image="bench/app",
                    ports=[ContainerPort(8080, name="http")],
                )
            ],
            host_network=host_network,
        ),
    )
    return RunningPod(pod=pod, ip=ip, node=node, sockets=sockets, app=app)


def build_fleet(pod_count: int) -> Fleet:
    """A deterministic fleet of ``pod_count`` pods across apps and namespaces.

    Roughly one app per ten pods; half the apps carry an allow-port policy,
    every namespace carries a default-deny, so the decision mix contains
    default-allow, rule-allow and deny outcomes (as in the Figure 4b runs).
    """
    node = Node(name="bench-node")
    app_count = max(pod_count // 10, 4)
    namespace_labels = {
        namespace: {"kubernetes.io/metadata.name": namespace} for namespace in NAMESPACES
    }
    pods: list[RunningPod] = []
    services: list[Service] = []
    policies: list[NetworkPolicy] = []

    for app_id in range(app_count):
        namespace = NAMESPACES[app_id % len(NAMESPACES)]
        app = f"app-{app_id}"
        labels = {"app": app, "tier": "backend" if app_id % 2 else "frontend"}
        services.append(
            Service(
                metadata=ObjectMeta(name=app, namespace=namespace),
                selector=equality_selector(**labels),
                ports=[ServicePort(port=80, target_port=8080, name="http")],
            )
        )
        if app_id % 2 == 0:
            policies.append(
                allow_ports_policy(
                    f"allow-{app}",
                    equality_selector(app=app),
                    [8080],
                    namespace=namespace,
                    peer_selector=equality_selector(role="client"),
                )
            )
    for namespace in NAMESPACES[2:]:
        policies.append(deny_all_policy(f"deny-all-{namespace}", namespace=namespace))

    for pod_id in range(pod_count):
        app_id = pod_id % app_count
        namespace = NAMESPACES[app_id % len(NAMESPACES)]
        app = f"app-{app_id}"
        labels = {"app": app, "tier": "backend" if app_id % 2 else "frontend"}
        sockets = [Socket(port=8080, protocol="TCP", container="main", process="srv")]
        if pod_id % 3 == 0:
            sockets.append(
                Socket(port=9090, protocol="TCP", container="main", process="metrics")
            )
        if pod_id % 7 == 0:
            sockets.append(
                Socket(
                    port=6060,
                    protocol="TCP",
                    interface="127.0.0.1",
                    container="main",
                    process="debug",
                )
            )
        pods.append(
            _running_pod(
                f"{app}-{pod_id // app_count}",
                namespace,
                labels,
                node,
                f"10.1.{pod_id // 250}.{pod_id % 250 + 1}",
                sockets,
                app=app,
            )
        )

    attacker = _running_pod(
        "attacker",
        "default",
        {"app": "attacker", "role": "client"},
        node,
        "10.9.9.9",
        [],
    )
    pods_with_attacker = pods + [attacker]
    if pod_count > 1000:
        # ``EndpointController.bind`` scans every pod per service -- O(apps ×
        # pods) setup that would dominate the slow 10k/50k fleets.  The fleet
        # is generated one app per group, so group-by-app binding produces
        # the identical backend lists in the identical order
        # (``test_bench_check.py`` pins the equivalence at a crossover size).
        bindings = _grouped_bindings(services, pods_with_attacker)
    else:
        bindings = EndpointController().bind(services, pods_with_attacker)
    return Fleet(
        pods=pods_with_attacker,
        attacker=attacker,
        policies=policies,
        bindings=bindings,
        namespace_labels=namespace_labels,
        services=services,
    )


def _grouped_bindings(services, pods) -> list[ServiceBinding]:
    """``EndpointController.bind`` semantics for fleet-shaped inputs, O(pods).

    Pods are bucketed by ``(namespace, app label)`` in list order; each
    service's selector is then evaluated once against its app bucket's
    representative (all members share one label set by construction) instead
    of once per pod in the cluster.
    """
    by_app: dict[tuple[str, str], list[RunningPod]] = {}
    for pod in pods:
        by_app.setdefault((pod.namespace, pod.labels.get("app", "")), []).append(pod)
    bindings: list[ServiceBinding] = []
    for service in services:
        backends: list[RunningPod] = []
        if service.has_selector:
            bucket = by_app.get((service.namespace, service.name), [])
            if bucket and service.selector.matches(bucket[0].labels):
                backends = list(bucket)
        bindings.append(ServiceBinding(service=service, backends=backends))
    return bindings


def sample_attempts(fleet: Fleet, count: int = 200) -> list[tuple]:
    """A deterministic mix of (source, destination, port) attempt triples."""
    pods = fleet.pods
    attempts = []
    for i in range(count):
        source = pods[(i * 7) % len(pods)]
        destination = pods[(i * 13 + 1) % len(pods)]
        port = (8080, 9090, 6060, 22)[i % 4]
        attempts.append((source, destination, port))
    return attempts


def paired_median_ns(naive, compiled, repeats: int = 5) -> tuple[float, float]:
    """Median wall times of ``naive()`` and ``compiled()`` in ns, timed in pairs.

    Each pair runs both arms back to back, the order swapped every pair,
    with a ``gc.collect()`` before each timed run.  A slow stretch of the
    host, or garbage earlier work left for the collector, then lands on
    both arms instead of on whichever arm happened to run through it.
    """
    naive_ns, compiled_ns = sample_ns(
        [naive, compiled], repeats, alternate=True, before=gc.collect
    )
    return statistics.median(naive_ns), statistics.median(compiled_ns)


# ---------------------------------------------------------------------------
# Benchmark cases.  Each returns {case_name: ns_per_op} for one fleet size.
# ---------------------------------------------------------------------------


def bench_check_ingress(fleet: Fleet, repeats: int = 5) -> dict[str, float]:
    """Per-decision cost of check_ingress, naive scan vs compiled index."""
    attempts = sample_attempts(fleet)
    naive = fleet.naive_network().enforcer
    compiled = fleet.compiled_network().enforcer
    policies = fleet.policies
    index = fleet.index()

    def run_naive():
        for source, destination, port in attempts:
            naive.check_ingress(policies, source, destination, port)

    def run_compiled():
        for source, destination, port in attempts:
            compiled.check_ingress(index, source, destination, port)

    run_compiled()  # warm the isolating-set memo once, as in steady state
    naive_ns, compiled_ns = paired_median_ns(run_naive, run_compiled, repeats)
    return {
        "check_ingress/naive": naive_ns / len(attempts),
        "check_ingress/compiled": compiled_ns / len(attempts),
    }


def bench_reachable_endpoints(fleet: Fleet, repeats: int = 5) -> dict[str, float]:
    """Full lateral-movement surface of one source, pre-PR path vs matrix."""
    naive = fleet.naive_network()
    compiled = fleet.compiled_network()

    def run_naive():
        naive.reachable_endpoints(
            fleet.policies, fleet.attacker, fleet.pods, fleet.bindings
        )

    def run_compiled():
        compiled.reachable_endpoints(
            fleet.policies, fleet.attacker, fleet.pods, fleet.bindings
        )

    naive_ns, compiled_ns = paired_median_ns(run_naive, run_compiled, repeats)
    return {
        "reachable_endpoints/naive": naive_ns,
        "reachable_endpoints/compiled": compiled_ns,
    }


def _sources(fleet: Fleet, count: int = 16) -> list[RunningPod]:
    """``count`` sources spread evenly over the fleet."""
    return fleet.pods[:: max(len(fleet.pods) // count, 1)][:count]


def _compiled_sources_run(fleet: Fleet, sources: list[RunningPod]):
    """The bitset engine answering ``sources``: one timed run of its arm.

    Shares an epoch-keyed universe cache across matrix constructions,
    exactly as ``Cluster.reachability_matrix`` does, so the median measures
    the steady state the facade actually serves; the first (cold) repeat
    still pays the universe build.  The compiled policy index's isolating
    sets are filled before timing, so a single repeat times the universe
    build and the surfaces, not selector matching: the committed records
    the ``matrix_sources`` gate limits come from were taken that way.
    """
    compiled = fleet.compiled_network()
    index = compiled.enforcer.index_for(fleet.policies)
    for pod in fleet.pods:
        index.isolating(pod)
    universe_cache: dict = {}

    def run_compiled():
        matrix = compiled.reachability_matrix(
            index, fleet.pods, fleet.bindings, universe_cache=universe_cache
        )
        for source in sources:
            matrix.endpoints_from(source)

    return run_compiled


def bench_matrix_sources(
    fleet: Fleet, source_count: int = 16, repeats: int = 5
) -> dict[str, float]:
    """Many sources sharing one ReachabilityMatrix vs per-source naive scans.

    ``matrix_sources/compiled`` is the bitset-vectorized engine (see
    :func:`_compiled_sources_run`).
    """
    naive = fleet.naive_network()
    sources = _sources(fleet, source_count)

    def run_naive():
        for source in sources:
            naive.reachable_endpoints(
                fleet.policies, source, fleet.pods, fleet.bindings
            )

    naive_ns, compiled_ns = paired_median_ns(
        run_naive, _compiled_sources_run(fleet, sources), repeats
    )
    return {
        "matrix_sources/naive": naive_ns / len(sources),
        "matrix_sources/compiled": compiled_ns / len(sources),
    }


def run_size(pod_count: int, repeats: int = 5) -> dict[str, float]:
    """All connectivity cases for one fleet size, as {case: ns_per_op}."""
    fleet = build_fleet(pod_count)
    results: dict[str, float] = {}
    results.update(bench_check_ingress(fleet, repeats))
    results.update(bench_reachable_endpoints(fleet, repeats))
    results.update(bench_matrix_sources(fleet, repeats=repeats))
    return results


def run_large_size(pod_count: int, repeats: int = 2) -> dict[str, float]:
    """The bitset engine's arm only, for the slow 10k/50k fleets.

    The per-source naive scan is omitted: at these sizes it would take
    minutes per repeat without adding information (its scaling is pinned by
    the 30/240/1000 series, which the slow test compares these against).
    """
    fleet = build_fleet(pod_count)
    sources = _sources(fleet)
    (compiled_ns,) = sample_ns([_compiled_sources_run(fleet, sources)], repeats)
    return {"matrix_sources/compiled": statistics.median(compiled_ns) / len(sources)}


def format_table(per_size: dict[int, dict[str, float]]) -> str:
    """Render the before/after throughput table printed by the benchmarks."""
    cases = ("check_ingress", "reachable_endpoints", "matrix_sources")
    lines = [
        f"{'case':<22} {'pods':>6} {'naive ns/op':>14} {'compiled ns/op':>15} {'speedup':>9}"
    ]
    for case in cases:
        for pod_count, results in sorted(per_size.items()):
            if f"{case}/naive" not in results:
                continue
            naive = results[f"{case}/naive"]
            compiled = results[f"{case}/compiled"]
            lines.append(
                f"{case:<22} {pod_count:>6} {naive:>14,.0f} {compiled:>15,.0f} "
                f"{naive / compiled:>8.1f}x"
            )
    return "\n".join(lines)
