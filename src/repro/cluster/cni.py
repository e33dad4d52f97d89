"""CNI plugin simulation: NetworkPolicy enforcement.

Kubernetes delegates policy enforcement to the CNI plugin; this module plays
that role for the simulated cluster.  The semantics follow the NetworkPolicy
specification:

* a pod not selected by any policy accepts every connection (default allow);
* a pod selected by one or more policies with the ``Ingress`` policy type
  only accepts connections allowed by at least one rule of one of those
  policies (union semantics);
* pods running with ``hostNetwork: true`` are *not* isolated by policies --
  the crucial caveat behind misconfiguration M7 and the Figure 4b analysis.

Evaluation runs through the compiled engine of
:mod:`repro.cluster.policy_index` by default: policy lists are compiled once
into a :class:`~repro.cluster.policy_index.PolicyIndex` (memoized by list
identity, or passed in pre-compiled by the cluster facade) so the
default-allow fast path and repeated decisions do zero selector work.  The
naive scan is preserved behind ``use_index=False`` as the reference
implementation for differential tests and benchmarks.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..k8s import NetworkPolicy
from ..memo import remember
from .policy_index import PolicyIndex
from .runtime import RunningPod

#: Reasons attached to the two default-allow fast-path decisions.
HOST_NETWORK_ALLOW_REASON = "destination uses the host network; policies do not apply"
DEFAULT_ALLOW_REASON = "no network policy selects the destination (default allow)"


@dataclass(frozen=True)
class PolicyDecision:
    """The outcome of a policy evaluation, with an explanation."""

    allowed: bool
    reason: str
    isolating_policies: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.allowed


#: Shared fast-path decisions (PolicyDecision is frozen, so sharing is safe).
_HOST_NETWORK_ALLOW = PolicyDecision(allowed=True, reason=HOST_NETWORK_ALLOW_REASON)
_DEFAULT_ALLOW = PolicyDecision(allowed=True, reason=DEFAULT_ALLOW_REASON)

#: How many compiled indexes the enforcer keeps.
_INDEX_MEMO_MAXSIZE = 8


def scan_isolating(
    policies: Iterable[NetworkPolicy], destination: RunningPod
) -> list[NetworkPolicy]:
    """Policies that select ``destination`` and restrict ingress, in list order.

    The naive scan every compiled isolating lookup is proven against.
    Host-network pods escape the pod network namespace entirely, so
    NetworkPolicies attached to them have no effect.
    """
    if destination.host_network:
        return []
    return [
        policy
        for policy in policies
        if policy.restricts_ingress()
        and policy.selects(destination.labels, destination.namespace)
    ]


class NetworkPolicyEnforcer:
    """Evaluates NetworkPolicies against concrete pod-to-pod connections."""

    def __init__(
        self,
        namespace_labels: dict[str, dict[str, str]] | None = None,
        use_index: bool = True,
    ) -> None:
        #: Labels of each namespace, needed to evaluate ``namespaceSelector``.
        self._namespace_labels = dict(namespace_labels or {})
        #: When ``False`` every evaluation takes the original uncompiled scan
        #: -- the reference semantics the compiled engine is verified against.
        self.use_index = use_index
        #: Compiled indexes memoized by the identity of the policy list
        #: contents; the tuple of policies is retained so the ids stay valid.
        self._index_memo: dict[
            tuple[int, ...], tuple[tuple[NetworkPolicy, ...], PolicyIndex]
        ] = {}

    def reset(self) -> None:
        """Drop namespace labels and compiled-index memos (session recycle)."""
        self._namespace_labels.clear()
        self._index_memo.clear()

    def set_namespace_labels(self, namespace: str, labels: dict[str, str]) -> None:
        self._namespace_labels[namespace] = dict(labels)

    def namespace_labels(self, namespace: str) -> dict[str, str]:
        """The labels of ``namespace`` as seen by ``namespaceSelector`` rules."""
        return self._namespace_labels.get(namespace, {})

    # Compilation ------------------------------------------------------------
    def index_for(self, policies: list[NetworkPolicy] | PolicyIndex) -> PolicyIndex:
        """Return a compiled index for ``policies``, memoized by identity.

        Passing the same list (or a fresh list holding the same policy
        objects, as ``Cluster.network_policies()`` produces) reuses the
        compiled form; any change in membership or order compiles a new one.
        """
        if isinstance(policies, PolicyIndex):
            return policies
        key = tuple(map(id, policies))
        entry = self._index_memo.get(key)
        if entry is None:
            entry = (tuple(policies), PolicyIndex(policies))
            remember(self._index_memo, key, entry, _INDEX_MEMO_MAXSIZE)
        return entry[1]

    def _resolve_index(
        self, policies: list[NetworkPolicy] | PolicyIndex
    ) -> PolicyIndex | None:
        """The index to evaluate through, or ``None`` for the naive scan."""
        if isinstance(policies, PolicyIndex):
            return policies
        if not self.use_index:
            return None
        return self.index_for(policies)

    # Evaluation -------------------------------------------------------------
    def policies_isolating(
        self, policies: list[NetworkPolicy] | PolicyIndex, destination: RunningPod
    ) -> list[NetworkPolicy]:
        """Policies that select the destination pod and restrict ingress."""
        index = self._resolve_index(policies)
        if index is not None:
            return list(index.isolating(destination))
        return scan_isolating(policies, destination)

    def check_ingress(
        self,
        policies: list[NetworkPolicy] | PolicyIndex,
        source: RunningPod,
        destination: RunningPod,
        port: int,
        protocol: str = "TCP",
    ) -> PolicyDecision:
        """Decide whether ``source`` may connect to ``destination`` on ``port``.

        The default-allow fast path (no policy isolates the destination) does
        no selector, named-port or namespace-label work beyond the memoized
        isolating-set lookup.
        """
        index = self._resolve_index(policies)
        if index is not None:
            isolating: list[NetworkPolicy] | tuple[NetworkPolicy, ...] = index.isolating(
                destination
            )
        else:
            isolating = scan_isolating(policies, destination)
        return self.decide_ingress(isolating, source, destination, port, protocol)

    def decide_ingress(
        self,
        isolating: list[NetworkPolicy] | tuple[NetworkPolicy, ...],
        source: RunningPod,
        destination: RunningPod,
        port: int,
        protocol: str = "TCP",
    ) -> PolicyDecision:
        """Rule evaluation against a precomputed isolating set.

        Callers that already hold the destination's isolating set (the
        reachability matrix caches it per destination) skip the repeated
        index lookup -- and the labels frozenset it rebuilds -- that
        :meth:`check_ingress` would otherwise pay per decision.
        """
        if not isolating:
            return _HOST_NETWORK_ALLOW if destination.host_network else _DEFAULT_ALLOW
        named_ports = destination.named_ports()
        source_namespace_labels = self._namespace_labels.get(source.namespace, {})
        for policy in isolating:
            if policy.allows_ingress(
                peer_labels=source.labels,
                peer_namespace=source.namespace,
                port=port,
                protocol=protocol,
                named_ports=named_ports,
                namespace_labels=source_namespace_labels,
            ):
                return PolicyDecision(
                    allowed=True,
                    reason=f"allowed by policy {policy.name!r}",
                    isolating_policies=tuple(p.name for p in isolating),
                )
        return PolicyDecision(
            allowed=False,
            reason="denied: no ingress rule of any selecting policy matches",
            isolating_policies=tuple(p.name for p in isolating),
        )

    def partition_pods(
        self, policies: list[NetworkPolicy] | PolicyIndex, pods: list[RunningPod]
    ) -> tuple[list[RunningPod], list[RunningPod]]:
        """Split ``pods`` into (isolated, unprotected) in a single pass."""
        isolated: list[RunningPod] = []
        unprotected: list[RunningPod] = []
        index = self._resolve_index(policies)
        for pod in pods:
            selecting = (
                index.isolating(pod)
                if index is not None
                else scan_isolating(policies, pod)
            )
            (isolated if selecting else unprotected).append(pod)
        return isolated, unprotected

    def isolated_pods(
        self, policies: list[NetworkPolicy] | PolicyIndex, pods: list[RunningPod]
    ) -> list[RunningPod]:
        """Pods that have at least one ingress-restricting policy applied."""
        return self.partition_pods(policies, pods)[0]

    def unprotected_pods(
        self, policies: list[NetworkPolicy] | PolicyIndex, pods: list[RunningPod]
    ) -> list[RunningPod]:
        """Pods left wide open: either unselected or escaping via hostNetwork."""
        return self.partition_pods(policies, pods)[1]
