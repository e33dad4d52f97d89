"""Compiled policy-evaluation engine for the connectivity hot path.

Every simulated connection needs the set of NetworkPolicies that isolate the
destination pod.  The naive evaluator re-scans the whole policy list and
re-runs ``policy.selects()`` per attempt, which multiplies to millions of
selector evaluations across the lateral-movement experiments (Figure 4b /
Table 2).  This module compiles a policy list once into an indexed form:

* ingress-restricting policies are **bucketed by namespace** -- a pod can
  only be selected by policies of its own namespace, so pods in
  policy-free namespaces resolve to "default allow" without touching a
  single selector;
* pure ``matchLabels`` selectors are **pre-flattened into hashable match
  keys** (frozensets of ``(key, value)`` pairs) so selection becomes a
  subset test on a pre-hashed label set instead of a per-key dict walk;
* the per-pod *isolating-policy set* is **memoized** keyed on the pod's
  ``(namespace, labels)`` identity -- replicas of the same workload share
  one entry, so a 1000-pod deployment costs one selector scan, not 1000.

An index is a snapshot: it must be rebuilt whenever the policy set changes.
:class:`repro.cluster.cluster.Cluster` owns a ``policy_epoch`` counter
(bumped on install/uninstall/restart and on every direct API-server
mutation) and rebuilds its cached index whenever the epoch moves, so callers
never invalidate caches by hand.  The index is a *pure acceleration*: for
any pod it returns exactly the policies (in original list order) that the
naive ``NetworkPolicyEnforcer.policies_isolating`` scan would return, a
property enforced by the differential tests in ``tests/property``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..k8s import NetworkPolicy
from .runtime import RunningPod


def _ingress_rule_flags(policies: Iterable[NetworkPolicy]) -> tuple[bool, bool]:
    """``(uses named ports, constrains ports)`` over all ingress rules.

    An empty ``rule.ports`` list allows every port and protocol, so when no
    rule of any policy lists ports the whole decision is port-independent
    (and, a fortiori, independent of the destination's named-port table).
    The reachability layers use these flags to widen decision-equivalence
    classes: port-free isolating sets collapse every probed port of a
    destination into one memoized decision.
    """
    uses_named = False
    constrains = False
    for policy in policies:
        for rule in policy.ingress:
            if rule.ports:
                constrains = True
                if any(isinstance(rp.port, str) for rp in rule.ports):
                    return True, True
    return uses_named, constrains


class _CompiledPolicy:
    """One ingress-restricting policy with its selector pre-flattened."""

    __slots__ = ("policy", "match_items")

    def __init__(self, policy: NetworkPolicy) -> None:
        self.policy = policy
        #: ``frozenset`` of required ``(key, value)`` pairs for pure
        #: ``matchLabels`` selectors (empty = selects every pod in the
        #: namespace); ``None`` when ``matchExpressions`` require the full
        #: selector evaluation.
        self.match_items = policy.selection_match_items()

    def selects(self, labels: Mapping[str, str], label_items: frozenset) -> bool:
        if self.match_items is not None:
            return self.match_items <= label_items
        return self.policy.pod_selector.matches(labels)


class PolicyIndex:
    """An immutable compiled view of a NetworkPolicy list.

    Build one per *policy epoch* and share it across every connection
    attempt; :meth:`isolating` then answers "which policies isolate this
    pod?" from a memo instead of a scan.
    """

    __slots__ = (
        "epoch",
        "policies",
        "_ingress_by_namespace",
        "_compiled_buckets",
        "_isolating_cache",
        "_isolating_intern",
        "_named_port_flags",
        "_port_constrained_flags",
    )

    def __init__(self, policies: Iterable[NetworkPolicy], epoch: int = 0) -> None:
        self.epoch = epoch
        #: The source policies in their original order (the order decides the
        #: ``isolating_policies`` tuple of every PolicyDecision).
        self.policies: tuple[NetworkPolicy, ...] = tuple(policies)
        #: Namespace buckets, built on first use: an index constructed for a
        #: workload that ends up never asking an isolating question (a chart
        #: whose probe makes no connection attempts) costs one tuple and a
        #: handful of empty dicts.
        self._ingress_by_namespace: dict[str, list[NetworkPolicy]] | None = None
        #: Selector flattening is promoted lazily per namespace bucket: the
        #: first label class answers with a direct scan (sentinel ``()``
        #: recorded), the second distinct class compiles the bucket.  A sweep
        #: that probes one label class per namespace -- the common shape of a
        #: single-chart probe -- therefore never pays compilation on top of
        #: the scan, while fleets with many classes amortize it immediately.
        self._compiled_buckets: dict[str, list[_CompiledPolicy] | tuple] = {}
        #: ``(namespace, frozen labels) -> isolating policies`` memo.  Pod
        #: labels are immutable once running, so entries never go stale
        #: within one index; replicas with identical labels share an entry.
        self._isolating_cache: dict[tuple[str, frozenset], tuple[NetworkPolicy, ...]] = {}
        #: Content-interning table for isolating tuples: label classes that
        #: resolve to the *same policies* share one tuple object, so caches
        #: keyed on ``id(isolating)`` (the reachability matrix's decision
        #: memo and the vectorized decision classes) collapse across them.
        #: Keyed by member identity (policies are fixed for an index's life).
        self._isolating_intern: dict[tuple[int, ...], tuple[NetworkPolicy, ...]] = {}
        #: ``id(interned isolating tuple) -> flag`` tables, filled when the
        #: tuple is first interned; answered by :meth:`uses_named_ports` and
        #: :meth:`constrains_ports`.
        self._named_port_flags: dict[int, bool] = {}
        self._port_constrained_flags: dict[int, bool] = {}

    def __len__(self) -> int:
        return len(self.policies)

    def _namespace_buckets(self) -> dict[str, list[NetworkPolicy]]:
        buckets = self._ingress_by_namespace
        if buckets is None:
            buckets = {}
            for policy in self.policies:
                if policy.restricts_ingress():
                    buckets.setdefault(policy.namespace, []).append(policy)
            self._ingress_by_namespace = buckets
        return buckets

    def isolating(self, pod: RunningPod) -> tuple[NetworkPolicy, ...]:
        """Policies that select ``pod`` and restrict ingress, in list order.

        Equivalent to the naive ``policies_isolating`` scan: host-network
        pods escape enforcement entirely, everything else is matched against
        the namespace bucket (memoized per label set).
        """
        if pod.host_network:
            return ()
        namespace = pod.namespace
        buckets = self._namespace_buckets()
        if namespace not in buckets:
            return ()
        label_items = pod.label_items()
        key = (namespace, label_items)
        cached = self._isolating_cache.get(key)
        if cached is None:
            labels = pod.labels
            bucket = self._compiled_buckets.get(namespace)
            if bucket is None:
                # First label class in this namespace: answer with a direct
                # naive-cost scan and only leave the ``()`` sentinel behind.
                # Compiling selectors pays off via the memo, and the memo
                # only pays off once a *second* distinct class shows up.
                self._compiled_buckets[namespace] = ()
                selected = [
                    policy
                    for policy in buckets[namespace]
                    if policy.pod_selector.matches(labels)
                ]
            else:
                if not bucket:
                    # Second distinct class: promote the sentinel to the
                    # compiled bucket -- from here on selection is a subset
                    # test on pre-flattened match keys.
                    bucket = [
                        _CompiledPolicy(policy)
                        for policy in buckets[namespace]
                    ]
                    self._compiled_buckets[namespace] = bucket
                selected = [
                    compiled.policy
                    for compiled in bucket
                    if compiled.selects(labels, label_items)
                ]
            if selected:
                cached = tuple(selected)
                cached = self._isolating_intern.setdefault(
                    tuple(map(id, cached)), cached
                )
                flag_key = id(cached)
                if flag_key not in self._named_port_flags:
                    uses_named, constrains = _ingress_rule_flags(cached)
                    self._named_port_flags[flag_key] = uses_named
                    self._port_constrained_flags[flag_key] = constrains
            else:
                # ``()`` is a singleton; interning it buys nothing.
                cached = ()
            self._isolating_cache[key] = cached
        return cached

    def uses_named_ports(self, isolating: tuple[NetworkPolicy, ...]) -> bool:
        """Whether any policy of ``isolating`` references a named port.

        ``isolating`` must be a tuple returned by :meth:`isolating` (the flag
        is recorded when the tuple is interned); unknown tuples answer
        ``True``, the conservative "named ports may matter" default.
        """
        if not isolating:
            return False
        return self._named_port_flags.get(id(isolating), True)

    def constrains_ports(self, isolating: tuple[NetworkPolicy, ...]) -> bool:
        """Whether any ingress rule of ``isolating`` lists ports at all.

        ``False`` means every decision against this isolating set is
        port- and protocol-independent, so reachability layers may collapse
        all probed ports of a destination into one decision class.  Unknown
        tuples answer ``True``, the conservative default.
        """
        if not isolating:
            return False
        return self._port_constrained_flags.get(id(isolating), True)
