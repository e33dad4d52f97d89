"""The analysis context shared by all detection rules.

A rule sees two views of an application:

* the **static view**: the Kubernetes objects produced by rendering the
  chart (compute units, services, network policies, labels, declared ports);
* the **runtime view** (optional): the consolidated
  :class:`~repro.probe.RuntimeObservation` obtained by installing the chart
  into a clean cluster and taking double snapshots.

The context also records whether the chart *defines* network policies that
are merely disabled by default, which the paper still counts as M6.

The helpers come in two gears.  With ``indexed=True`` (the default) the
context builds its per-chart indexes once -- an owner→snapshots index over
the observation (replacing the seed's O(units × pods) linear scan in
:meth:`snapshots_for`), a (pod name, namespace)→snapshot map for the second
snapshot, per-unit port-set memos, and the inventory's frozen selector
indexes -- and every rule answers from them.  ``indexed=False`` pins every
helper to the seed per-call linear scans: the reference implementation the
rule-engine differential suite (``tests/property/test_rule_engine.py``)
diffs the indexed path against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..k8s import ComputeUnit, Inventory, NetworkPolicy, Service
from ..probe import PodSnapshot, RuntimeObservation


@dataclass
class AnalysisContext:
    """Everything a rule needs to evaluate one application."""

    application: str
    inventory: Inventory
    observation: RuntimeObservation | None = None
    #: The chart ships NetworkPolicy templates that are disabled by values.
    network_policies_available_but_disabled: bool = False
    dataset: str = ""
    namespace: str = "default"
    extra: dict = field(default_factory=dict)
    #: ``False`` = seed-shaped per-call scans (the reference path).
    indexed: bool = True
    #: owner qualified-name -> [(position, snapshot)], observation order.
    _by_owner: dict | None = field(default=None, repr=False, compare=False)
    #: [(position, snapshot)] for snapshots without an owner record.
    _ownerless: list | None = field(default=None, repr=False, compare=False)
    #: (pod name, namespace) -> second-snapshot pod (first occurrence wins,
    #: matching ``ClusterSnapshot.pod``'s scan).
    _second_pods: dict | None = field(default=None, repr=False, compare=False)
    #: (unit qualified name, protocol) -> frozen port sets, per helper.
    _port_memo: dict = field(default_factory=dict, repr=False, compare=False)
    _snapshot_memo: dict = field(default_factory=dict, repr=False, compare=False)

    # Static helpers --------------------------------------------------------
    def compute_units(self) -> list[ComputeUnit]:
        return self.inventory.compute_units()

    def services(self) -> list[Service]:
        return self.inventory.services()

    def network_policies(self):
        return self.inventory.network_policies()

    def services_selecting(self, labels: Mapping[str, str], namespace: str) -> list[Service]:
        """Services whose selector matches ``labels`` in ``namespace``."""
        if self.indexed:
            return self.inventory.services_selecting(labels, namespace)
        return [
            service
            for service in self.inventory.services()
            if service.namespace == namespace
            and service.has_selector
            and service.selector.matches(labels)
        ]

    def policies_selecting(self, labels: Mapping[str, str], namespace: str) -> list[NetworkPolicy]:
        """Network policies selecting ``labels`` in ``namespace``."""
        if self.indexed:
            return self.inventory.policies_selecting(labels, namespace)
        return [
            policy
            for policy in self.inventory.network_policies()
            if policy.selects(labels, namespace)
        ]

    def units_selected_by(self, service: Service) -> list[ComputeUnit]:
        if self.indexed:
            return self.inventory.compute_units_selected_by(service)
        if not service.has_selector:
            return []
        return [
            unit
            for unit in self.inventory.compute_units()
            if unit.namespace == service.namespace
            and service.selector.matches(unit.pod_labels())
        ]

    @property
    def has_runtime(self) -> bool:
        return self.observation is not None

    # Runtime helpers ----------------------------------------------------------
    def snapshots_for(self, unit: ComputeUnit) -> list[PodSnapshot]:
        """Runtime snapshots of the pods owned by a compute unit."""
        if self.observation is None:
            return []
        if not self.indexed:
            return self._snapshots_for_scan(unit)
        key = unit.qualified_name()
        cached = self._snapshot_memo.get(key)
        if cached is not None:
            return cached
        if self._by_owner is None:
            self._build_snapshot_index()
        owned = self._by_owner.get(key, ())
        if self._ownerless:
            # Ownerless snapshots fall back to a name-prefix match; splice
            # them back at their original positions so the combined list
            # keeps the observation's pod order (the scan's output order).
            matches = [
                entry for entry in self._ownerless if entry[1].pod_name.startswith(unit.name)
            ]
            if matches:
                owned = sorted([*owned, *matches], key=lambda entry: entry[0])
        result = [snapshot for _, snapshot in owned]
        self._snapshot_memo[key] = result
        return result

    def _snapshots_for_scan(self, unit: ComputeUnit) -> list[PodSnapshot]:
        """The seed implementation: one linear scan per call."""
        owner = unit.qualified_name()
        return [
            snapshot
            for snapshot in self.observation.pods()
            if snapshot.owner == owner
            or (not snapshot.owner and snapshot.pod_name.startswith(unit.name))
        ]

    def _build_snapshot_index(self) -> None:
        by_owner: dict[str, list] = {}
        ownerless: list = []
        for position, snapshot in enumerate(self.observation.pods()):
            if snapshot.owner:
                by_owner.setdefault(snapshot.owner, []).append((position, snapshot))
            else:
                ownerless.append((position, snapshot))
        second: dict[tuple[str, str], PodSnapshot] = {}
        for snapshot in self.observation.second.pods:
            second.setdefault((snapshot.pod_name, snapshot.namespace), snapshot)
        self._by_owner = by_owner
        self._ownerless = ownerless
        self._second_pods = second

    def _second_pod(self, snapshot: PodSnapshot) -> PodSnapshot | None:
        if self._second_pods is None:
            self._build_snapshot_index()
        return self._second_pods.get((snapshot.pod_name, snapshot.namespace))

    def _port_facts(
        self, unit: ComputeUnit, protocol: str
    ) -> tuple[frozenset[int], frozenset[int]]:
        """``(stable, dynamic)`` port sets of a unit, computed in one pass.

        Both sets need the same first/second-snapshot port sets per pod, so
        they are derived together and memoized per (unit, protocol); every
        rule then reads the shared result.  The memo stores *frozensets*:
        the shared entries are handed out by reference, and a consumer that
        tries to mutate one (a pattern the per-call reference path happened
        to tolerate) fails loudly instead of corrupting later rules.
        """
        key = (unit.qualified_name(), protocol)
        cached = self._port_memo.get(key)
        if cached is None:
            stable: set[int] = set()
            dynamic: set[int] = set()
            host_ports = self.observation.host_ports
            for snapshot in self.snapshots_for(unit):
                first_ports = snapshot.open_ports(protocol)
                other = self._second_pod(snapshot)
                if other is None:
                    if snapshot.host_network:
                        first_ports = first_ports - host_ports
                    stable |= first_ports
                    continue
                second_ports = other.open_ports(protocol)
                if snapshot.host_network:
                    first_ports = first_ports - host_ports
                    second_ports = second_ports - host_ports
                stable |= first_ports & second_ports
                dynamic |= first_ports.symmetric_difference(second_ports)
            cached = (frozenset(stable), frozenset(dynamic))
            self._port_memo[key] = cached
        return cached

    def stable_open_ports(self, unit: ComputeUnit, protocol: str = "TCP") -> set[int]:
        """Ports observed open (in both snapshots) across the unit's pods.

        Indexed contexts return the shared memoized *frozenset* (mutation
        fails loudly); every in-tree consumer derives fresh sets from it.
        """
        if self.observation is None:
            return set()
        if not self.indexed:
            ports: set[int] = set()
            for snapshot in self.snapshots_for(unit):
                ports.update(self.observation.stable_open_ports(snapshot, protocol))
            return ports
        return self._port_facts(unit, protocol)[0]

    def dynamic_ports(self, unit: ComputeUnit, protocol: str = "TCP") -> set[int]:
        """Ports that changed between the two snapshots for the unit's pods.

        Indexed contexts return the shared memoized *frozenset* (mutation
        fails loudly); every in-tree consumer derives fresh sets from it.
        """
        if self.observation is None:
            return set()
        if not self.indexed:
            ports: set[int] = set()
            for snapshot in self.snapshots_for(unit):
                ports.update(self.observation.dynamic_ports(snapshot, protocol))
            return ports
        return self._port_facts(unit, protocol)[1]
