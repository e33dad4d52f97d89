"""Cluster-wide analysis: global label collisions across applications (M4*).

The per-application rules only see one chart at a time.  Once every
application has been analyzed individually, the paper performs a second pass
over the whole cluster, looking for labels and selectors that collide across
*different* applications (Section 4.2.1).  It reads each application's
:class:`~repro.k8s.LabelSurface` -- compute-unit labels and service
selectors -- and nothing else of its objects.

:func:`global_collision_findings` is the from-scratch pass.
:class:`CollisionIndex` keeps the pass's state between rounds of a watch, so
a round costs what changed instead of what exists; the from-scratch pass is
its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..k8s import Inventory, LabelSet, LabelSurface
from .findings import Finding, MisconfigClass


@dataclass
class ApplicationInventory:
    """One application's objects, tagged with its identity.

    ``inventory`` is an :class:`~repro.k8s.Inventory` or its
    :class:`~repro.k8s.LabelSurface`; the M4* pass reads only the surface.
    """

    application: str
    inventory: Inventory | LabelSurface


@dataclass
class GlobalCollision:
    """A label collision spanning two or more applications."""

    labels: dict[str, str]
    members: list[tuple[str, str]] = field(default_factory=list)  # (application, resource)

    @property
    def applications(self) -> set[str]:
        """The distinct applications among the collision's members."""
        return {application for application, _ in self.members}


def find_global_collisions(applications: list[ApplicationInventory]) -> list[GlobalCollision]:
    """Group compute units from *different* applications sharing identical labels."""
    groups: dict[LabelSet, list[tuple[str, str]]] = {}
    for entry in applications:
        for name, _, labels in entry.inventory.label_surface().units:
            if labels:
                groups.setdefault(labels, []).append((entry.application, name))
    collisions: list[GlobalCollision] = []
    for labels, members in groups.items():
        applications_involved = {application for application, _ in members}
        if len(applications_involved) < 2:
            continue
        collisions.append(GlobalCollision(labels=dict(labels), members=sorted(members)))
    return collisions


def find_cross_application_selector_matches(
    applications: list[ApplicationInventory],
) -> list[GlobalCollision]:
    """Services of one application whose selector matches pods of another.

    This is the second flavour of global collision: even without identical
    label sets, a service can accidentally (or maliciously) select compute
    units belonging to a different application deployed in the same cluster.

    The units of every label surface are flattened once into a
    per-namespace index with pre-hashed label items, and every ``(key,
    value)`` pair additionally gets a posting list of the units carrying
    it.  A pure ``matchLabels``
    selector then only examines its *rarest* label's posting list (subset
    test on pre-hashed items) instead of every unit in the namespace --
    selectors name application-specific labels, so the examined list is
    typically a handful of units out of hundreds.  Expression selectors
    fall back to the full per-namespace scan; this pass used to be the
    quadratic tail of the catalogue evaluation.
    """
    #: namespace -> [(application, qualified name, hashed labels, labels)]
    units_by_namespace: dict[str, list[tuple[str, str, frozenset, LabelSet]]] = {}
    #: namespace -> (key, value) -> indices into the namespace's unit list.
    postings: dict[str, dict[tuple[str, str], list[int]]] = {}
    for entry in applications:
        for name, namespace, labels in entry.inventory.label_surface().units:
            bucket = units_by_namespace.setdefault(namespace, [])
            posting = postings.setdefault(namespace, {})
            index = len(bucket)
            items = labels.item_set()
            bucket.append((entry.application, name, items, labels))
            for item in items:
                posting.setdefault(item, []).append(index)
    collisions: list[GlobalCollision] = []
    for entry in applications:
        for service_name, namespace, selector in entry.inventory.label_surface().services:
            candidates = units_by_namespace.get(namespace, ())
            match_items = selector.as_match_items()
            if match_items and candidates:
                posting = postings[namespace]
                lists = [posting.get(item) for item in match_items]
                if any(entry_list is None for entry_list in lists):
                    continue  # a selector label no unit carries: no matches
                rarest = min(lists, key=len)
                candidates = [candidates[index] for index in rarest]
            foreign_members = [
                (application, name)
                for application, name, label_items, labels in candidates
                if application != entry.application
                and (
                    match_items <= label_items
                    if match_items is not None
                    else selector.matches(labels)
                )
            ]
            if foreign_members:
                collisions.append(
                    GlobalCollision(
                        labels=selector.match_labels.to_dict(),
                        members=[(entry.application, service_name)] + foreign_members,
                    )
                )
    return collisions


def _collision_finding(
    collision: GlobalCollision, application: str, member_names: tuple[str, ...]
) -> Finding:
    """The M4* finding one collision raises against one of its applications."""
    own_resources = [res for app, res in collision.members if app == application]
    involved = collision.applications
    return Finding(
        misconfig_class=MisconfigClass.M4_GLOBAL,
        application=application,
        resource=own_resources[0] if own_resources else member_names[0],
        related_resources=member_names,
        message=(
            f"labels {collision.labels} collide across applications "
            f"{', '.join(sorted(involved))}; traffic intended for one "
            "application can be routed to another"
        ),
        evidence={
            "labels": collision.labels,
            "other_applications": sorted(involved - {application}),
        },
        mitigation=(
            "Namespace applications separately or add an application-unique label "
            "(e.g. app.kubernetes.io/instance) to every selector."
        ),
    )


def global_collision_findings(applications: list[ApplicationInventory]) -> list[Finding]:
    """Produce the M4* findings for the whole cluster.

    The finding is attributed to every involved application (the paper's
    Table 2 counts M4* per dataset), but deduplicated per collision so the
    overall total counts each collision once per affected application pair.
    """
    findings: list[Finding] = []
    seen: set[tuple] = set()
    collisions = find_global_collisions(applications)
    collisions.extend(find_cross_application_selector_matches(applications))
    for collision in collisions:
        member_names = tuple(resource for _, resource in collision.members)
        for application in sorted(collision.applications):
            key = (application, member_names)
            if key in seen:
                continue
            seen.add(key)
            findings.append(_collision_finding(collision, application, member_names))
    return findings


# Incremental pass --------------------------------------------------------------


class _Unit:
    """One compute unit as the index holds it; ``index`` is its surface position."""

    __slots__ = ("application", "index", "name", "namespace", "labels", "items")

    def __init__(self, application, index, name, namespace, labels, items) -> None:
        self.application = application
        self.index = index
        self.name = name
        self.namespace = namespace
        self.labels = labels
        self.items = items


class _Service:
    """One selecting service; ``items`` is ``None`` for an expression selector.

    ``pivot`` is the one label a matchLabels service is indexed under.
    """

    __slots__ = ("application", "index", "name", "namespace", "selector", "items", "pivot")

    def __init__(self, application, index, name, namespace, selector, items) -> None:
        self.application = application
        self.index = index
        self.name = name
        self.namespace = namespace
        self.selector = selector
        self.items = items
        self.pivot = None

    def selects(self, unit: _Unit) -> bool:
        if self.items is not None:
            return self.items <= unit.items
        return self.selector.matches(unit.labels)


@dataclass(slots=True)
class _Chart:
    """What one application contributes to the index, and from which surface."""

    surface: LabelSurface
    units: list[_Unit]
    services: list[_Service]


class CollisionIndex:
    """The M4* pass's label groups and selector postings, kept per application.

    :meth:`update` brings the index to one round's analyzed set: it
    retracts the contributions of applications that went away or whose
    :class:`~repro.k8s.LabelSurface` is a different object (an inventory
    stands for its memoized surface), adds the new ones, and returns every
    application whose M4* findings may have moved -- the changed ones and
    every application sharing a label group or a selector match with
    them, before or after.  :meth:`findings` re-derives one application's
    findings in from-scratch order.  An application outside the returned
    set has exactly the findings it had after the previous update.

    Order matters to the from-scratch pass: label groups rank by their
    first member in catalogue order, selector matches by the owning
    service's position.  So when two applications that both kept their
    surface swap places, the index starts over and reports every
    application.  It holds only the last update's applications, so a long
    watch keeps bounded memory.  :func:`global_collision_findings` over
    the same applications is the oracle.  Application keys must be unique.
    """

    def __init__(self) -> None:
        self._clear()

    def _clear(self) -> None:
        self._charts: dict[str, _Chart] = {}
        self._position: dict[str, int] = {}
        #: label set -> the units carrying it (every application).
        self._groups: dict[LabelSet, set[_Unit]] = {}
        #: namespace -> every unit; namespace -> (key, value) -> units.
        self._units: dict[str, set[_Unit]] = {}
        self._postings: dict[str, dict[tuple[str, str], set[_Unit]]] = {}
        #: namespace -> one label of the selector -> matchLabels services.
        self._pivots: dict[str, dict[tuple[str, str], set[_Service]]] = {}
        #: namespace -> services whose selector has expressions.
        self._scanning: dict[str, set[_Service]] = {}

    def update(self, applications: list[ApplicationInventory]) -> set[str]:
        """Index ``applications`` (one round, in catalogue order); return the touched keys."""
        kept = [
            entry.application
            for entry in applications
            if (chart := self._charts.get(entry.application)) is not None
            and chart.surface is entry.inventory.label_surface()
        ]
        order = [self._position[application] for application in kept]
        if any(before > after for before, after in zip(order, order[1:])):
            self._clear()
            kept = []
        kept_keys = set(kept)
        moved: list[_Chart] = []
        for application in [key for key in self._charts if key not in kept_keys]:
            moved.append(self._retract(application))
        self._position = {entry.application: i for i, entry in enumerate(applications)}
        for entry in applications:
            if entry.application not in kept_keys:
                moved.append(self._add(entry))
        if not kept:
            return set(self._position)
        touched: set[str] = set()
        for chart in moved:
            for unit in chart.units:
                for member in self._groups.get(unit.labels, ()) if unit.items else ():
                    touched.add(member.application)
                for service in self._selecting(unit):
                    touched.add(service.application)
                    touched.update(member.application for member in self._selected(service))
            for service in chart.services:
                touched.update(member.application for member in self._selected(service))
        touched.update(self._position.keys() - kept_keys)
        return touched & self._position.keys()

    def findings(self, application: str) -> list[Finding]:
        """The M4* findings of one indexed application, in from-scratch order."""
        chart = self._charts[application]
        ranked: list[tuple[tuple, GlobalCollision]] = []
        groups: set[LabelSet] = set()
        services: set[_Service] = set(chart.services)
        for unit in chart.units:
            services.update(s for s in self._selecting(unit) if s.application != application)
            if not unit.items or unit.labels in groups:
                continue
            groups.add(unit.labels)
            members = self._groups[unit.labels]
            if len({member.application for member in members}) < 2:
                continue
            first = min(members, key=self._rank)
            collision = GlobalCollision(
                labels=dict(first.labels),
                members=sorted((member.application, member.name) for member in members),
            )
            ranked.append(((0, self._rank(first)), collision))
        for service in services:
            selected = sorted(self._selected(service), key=self._rank)
            if selected:
                collision = GlobalCollision(
                    labels=service.selector.match_labels.to_dict(),
                    members=[(service.application, service.name)]
                    + [(member.application, member.name) for member in selected],
                )
                ranked.append(((1, self._position[service.application], service.index), collision))
        ranked.sort(key=lambda pair: pair[0])
        findings: list[Finding] = []
        seen: set[tuple[str, ...]] = set()
        for _, collision in ranked:
            member_names = tuple(resource for _, resource in collision.members)
            if member_names not in seen:
                seen.add(member_names)
                findings.append(_collision_finding(collision, application, member_names))
        return findings

    def _rank(self, unit: _Unit) -> tuple[int, int]:
        return (self._position[unit.application], unit.index)

    def _selecting(self, unit: _Unit) -> list[_Service]:
        """Every indexed service whose selector matches ``unit``'s labels."""
        found = [s for s in self._scanning.get(unit.namespace, ()) if s.selects(unit)]
        pivots = self._pivots.get(unit.namespace)
        if pivots:
            for item in unit.items:
                found.extend(s for s in pivots.get(item, ()) if s.items <= unit.items)
        return found

    def _selected(self, service: _Service) -> list[_Unit]:
        """The units of *other* applications ``service`` selects, unordered."""
        if service.items:
            posting = self._postings.get(service.namespace, {})
            lists = [posting.get(item) for item in service.items]
            if not all(lists):
                return []
            candidates = min(lists, key=len)
        else:
            candidates = self._units.get(service.namespace, ())
        return [
            unit
            for unit in candidates
            if unit.application != service.application and service.selects(unit)
        ]

    def _add(self, entry: ApplicationInventory) -> _Chart:
        application = entry.application
        surface = entry.inventory.label_surface()
        chart = _Chart(surface, [], [])
        for index, (name, namespace, labels) in enumerate(surface.units):
            record = _Unit(application, index, name, namespace, labels, labels.item_set())
            chart.units.append(record)
            self._units.setdefault(record.namespace, set()).add(record)
            if record.items:
                self._groups.setdefault(labels, set()).add(record)
                posting = self._postings.setdefault(record.namespace, {})
                for item in record.items:
                    posting.setdefault(item, set()).add(record)
        for index, (name, namespace, selector) in enumerate(surface.services):
            record = _Service(
                application, index, name, namespace, selector, selector.as_match_items()
            )
            chart.services.append(record)
            if record.items:
                # Any one of its labels finds the service from a unit; the
                # rarest at insertion keeps the lists short.
                posting = self._postings.get(record.namespace, {})
                record.pivot = min(record.items, key=lambda item: len(posting.get(item, ())))
                pivots = self._pivots.setdefault(record.namespace, {})
                pivots.setdefault(record.pivot, set()).add(record)
            else:
                self._scanning.setdefault(record.namespace, set()).add(record)
        self._charts[application] = chart
        return chart

    def _retract(self, application: str) -> _Chart:
        chart = self._charts.pop(application)
        for unit in chart.units:
            _discard(self._units, unit.namespace, unit)
            if unit.items:
                _discard(self._groups, unit.labels, unit)
                posting = self._postings[unit.namespace]
                for item in unit.items:
                    _discard(posting, item, unit)
                if not posting:
                    del self._postings[unit.namespace]
        for service in chart.services:
            if service.items:
                pivots = self._pivots[service.namespace]
                _discard(pivots, service.pivot, service)
                if not pivots:
                    del self._pivots[service.namespace]
            else:
                _discard(self._scanning, service.namespace, service)
        return chart


def _discard(buckets: dict, key, member) -> None:
    """Remove ``member`` from ``buckets[key]``, dropping the bucket once empty."""
    bucket = buckets[key]
    bucket.discard(member)
    if not bucket:
        del buckets[key]
