"""Differential suite for the incremental M4* pass (``CollisionIndex``).

The oracle is :func:`repro.core.global_collision_findings` from scratch over
the same applications.  Hypothesis drives multi-round sequences over small
synthetic clusters: two namespaces, a handful of labels, so label groups and
cross-application selector matches (matchLabels and expression selectors)
form and dissolve all the time.  Each round adds, removes, re-labels,
re-adds a removed application at a new position, swaps two applications or
changes nothing.  After every update:

* every application's findings, order included, equal the oracle's;
* an application the update did not report as touched has exactly the
  oracle findings it had after the previous update.
"""

from __future__ import annotations

from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core import ApplicationInventory, CollisionIndex, global_collision_findings
from repro.k8s import (
    Inventory,
    LabelSelectorRequirement,
    LabelSet,
    ObjectMeta,
    Pod,
    PodSpec,
    Selector,
    Service,
    ServicePort,
)
from tests.conftest import make_deployment

NAMESPACES = ("default", "other")
LABELS = st.dictionaries(st.sampled_from(("app", "tier")), st.sampled_from(("a", "b")))
EXPRESSIONS = st.lists(
    st.one_of(
        st.builds(LabelSelectorRequirement, st.sampled_from(("app", "tier")),
                  st.sampled_from(("Exists", "DoesNotExist"))),
        st.builds(LabelSelectorRequirement, st.sampled_from(("app", "tier")),
                  st.sampled_from(("In", "NotIn")), st.just(("a",))),
    ),
    min_size=1,
    max_size=2,
).map(tuple)


def _pod(name: str, labels: dict, namespace: str) -> Pod:
    return Pod(
        metadata=ObjectMeta(name=name, namespace=namespace, labels=LabelSet(labels)),
        spec=PodSpec(containers=[]),
    )


def _service(name: str, labels: dict, expressions: tuple, namespace: str) -> Service:
    return Service(
        metadata=ObjectMeta(name=name, namespace=namespace),
        selector=Selector(match_labels=LabelSet(labels), match_expressions=expressions),
        ports=[ServicePort(port=80, target_port=8080, name="main")],
    )


@st.composite
def inventories(draw) -> Inventory:
    """One application's objects: a few units and selecting services."""
    objects = []
    for index in range(draw(st.integers(0, 3))):
        namespace = draw(st.sampled_from(NAMESPACES))
        labels = draw(LABELS)
        if labels and draw(st.booleans()):
            objects.append(make_deployment(f"unit-{index}", labels=labels, namespace=namespace))
        else:
            objects.append(_pod(f"unit-{index}", labels, namespace))
    for index in range(draw(st.integers(0, 2))):
        labels = draw(LABELS)
        expressions = draw(EXPRESSIONS) if not labels or draw(st.booleans()) else ()
        namespace = draw(st.sampled_from(NAMESPACES))
        objects.append(_service(f"svc-{index}", labels, expressions, namespace))
    return Inventory(objects)


OPERATIONS = st.sampled_from(("add", "remove", "relabel", "readd", "swap", "keep"))
ROUNDS = st.lists(
    st.tuples(OPERATIONS, st.integers(0, 7), inventories()), min_size=1, max_size=8
)


def oracle(applications: list[ApplicationInventory]) -> dict[str, list]:
    by_application: dict[str, list] = {entry.application: [] for entry in applications}
    for finding in global_collision_findings(applications):
        by_application[finding.application].append(finding)
    return by_application


class TestIncrementalMatchesScratch:
    @hyp_settings(max_examples=150, deadline=None)
    @given(start=st.lists(inventories(), min_size=0, max_size=5), rounds=ROUNDS)
    def test_every_round_matches_scratch(self, start, rounds):
        current = [ApplicationInventory(f"app-{i}", inventory) for i, inventory in enumerate(start)]
        removed: list[ApplicationInventory] = []
        index = CollisionIndex()
        assert index.update(current) == {entry.application for entry in current}
        previous = oracle(current)
        fresh = len(current)
        for number, (operation, position, inventory) in enumerate(rounds, start=1):
            if operation == "add":
                entry = ApplicationInventory(f"app-{fresh}", inventory)
                fresh += 1
                current.insert(position % (len(current) + 1), entry)
            elif operation == "readd" and removed:
                current.insert(position % (len(current) + 1), removed.pop())
            elif current and operation == "remove":
                removed.append(current.pop(position % len(current)))
            elif current and operation == "relabel":
                at = position % len(current)
                current[at] = ApplicationInventory(current[at].application, inventory)
            elif len(current) > 1 and operation == "swap":
                at = position % (len(current) - 1)
                current[at], current[at + 1] = current[at + 1], current[at]
            touched = index.update(current)
            expected = oracle(current)
            for entry in current:
                label = f"round {number} ({operation}): {entry.application}"
                assert index.findings(entry.application) == expected[entry.application], label
                if entry.application not in touched:
                    assert expected[entry.application] == previous.get(entry.application), label
            previous = expected

    def test_unchanged_round_touches_nothing(self):
        shared = {"app": "shared"}
        current = [
            ApplicationInventory("first", Inventory([make_deployment("a", labels=shared)])),
            ApplicationInventory("second", Inventory([make_deployment("b", labels=shared)])),
            ApplicationInventory("third", Inventory([make_deployment("c", labels={"app": "c"})])),
        ]
        index = CollisionIndex()
        index.update(current)
        assert index.update(list(current)) == set()
        relabelled = Inventory([make_deployment("c", labels=shared)])
        current[2] = ApplicationInventory("third", relabelled)
        assert index.update(current) == {"first", "second", "third"}
        assert [f.resource for f in index.findings("first")] == ["Deployment/default/a"]
