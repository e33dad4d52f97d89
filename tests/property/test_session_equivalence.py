"""Differential conformance suite: pooled == fresh and fast == full.

The :class:`repro.cluster.AnalysisSession` subsystem must be a *pure
acceleration* of the seed pipeline: recycling cluster skeletons through
``Cluster.reset()``, deriving runtime observations install-free
(``observe_mode="fast"``) and deploying a chart plus the attacker pod on
the substrate (``AnalysisSession.deploy``) must produce byte-identical
canonical reports, snapshots, reachability surfaces and errors.  This suite
proves it three ways:

* over the **whole 290-chart catalogue** -- full-evaluation reports, per-chart
  double snapshots, the Figure 4b sweep, all-pairs reachability surfaces and
  attacker probe reports;
* over **Hypothesis-generated app specs** -- arbitrary injection plans and
  archetypes, diffed fast vs. full and pooled vs. fresh, and deployments
  with extra manifests diffed against an install;
* across **arbitrary reset sequences** -- one long-lived session serving many
  different charts must match a fresh cluster at every step.

All comparisons go through the shared canonical differ in
``tests/support/diffing.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    AnalysisSession,
    Cluster,
    OBSERVE_FAST,
    OBSERVE_FULL,
    PolicyIndex,
    ReachabilityMatrix,
)
from repro.core import AnalyzerSettings, MisconfigurationAnalyzer
from repro.datasets import InjectionPlan, build_application, build_catalog
from repro.datasets.spec import NETPOL_MODES, NETPOL_NONE
from repro.experiments import netpol_impact, run_full_evaluation, run_netpol_impact
from repro.helm import render_chart
from repro.k8s import objects_from_dicts
from repro.probe import ReachabilityProbe, RuntimeScanner
from repro.probe.reachability import ATTACKER_APP

from tests.support.diffing import (
    assert_identical,
    canonical_evaluation,
    canonical_netpol,
    canonical_observation,
    canonical_reachability,
    canonical_report,
    canonical_surface,
)

ARCHETYPES = ("web", "database", "monitoring", "messaging", "pipeline", "microservices")


@pytest.fixture(scope="module")
def catalog_apps():
    return build_catalog()


def reference_analyzer() -> MisconfigurationAnalyzer:
    """The seed-shaped pipeline: throw-away cluster + install per chart."""
    return MisconfigurationAnalyzer(
        settings=AnalyzerSettings(observe_mode=OBSERVE_FULL, pooled_clusters=False)
    )


def deployed_pods(target, app: str) -> list:
    """Every running pod of a deployed chart: the chart's, then the attacker's.

    On a cluster that ran ``ensure_attacker`` after installing the chart,
    and on a deployment, that is every running pod in start order (a chart
    released as the attacker's application holds them all).
    """
    pods = target.running_pods(app_name=app)
    return pods if app == ATTACKER_APP else pods + target.running_pods(app_name=ATTACKER_APP)


def matrix_of(target, app: str):
    """The reachability matrix over every pod of a cluster or deployment.

    A ``compiled_policies=False`` cluster answers with the naive matrix, a
    deployment with the compiled one.
    """
    return target.network.reachability_matrix(
        target.policies_view(), deployed_pods(target, app), target.service_bindings()
    )


def observe_fresh(app, double_snapshot: bool = True, rendered=None):
    """The seed observation path: fresh cluster, install, runtime scan."""
    rendered = rendered or render_chart(app.chart)
    cluster = Cluster(name="analysis", behaviors=app.behaviors)
    cluster.install(rendered)
    return RuntimeScanner(cluster).observe(
        rendered.release.name, restart_between_snapshots=double_snapshot
    )


# ---------------------------------------------------------------------------
# Whole-catalogue conformance
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_catalogue_reports_identical_across_session_modes(catalog_apps):
    """Full-evaluation reports: fresh+full == pooled+full == pooled+fast."""
    reference = run_full_evaluation(
        applications=catalog_apps, analyzer=reference_analyzer()
    )
    pooled_full = run_full_evaluation(
        applications=catalog_apps,
        analyzer=MisconfigurationAnalyzer(
            settings=AnalyzerSettings(observe_mode=OBSERVE_FULL, pooled_clusters=True)
        ),
    )
    fast = run_full_evaluation(applications=catalog_apps)
    assert_identical(
        canonical_evaluation(reference), canonical_evaluation(pooled_full),
        label="reports/pooled-vs-fresh",
    )
    assert_identical(
        canonical_evaluation(reference), canonical_evaluation(fast),
        label="reports/fast-vs-full",
    )


@pytest.mark.slow
def test_catalogue_observations_fast_equals_full_and_fresh(catalog_apps):
    """Per-chart double snapshots, across every chart of the catalogue."""
    full_session = AnalysisSession(observe_mode=OBSERVE_FULL)
    fast_session = AnalysisSession(observe_mode=OBSERVE_FAST)
    for app in catalog_apps:
        reference = canonical_observation(observe_fresh(app))
        pooled = full_session.observe(render_chart(app.chart), app.behaviors)
        fast = fast_session.observe(render_chart(app.chart), app.behaviors)
        assert_identical(
            reference, canonical_observation(pooled),
            label=f"observation/pooled/{app.dataset}/{app.name}",
        )
        assert_identical(
            reference, canonical_observation(fast),
            label=f"observation/fast/{app.dataset}/{app.name}",
        )
    assert fast_session.stats.fast_observations == len(catalog_apps)
    # The pooled session built exactly one skeleton for the whole catalogue.
    assert full_session.stats.clusters_built == 1
    assert full_session.stats.resets == len(catalog_apps) - 1


def test_catalogue_netpol_sweep_equals_install_oracle(catalog_apps):
    """The Figure 4b sweep: install-free deployments == naive installs.

    Catalogue order and one shuffled order, so a deployment never leans on
    the chart probed before it on the recycled substrate.
    """
    shuffled = list(catalog_apps)
    random.Random(3101).shuffle(shuffled)
    for applications, label in ((catalog_apps, "catalogue"), (shuffled, "shuffled")):
        assert_identical(
            canonical_netpol(run_netpol_impact(applications=applications, compiled=False)),
            canonical_netpol(run_netpol_impact(applications=applications)),
            label=f"netpol/{label}",
        )


@pytest.mark.slow
def test_catalogue_reachability_surfaces_pooled_equals_fresh(catalog_apps):
    """All-pairs reachability surfaces computed on recycled clusters.

    Beyond snapshots and findings: the connectivity engine (policy index,
    service bindings, matrix memos) must see no residue from previous leases.
    The install-free deployment (chart plus attacker) must also equal a
    fresh naive-policy install that ran ``ensure_attacker``.
    """
    session = AnalysisSession(name="surface", observe_mode=OBSERVE_FULL)
    deployments = AnalysisSession(name="surface")
    checked = 0
    for app in catalog_apps:
        if not app.defines_network_policies:
            continue
        overrides = {"networkPolicy": {"enabled": True}}
        fresh_cluster = Cluster(name="surface", behaviors=app.behaviors)
        fresh_cluster.install(render_chart(app.chart, overrides=overrides))
        expected = canonical_surface(fresh_cluster.reachability_matrix().all_pairs())
        with session.lease(app.behaviors) as cluster:
            cluster.install(render_chart(app.chart, overrides=overrides))
            actual = canonical_surface(cluster.reachability_matrix().all_pairs())
        assert_identical(expected, actual, label=f"surface/{app.dataset}/{app.name}")
        oracle = Cluster(name="surface", behaviors=app.behaviors, compiled_policies=False)
        oracle.install(render_chart(app.chart, overrides=overrides))
        ReachabilityProbe(oracle).ensure_attacker()
        rendered = render_chart(app.chart, overrides=overrides)
        release = rendered.release.name
        with deployments.deploy(rendered, app.behaviors) as deployment:
            deployed = canonical_surface(matrix_of(deployment, release).all_pairs())
        assert_identical(
            canonical_surface(matrix_of(oracle, release).all_pairs()), deployed,
            label=f"surface/deployed/{app.dataset}/{app.name}",
        )
        checked += 1
    assert checked > 50  # the catalogue ships plenty of policy-defining charts


def test_catalogue_probe_reports_deployment_equals_install(catalog_apps):
    """``ReachabilityProbe.probe_application`` with default values, every chart."""
    deployments = AnalysisSession(name="netpol-impact")
    for app in catalog_apps:
        rendered = render_chart(app.chart)
        oracle = Cluster(name="netpol-impact", behaviors=app.behaviors, compiled_policies=False)
        oracle.install(rendered)
        expected = dataclasses.asdict(
            ReachabilityProbe(oracle).probe_application(rendered.release.name)
        )
        with deployments.deploy(rendered, app.behaviors) as deployment:
            report = ReachabilityProbe(deployment).probe_application(rendered.release.name)
        assert_identical(
            expected, dataclasses.asdict(report), label=f"probe/{app.dataset}/{app.name}"
        )


# ---------------------------------------------------------------------------
# Hypothesis-generated app specs
# ---------------------------------------------------------------------------


@st.composite
def injection_plans(draw):
    m1 = draw(st.integers(min_value=0, max_value=3))
    return InjectionPlan(
        m1=m1,
        m2=draw(st.integers(min_value=0, max_value=2)),
        m3=draw(st.integers(min_value=0, max_value=2)),
        m4a=draw(st.integers(min_value=0, max_value=1)),
        m4b=draw(st.integers(min_value=0, max_value=1)),
        m4c=draw(st.integers(min_value=0, max_value=1)),
        m5a=draw(st.integers(min_value=0, max_value=1)),
        m5b=draw(st.integers(min_value=0, max_value=m1)),
        m5c=draw(st.integers(min_value=0, max_value=1)),
        m5d=draw(st.integers(min_value=0, max_value=1)),
        m6=draw(st.booleans()),
        m7=draw(st.integers(min_value=0, max_value=1)),
        global_collision=draw(st.booleans()),
    )


@st.composite
def built_applications(draw):
    plan = draw(injection_plans())
    archetype = draw(st.sampled_from(ARCHETYPES))
    return build_application(
        "gen-app", "Gen Org", plan, archetype=archetype, dataset="generated"
    )


@st.composite
def namespace_manifests(draw):
    """``Namespace`` objects added to a chart: labelled, unlabelled and nameless."""
    docs = [
        {"apiVersion": "v1", "kind": "Namespace", "metadata": _meta(
            draw(st.sampled_from(NAMESPACES)), None, draw(st.sampled_from(NAMESPACE_LABELS))
        )}
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    if draw(st.integers(min_value=0, max_value=4)) == 4:
        docs.append({"apiVersion": "v1", "kind": "Namespace", "metadata": {}})
    return docs


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    app=built_applications(),
    double_snapshot=st.booleans(),
    namespaces=namespace_manifests(),
    positions=st.lists(st.integers(min_value=0, max_value=40), min_size=4, max_size=4),
)
def test_generated_specs_fast_observation_equals_full(app, double_snapshot, namespaces, positions):
    """fast == full for arbitrary generated app specs, single & double snapshot.

    ``Namespace`` objects among the chart's are validated as install applies
    them: equal observations, or the same error on both paths.
    """
    rendered = render_chart(app.chart)

    def fresh():
        return with_extras(rendered, namespaces, positions, False, rendered.release.name)

    reference = error = None
    try:
        reference = observe_fresh(app, double_snapshot=double_snapshot, rendered=fresh())
    except Exception as exc:  # noqa: BLE001 -- error parity is under test
        error = (type(exc).__name__, str(exc))
    try:
        fast = AnalysisSession(observe_mode=OBSERVE_FAST).observe(
            fresh(), app.behaviors, double_snapshot=double_snapshot
        )
    except Exception as exc:  # noqa: BLE001
        assert (type(exc).__name__, str(exc)) == error
    else:
        assert error is None, f"install raised {error}, the fast path did not"
        assert_identical(
            canonical_observation(reference), canonical_observation(fast),
            label="generated/fast-vs-full",
        )


#: One long-lived session shared across Hypothesis examples: every example
#: exercises a reset after an arbitrary predecessor chart, which is exactly
#: the reset-epoch contract pooling relies on.
_PERSISTENT_FULL = AnalysisSession(observe_mode=OBSERVE_FULL)
_PERSISTENT_FAST = AnalysisSession(observe_mode=OBSERVE_FAST)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(app=built_applications())
def test_generated_specs_reports_identical_across_session_modes(app):
    """Analyzer reports: persistent pooled/fast sessions == fresh reference."""
    expected = canonical_report(
        reference_analyzer().analyze_chart(
            app.chart, behaviors=app.behaviors, dataset="generated"
        )
    )
    pooled = MisconfigurationAnalyzer(
        settings=AnalyzerSettings(observe_mode=OBSERVE_FULL),
        session=_PERSISTENT_FULL,
    ).analyze_chart(app.chart, behaviors=app.behaviors, dataset="generated")
    fast = MisconfigurationAnalyzer(
        session=_PERSISTENT_FAST
    ).analyze_chart(app.chart, behaviors=app.behaviors, dataset="generated")
    assert_identical(expected, canonical_report(pooled), label="generated/pooled-report")
    assert_identical(expected, canonical_report(fast), label="generated/fast-report")


# ---------------------------------------------------------------------------
# Install-free deployments against installs, on generated manifests
# ---------------------------------------------------------------------------

#: Namespaces the generated manifests use; ``apps`` is also a release namespace.
NAMESPACES = ("default", "kube-system", "apps", "other")
NAMESPACE_LABELS = ({}, {"team": "red"}, {"team": "blue"}, {"kubernetes.io/metadata.name": "other"})


def _meta(name: str, namespace: str | None, labels: dict | None = None) -> dict:
    meta: dict = {"name": name}
    if namespace is not None:
        meta["namespace"] = namespace
    if labels:
        meta["labels"] = dict(labels)
    return meta


def _pod_spec(ports, host_network: bool = False, node_name: str = "") -> dict:
    spec: dict = {
        "containers": [{
            "name": "main",
            "image": "generated/extra",
            "ports": [{"name": name, "containerPort": port} for port, name in ports],
        }]
    }
    if host_network:
        spec["hostNetwork"] = True
    if node_name:
        spec["nodeName"] = node_name
    return spec


def _pod(name, namespace, labels, ports, host_network=False, node_name="") -> dict:
    return {"apiVersion": "v1", "kind": "Pod", "metadata": _meta(name, namespace, labels),
            "spec": _pod_spec(ports, host_network, node_name)}


def _daemonset(name, namespace, labels, ports) -> dict:
    return {"apiVersion": "apps/v1", "kind": "DaemonSet", "metadata": _meta(name, namespace),
            "spec": {"selector": {"matchLabels": dict(labels)},
                     "template": {"metadata": {"labels": dict(labels)},
                                  "spec": _pod_spec(ports)}}}


def _service(name, namespace, selector, port, target, protocol="TCP") -> dict:
    return {"apiVersion": "v1", "kind": "Service", "metadata": _meta(name, namespace),
            "spec": {"selector": dict(selector),
                     "ports": [{"name": "main", "port": port, "targetPort": target,
                                "protocol": protocol}]}}


def _policy(name, namespace, pod_labels, namespace_labels, port) -> dict:
    peer = {"namespaceSelector": {"matchLabels": dict(namespace_labels)}}
    rule: dict = {"from": [peer]}
    if port is not None:
        rule["ports"] = [{"protocol": "TCP", "port": port}]
    return {"apiVersion": "networking.k8s.io/v1", "kind": "NetworkPolicy",
            "metadata": _meta(name, namespace),
            "spec": {"podSelector": {"matchLabels": dict(pod_labels)},
                     "policyTypes": ["Ingress"], "ingress": [rule]}}


#: Manifests that make install raise, with the error they raise.
BREAKAGES = {
    "nameless-namespace": {"apiVersion": "v1", "kind": "Namespace", "metadata": {}},
    "missing-node": _pod("pinned", "default", {"app": "pinned"}, [], node_name="no-such-node"),
    "attacker-release": None,
}


@pytest.mark.parametrize("breakage", sorted(BREAKAGES))
def test_install_errors_raise_alike_with_chart_attribution(catalog_apps, breakage, monkeypatch):
    """Both Figure 4b paths raise one error, attributed to the chart alike.

    A nameless ``Namespace`` fails validation (not a ``ClusterError``: no
    chart prefix on either path); a pod pinned to a missing node and a
    release named like the attacker's application raise ``ClusterError``s,
    prefixed with ``dataset/name``.
    """
    app = next(app for app in catalog_apps if app.defines_network_policies)
    render = netpol_impact.render_chart

    def broken_render(chart, **kwargs):
        rendered = render(chart, **kwargs)
        if BREAKAGES[breakage] is None:
            release = dataclasses.replace(rendered.release, name="__attacker__")
            return dataclasses.replace(rendered, release=release)
        extra = objects_from_dicts([BREAKAGES[breakage]])
        return dataclasses.replace(rendered, objects=list(rendered.objects) + extra)

    monkeypatch.setattr(netpol_impact, "render_chart", broken_render)
    raised = []
    for compiled in (True, False):
        with pytest.raises(Exception) as info:
            netpol_impact.probe_application_with_policies(app, compiled=compiled)
        raised.append((type(info.value).__name__, str(info.value)))
    assert raised[0] == raised[1]
    attributed = raised[0][1].startswith(f"[{app.dataset}/{app.name}] ")
    assert attributed == (breakage != "nameless-namespace"), raised[0]


#: Services whose port Figure 4b counts as misconfigured while no pod
#: socket is: a target port the backend does not declare, and a UDP port
#: (only declared TCP ports count as declared for a service).
SERVICE_ONLY_MISCONFIGURATIONS = {
    "wrong-target-port": _service("web", "default", {"app": "web"}, 80, 8080),
    "udp-port": _service("dns", "default", {"app": "web"}, 53, 53, "UDP"),
}


@pytest.mark.parametrize("case", sorted(SERVICE_ONLY_MISCONFIGURATIONS))
def test_service_only_misconfiguration_probes_alike(catalog_apps, case, monkeypatch):
    """A misconfigured service port is the first endpoint either path probes.

    The chart is one pod that listens only on what it declares, behind one
    service from :data:`SERVICE_ONLY_MISCONFIGURATIONS`: the service loop,
    not the pod loop, builds the reachability matrix.  Both Figure 4b paths
    probe the service and return the same outcome.
    """
    app = next(app for app in catalog_apps if app.defines_network_policies)
    render = netpol_impact.render_chart
    pod = _pod("web", "default", {"app": "web"}, [(80, "http")])
    pod["spec"]["containers"][0]["ports"].append(
        {"name": "dns", "containerPort": 53, "protocol": "UDP"}
    )
    manifests = [pod, SERVICE_ONLY_MISCONFIGURATIONS[case]]

    def service_only_render(chart, **kwargs):
        rendered = render(chart, **kwargs)
        return dataclasses.replace(rendered, objects=objects_from_dicts(manifests))

    probed = []
    connect_via_service = ReachabilityMatrix.connect_via_service

    def counted(self, *args, **kwargs):
        probed.append(args[2])
        return connect_via_service(self, *args, **kwargs)

    monkeypatch.setattr(netpol_impact, "render_chart", service_only_render)
    monkeypatch.setattr(ReachabilityMatrix, "connect_via_service", counted)
    outcomes = [
        canonical_reachability(netpol_impact.probe_application_with_policies(app, compiled=compiled))
        for compiled in (True, False)
    ]
    assert_identical(outcomes[1], outcomes[0], label=f"service-only/{case}")
    assert len(probed) == 2, probed


@st.composite
def extra_manifests(draw):
    """Manifests added to a rendered chart, with where each one goes.

    Covers what install does beyond the catalogue's charts: ``Namespace``
    objects with and without labels (and a nameless one, which install
    rejects), a service selecting the attacker, named target ports,
    ``hostNetwork`` pods, DaemonSets, policies keyed on namespace labels, a
    pod that takes the attacker's name, a pod pinned to a missing node,
    duplicate object keys and an object left without a namespace.
    """
    docs: list[dict] = []
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        name = draw(st.sampled_from(NAMESPACES))
        labels = draw(st.sampled_from(NAMESPACE_LABELS))
        docs.append({"apiVersion": "v1", "kind": "Namespace", "metadata": _meta(name, None, labels)})
    if draw(st.integers(min_value=0, max_value=9)) == 9:
        docs.append({"apiVersion": "v1", "kind": "Namespace", "metadata": {}})
    namespace = st.sampled_from(NAMESPACES)
    if draw(st.booleans()):
        docs.append(_service("lure", draw(namespace), {"app.kubernetes.io/name": "attacker"},
                             80, draw(st.sampled_from([80, 8080, "http"]))))
    if draw(st.booleans()):
        docs.append(_pod("host-agent", draw(namespace), {"app": "agent"},
                         [(draw(st.sampled_from([22, 9100])), "agent")], host_network=True))
    agent_namespace = draw(namespace)
    if draw(st.booleans()):
        docs.append(_daemonset("agent", agent_namespace, {"app": "agent"}, [(9200, "agent")]))
    if draw(st.booleans()):
        # Often beside the DaemonSet, selecting its pods.
        docs.append(_service("agent", draw(st.one_of(st.just(agent_namespace), namespace)),
                             {"app": "agent"}, 80,
                             draw(st.sampled_from(["agent", "missing", 9200, 8080])),
                             draw(st.sampled_from(["TCP", "UDP"]))))
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        docs.append(_policy(
            f"from-{index}", draw(namespace),
            draw(st.sampled_from([{}, {"app": "agent"}, {"app": "decoy"}])),
            draw(st.sampled_from(NAMESPACE_LABELS[1:])),
            draw(st.sampled_from([None, 9200, "agent", 8080])),
        ))
    if draw(st.booleans()):
        docs.append(_pod("attacker", "default", {"app": "decoy"}, [(8080, "http")]))
    if draw(st.integers(min_value=0, max_value=19)) == 19:
        docs.append(_pod("pinned", "default", {"app": "pinned"}, [], node_name="no-such-node"))
    keyed = [doc for doc in docs if doc["kind"] in ("Service", "NetworkPolicy")]
    if keyed and draw(st.booleans()):
        # Same key, other content: install keeps the later object.
        variant = copy.deepcopy(draw(st.sampled_from(keyed)))
        if variant["kind"] == "Service":
            variant["spec"]["ports"][0]["targetPort"] = 8080
        else:
            variant["spec"]["podSelector"] = {}
        docs.append(variant)
    if docs:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            docs.append(copy.deepcopy(draw(st.sampled_from(docs))))
    unnamespaced = draw(st.booleans())
    return docs, unnamespaced


def with_extras(rendered, extras, positions, unnamespaced, release_name):
    """``rendered`` with fresh objects for ``extras`` inserted at ``positions``."""
    objects = list(rendered.objects)
    added = objects_from_dicts(extras)
    if unnamespaced and added and added[-1].NAMESPACED:
        added[-1].metadata.namespace = ""  # install defaults it to the release's
    for position, obj in zip(positions, added):
        objects.insert(min(position, len(objects)), obj)
    release = dataclasses.replace(rendered.release, name=release_name)
    return dataclasses.replace(rendered, objects=objects, release=release)


def probe_view(target, app: str) -> dict:
    """Everything the reachability probes read of a deployed chart."""
    view = target.policies_view()
    policies = view.policies if isinstance(view, PolicyIndex) else view
    return {
        "pods": [
            [pod.namespace, pod.name, pod.app, pod.owner, pod.node.name,
             [dataclasses.asdict(socket) for socket in pod.sockets]]
            for pod in deployed_pods(target, app)
        ],
        "bindings": [
            [binding.service.to_dict(), [list(pod.ident) for pod in binding.backends]]
            for binding in target.service_bindings()
        ],
        "policies": [policy.to_dict() for policy in policies],
        "namespace_labels": {
            namespace: target.enforcer.namespace_labels(namespace) for namespace in NAMESPACES
        },
        "host_ports": sorted(target.host_port_baseline()),
        "attacker": list(ReachabilityProbe(target).ensure_attacker().ident),
        "surface": canonical_surface(matrix_of(target, app).all_pairs()),
        "report": dataclasses.asdict(ReachabilityProbe(target).probe_application(app)),
    }


#: One deployment session across examples, so every example also follows
#: an arbitrary predecessor on the recycled substrate.
_PERSISTENT_DEPLOY = AnalysisSession(name="netpol-impact")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # A clean plan half the time: the only misconfigured endpoints are then
    # the extra manifests' own, such as a service-only wrong target port.
    plan=st.one_of(st.just(InjectionPlan()), injection_plans()),
    archetype=st.sampled_from(ARCHETYPES),
    netpol_mode=st.sampled_from([mode for mode in NETPOL_MODES if mode != NETPOL_NONE]),
    release_namespace=st.sampled_from(["default", "apps"]),
    extras=extra_manifests(),
    positions=st.lists(st.integers(min_value=0, max_value=40), min_size=12, max_size=12),
    attacker_release=st.integers(min_value=0, max_value=19),
)
def test_generated_deployments_equal_install(
    plan, archetype, netpol_mode, release_namespace, extras, positions, attacker_release
):
    """A deployment == install + ``ensure_attacker``, policies forced on.

    Equal pods (start order, owners, nodes, sockets), bindings, policies,
    namespace labels, surfaces and probe reports -- or the same error.  The
    Figure 4b outcome of the same manifests is equal on both of its paths.
    """
    app = build_application(
        "gen-app", "Gen Org", dataclasses.replace(plan, netpol_mode=netpol_mode),
        archetype=archetype, dataset="generated",
    )
    docs, unnamespaced = extras
    rendered = render_chart(
        app.chart, namespace=release_namespace, overrides={"networkPolicy": {"enabled": True}}
    )
    # A release named like the attacker's application: install refuses the attacker.
    release_name = "__attacker__" if attacker_release == 19 else rendered.release.name

    def fresh():
        return with_extras(rendered, docs, positions, unnamespaced, release_name)

    expected = error = None
    oracle = Cluster(name="netpol-impact", behaviors=app.behaviors, compiled_policies=False)
    try:
        oracle.install(fresh())
        ReachabilityProbe(oracle).ensure_attacker()
    except Exception as exc:  # noqa: BLE001 -- error parity is under test
        error = (type(exc).__name__, str(exc))
    else:
        expected = probe_view(oracle, release_name)
    try:
        with _PERSISTENT_DEPLOY.deploy(fresh(), app.behaviors) as deployment:
            actual = probe_view(deployment, release_name)
    except Exception as exc:  # noqa: BLE001
        assert (type(exc).__name__, str(exc)) == error
    else:
        assert error is None, f"install raised {error}, the deployment did not"
        assert_identical(expected, actual, label="generated/deployment-vs-install")

    # The Figure 4b count over the same manifests, through both of its paths.
    probe = netpol_impact.probe_application_with_policies
    with mock.patch.object(netpol_impact, "render_chart", lambda chart, **kwargs: fresh()):
        if error is None:
            assert_identical(
                canonical_reachability(probe(app, compiled=False)),
                canonical_reachability(probe(app)),
                label="generated/figure4b",
            )
            return
        for compiled in (False, True):
            with pytest.raises(Exception) as info:
                probe(app, compiled=compiled)
            assert type(info.value).__name__ == error[0]
            assert str(info.value).endswith(error[1])
